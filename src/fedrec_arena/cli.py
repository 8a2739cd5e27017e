"""Command-line experiment runner.

Subcommands: ``run`` (execute a JSON config, write metrics/summary/dump
artifacts), ``synth`` (generate a synthetic dataset file), ``aggcheck``
(aggregate a file of vectors under one rule). Exit codes: 0 success; 2 a
usage error or a run refused before round 1 (any ``ConfigError``: the config,
or the data it names, cannot run); 1 a run that failed after it started.
The environment variable FEDREC_ARENA_LOG selects the log level.

A config's keys, types and defaults, and the synth and aggcheck flag defaults,
are the config dataclasses' fields; ``LAYOUT`` places ``ExperimentConfig``'s own.
Nothing is cast: a JSON value that its field's annotation does not take exits 2.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Optional, get_args, get_type_hints

import numpy as np

from .aggregation import RULES, AggregatorSpec, aggregate_rows, degenerate_reason
from .data import dump_dataset
from .evaluation import project_2d
from .federation import (
    ConfigError, DatasetConfig, Experiment, ExperimentConfig, SeedStreams, resolve_dataset,
)

log = logging.getLogger("fedrec_arena.cli")


# Where a document holds each of ExperimentConfig's own fields, and the renamed
# attack field; section fields keep their names. threads, not placed, has no key.
LAYOUT = {
    "dim": "model.dim", "learning_rate": "model.learning_rate",
    "rounds": "federation.rounds", "participation": "federation.participation",
    "eval_every": "eval.every", "topk": "eval.topk", "dump_round": "eval.dump_round",
    "seed": "seed", "attack.scale": "attack.lambda",
}
_DEFAULT = ExperimentConfig()


def _leaves(config, prefix: str = ""):
    """(dotted field path, type annotation, default) of every non-section field."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{f.name}.")
        else:
            yield prefix + f.name, hints[f.name], value


# document path -> (ExperimentConfig field path, type annotation, default)
SCHEMA = {
    LAYOUT.get(name, name): (name, hint, default)
    for name, hint, default in _leaves(_DEFAULT)
    if "." in name or name in LAYOUT
}


def _nest(flat: dict[str, Any]) -> dict[str, Any]:
    """``{"a.b": x, "c": y}`` -> ``{"a": {"b": x}, "c": y}``."""
    nested: dict[str, Any] = {}
    for path, value in flat.items():
        *section, key = path.split(".")
        (nested.setdefault(section[0], {}) if section else nested)[key] = value
    return nested


# every default, as a document: summary.json echoes it with the given values over it
DEFAULTS = _nest({p: list(d) if isinstance(d, tuple) else d for p, (_, _, d) in SCHEMA.items()})
_EXPECTED = {
    int: "an integer", float: "a number", str: "a string", tuple[int, ...]: "a list of integers",
}


def _is(value: Any, hint: Any) -> bool:
    """Whether ``value`` is a JSON value of type ``hint``; a bool is no integer or number."""
    if hint == tuple[int, ...]:
        return isinstance(value, list) and all(_is(v, int) for v in value)
    kinds = {int: int, float: (int, float), str: str}[hint]
    return isinstance(value, kinds) and not isinstance(value, bool)


def _typed(path: str, value: Any, hint: Any) -> Any:
    """``value`` as a field annotated ``hint`` takes it, or a ConfigError naming ``path``."""
    args = get_args(hint)
    if type(None) in args:  # Optional[X] also takes null
        if value is None:
            return None
        (hint,) = set(args) - {type(None)}
    if not _is(value, hint):
        raise ConfigError(f"{path}: expected {_EXPECTED[hint]}, got {json.dumps(value)}")
    return tuple(value) if isinstance(value, list) else value


def resolve_config(document: dict) -> dict:
    """Fill defaults and reject unknown keys; returns the full config echo."""
    if not isinstance(document, dict):
        raise ConfigError("config root must be an object")
    for key in document:
        if key not in DEFAULTS:
            raise ConfigError(f"{key}: unknown key")
    resolved: dict[str, Any] = {}
    for key, default in DEFAULTS.items():
        given = document.get(key, default)
        if isinstance(default, dict):
            if not isinstance(given, dict):
                raise ConfigError(f"{key}: must be an object")
            for sub in given:
                if sub not in default:
                    raise ConfigError(f"{key}.{sub}: unknown key")
            given = {**default, **given}
        resolved[key] = given
    return resolved


def build_experiment(resolved: dict) -> ExperimentConfig:
    """Turn a resolved config document into an ExperimentConfig, which checks itself."""
    values = {}
    for path, (name, hint, _) in SCHEMA.items():
        section, _, key = path.rpartition(".")
        values[name] = _typed(path, (resolved[section] if section else resolved)[key], hint)
    try:
        return ExperimentConfig(**{
            key: type(getattr(_DEFAULT, key))(**value) if isinstance(value, dict) else value
            for key, value in _nest(values).items()
        })
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def write_metrics_csv(path: Path, result) -> None:
    lines = ["round,metric,k,value"]
    for record in result.metrics:
        for k in sorted(record.target_hr_at):
            lines.append(f"{record.round},target_hr,{k},{record.target_hr_at[k]!r}")
        for k in sorted(record.hr_at):
            lines.append(f"{record.round},hr,{k},{record.hr_at[k]!r}")
        for k in sorted(record.ndcg_at):
            lines.append(f"{record.round},ndcg,{k},{record.ndcg_at[k]!r}")
        fp = record.footprint
        lines.append(f"{record.round},footprint_mean,,{fp.mean!r}")
        lines.append(f"{record.round},footprint_std,,{fp.std!r}")
        lines.append(f"{record.round},footprint_min,,{fp.min}")
        lines.append(f"{record.round},footprint_max,,{fp.max}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_dump_csv(path: Path, result) -> None:
    """The dump round's target rows, one per contributor in ascending id (fakes from
    ``num_genuine`` on), each with its 2-D projection; no file if the target got none."""
    ledger = result.ledgers[result.config.dump_round - 1]
    if not ledger.target_users.size:
        log.warning(
            "round %d: target item received no contributions, nothing to dump", ledger.round
        )
        return
    rows = ledger.target_rows
    dims = ",".join(f"v{i}" for i in range(rows.shape[1]))
    lines = [f"round,item,user,label,proj_x,proj_y,{dims}"]
    # tolist() gives Python floats, whose repr is the plain shortest round-trip number
    for user, vec, (x, y) in zip(ledger.target_users.tolist(), rows, project_2d(rows).tolist()):
        label = "fake" if user >= result.num_genuine else "genuine"
        coords = ",".join(repr(float(v)) for v in vec)
        lines.append(f"{ledger.round},{result.target_item},{user},{label},{x!r},{y!r},{coords}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary(path: Path, resolved_config: dict, result) -> None:
    final = result.metrics[-1]  # the final round always evaluates
    peak: dict[str, Any] = {}
    for k in result.config.topk:
        value, rnd = max((rec.target_hr_at[k], rec.round) for rec in result.metrics)
        peak[str(k)] = {"value": value, "round": rnd}
    summary = {
        "config": resolved_config,
        "target_item": result.target_item,
        "num_genuine": result.num_genuine,
        "num_fakes": result.num_fakes,
        "final_metrics": {
            "round": final.round,
            "target_hr": {str(k): v for k, v in final.target_hr_at.items()},
            "hr": {str(k): v for k, v in final.hr_at.items()},
            "ndcg": {str(k): v for k, v in final.ndcg_at.items()},
        },
        "peak_target_hr": peak,
        "wall_time_s": result.wall_time,
        "warnings": result.warnings_count,
    }
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        document = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        resolved = resolve_config(document)
        if args.seed is not None:
            resolved["seed"] = args.seed
        if args.dump_updates is not None:
            resolved["eval"]["dump_round"] = args.dump_updates
        experiment = Experiment(build_experiment(resolved))  # refuses its data before --out exists
        try:
            out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before round 1
        except OSError as exc:  # one line says why, as synth's --output does
            print(f"error: run failed: {exc}", file=sys.stderr)
            return 1
        result = experiment.run()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        log.exception("run failed")
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    write_metrics_csv(out_dir / "metrics.csv", result)
    write_summary(out_dir / "summary.json", resolved, result)
    if result.config.dump_round is not None:
        write_dump_csv(out_dir / "target_updates.csv", result)
    print(
        f"run complete: {result.config.rounds} rounds, {result.num_genuine} genuine"
        f" + {result.num_fakes} fake users, wall time {result.wall_time:.2f}s"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.output)
    try:
        if args.seed < 0:
            raise ValueError("seed must be >= 0")
        config = DatasetConfig(
            users=args.users, items=args.items, latent_dim=args.latent_dim,
            interactions_per_user=args.per_user, popularity_skew=args.skew,
        )
        out.parent.mkdir(parents=True, exist_ok=True)  # an unwritable --output fails before any work
        dataset = resolve_dataset(config, SeedStreams(args.seed))
        with out.open("w", encoding="utf-8") as fp:
            dump_dataset(dataset, fp)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: synth failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {dataset.users.size} interactions to {out}")
    return 0


def cmd_aggcheck(args: argparse.Namespace) -> int:
    rows = []
    try:
        for line_no, line in enumerate(Path(args.input).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                rows.append(np.array([float(x) for x in line.split(",")]))
            except ValueError:
                print(f"error: line {line_no}: not a comma-separated vector", file=sys.stderr)
                return 2
    except FileNotFoundError:
        print(f"error: input file not found: {args.input}", file=sys.stderr)
        return 2
    if not rows:
        print("error: input file contains no vectors", file=sys.stderr)
        return 2
    if len({r.shape for r in rows}) != 1:
        print("error: ragged rows: vectors have differing lengths", file=sys.stderr)
        return 2
    try:
        spec = AggregatorSpec(
            rule=args.rule, trim_beta=args.beta, krum_m=args.m, clip_bound=args.bound, hics_z=args.z
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out, fell_back = aggregate_rows(spec, rows)
    if fell_back:
        reason = degenerate_reason(spec, len(rows))
        log.warning(f"item 0: {spec.rule} degenerate ({reason}); falling back to median")
    print(",".join(f"{x:.9g}" for x in out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedrec-arena",
        description="Federated recommender poisoning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True, help="JSON config path")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument(
        "--dump-updates", type=int, default=None, metavar="ROUND",
        help="export the target item's raw updates at this round",
    )
    run_p.set_defaults(func=cmd_run)

    dataset, spec = _DEFAULT.dataset, _DEFAULT.aggregator
    synth_p = sub.add_parser("synth", help="generate a synthetic dataset file")
    synth_p.add_argument("--users", type=int, required=True)
    synth_p.add_argument("--items", type=int, required=True)
    synth_p.add_argument("--latent-dim", type=int, default=dataset.latent_dim)
    synth_p.add_argument("--per-user", type=int, default=dataset.interactions_per_user)
    synth_p.add_argument("--skew", type=float, default=dataset.popularity_skew)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--output", required=True)
    synth_p.set_defaults(func=cmd_synth)

    agg_p = sub.add_parser("aggcheck", help="aggregate a file of comma-separated vectors")
    agg_p.add_argument("rule", choices=RULES)
    agg_p.add_argument("input", help="file with one comma-separated vector per line")
    agg_p.add_argument("--beta", type=int, default=None, help="trimmed-mean trim count")
    agg_p.add_argument("--m", type=int, default=0, help="krum assumed malicious count")
    agg_p.add_argument("--bound", type=float, default=spec.clip_bound, help="clip norm bound")
    agg_p.add_argument("--z", type=int, default=spec.hics_z, help="hics kept coordinates")
    agg_p.set_defaults(func=cmd_aggcheck)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("FEDREC_ARENA_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
