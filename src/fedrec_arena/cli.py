"""Command-line experiment runner.

Subcommands: ``run`` (execute a JSON config, write metrics/summary/dump
artifacts), ``synth`` (generate a synthetic dataset file), ``aggcheck``
(aggregate a file of vectors under one rule). Exit codes: 0 success,
1 runtime failure, 2 usage or config error. The environment variable
FEDREC_ARENA_LOG selects the log level.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .aggregation import RULES, AggregationError, AggregatorSpec, aggregate_item
from .attack import ATTACK_KINDS, AttackConfig
from .data import generate_synthetic, dump_dataset
from .federation import (
    DatasetConfig,
    ExperimentConfig,
    SeedStreams,
    run_experiment,
)

log = logging.getLogger("fedrec_arena.cli")


class ConfigError(ValueError):
    """Invalid config document; message names the offending field path."""


# The single source of every default is the dataclasses themselves; the
# table below just maps document keys onto their fields.
_DATASET = DatasetConfig()
_ATTACK = AttackConfig()
_AGG = AggregatorSpec()
_EXPERIMENT = ExperimentConfig()
DEFAULTS: dict[str, dict[str, Any]] = {
    "dataset": {
        "kind": _DATASET.kind,
        "users": _DATASET.users,
        "items": _DATASET.items,
        "latent_dim": _DATASET.latent_dim,
        "interactions_per_user": _DATASET.interactions_per_user,
        "popularity_skew": _DATASET.popularity_skew,
        "path": _DATASET.path,
        "format": _DATASET.format,
    },
    "model": {
        "dim": _EXPERIMENT.dim,
        "learning_rate": _EXPERIMENT.learning_rate,
    },
    "federation": {
        "rounds": _EXPERIMENT.rounds,
        "participation": _EXPERIMENT.participation,
    },
    "aggregator": {
        "rule": _AGG.rule,
        "trim_beta": _AGG.trim_beta,
        "krum_m": _AGG.krum_m,
        "clip_bound": _AGG.clip_bound,
        "hics_z": _AGG.hics_z,
    },
    "attack": {
        "kind": _ATTACK.kind,
        "fake_fraction": _ATTACK.fake_fraction,
        "start_round": _ATTACK.start_round,
        "filler_count": _ATTACK.filler_count,
        "lambda": _ATTACK.scale,
        "popular_count": _ATTACK.popular_count,
        "noise_std": _ATTACK.noise_std,
        "target_item": _ATTACK.target_item,
    },
    "eval": {
        "every": _EXPERIMENT.eval_every,
        "topk": list(_EXPERIMENT.topk),
        "dump_round": _EXPERIMENT.dump_round,
    },
}
TOP_LEVEL_DEFAULTS: dict[str, Any] = {
    "seed": _EXPERIMENT.seed,
    "threads": _EXPERIMENT.threads,
}


def resolve_config(document: dict) -> dict:
    """Fill defaults and reject unknown keys; returns the full config echo."""
    if not isinstance(document, dict):
        raise ConfigError("config root must be an object")
    resolved: dict[str, Any] = {}
    for section, defaults in DEFAULTS.items():
        given = document.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{section}: must be an object")
        for key in given:
            if key not in defaults:
                raise ConfigError(f"{section}.{key}: unknown key")
        resolved[section] = {**defaults, **given}
    for key, value in TOP_LEVEL_DEFAULTS.items():
        resolved[key] = document.get(key, value)
    known = set(DEFAULTS) | set(TOP_LEVEL_DEFAULTS)
    for key in document:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")
    return resolved


def build_experiment(resolved: dict) -> ExperimentConfig:
    """Turn a resolved config document into an ExperimentConfig."""
    ds = resolved["dataset"]
    agg = resolved["aggregator"]
    atk = resolved["attack"]
    try:
        dataset = DatasetConfig(
            kind=ds["kind"],
            users=int(ds["users"]),
            items=int(ds["items"]),
            latent_dim=int(ds["latent_dim"]),
            interactions_per_user=int(ds["interactions_per_user"]),
            popularity_skew=float(ds["popularity_skew"]),
            path=ds["path"],
            format=ds["format"],
        )
        if agg["rule"] not in RULES:
            raise ConfigError(f"aggregator.rule: unknown rule {agg['rule']!r}")
        aggregator = AggregatorSpec(
            rule=agg["rule"],
            trim_beta=None if agg["trim_beta"] is None else int(agg["trim_beta"]),
            krum_m=None if agg["krum_m"] is None else int(agg["krum_m"]),
            clip_bound=float(agg["clip_bound"]),
            hics_z=int(agg["hics_z"]),
        )
        if atk["kind"] not in ATTACK_KINDS:
            raise ConfigError(f"attack.kind: unknown kind {atk['kind']!r}")
        attack = AttackConfig(
            kind=atk["kind"],
            fake_fraction=float(atk["fake_fraction"]),
            start_round=int(atk["start_round"]),
            filler_count=int(atk["filler_count"]),
            scale=float(atk["lambda"]),
            popular_count=int(atk["popular_count"]),
            noise_std=float(atk["noise_std"]),
            target_item=atk["target_item"],
        )
        config = ExperimentConfig(
            dataset=dataset,
            dim=int(resolved["model"]["dim"]),
            learning_rate=float(resolved["model"]["learning_rate"]),
            rounds=int(resolved["federation"]["rounds"]),
            aggregator=aggregator,
            attack=attack,
            eval_every=int(resolved["eval"]["every"]),
            topk=tuple(int(k) for k in resolved["eval"]["topk"]),
            seed=int(resolved["seed"]),
            participation=float(resolved["federation"]["participation"]),
            threads=int(resolved["threads"]),
            dump_round=resolved["eval"]["dump_round"],
        )
        config.validate()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return config


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
        if fp is not None:
            lines.append(f"{record.round},footprint_mean,,{fp.mean!r}")
            lines.append(f"{record.round},footprint_std,,{fp.std!r}")
            lines.append(f"{record.round},footprint_min,,{fp.min}")
            lines.append(f"{record.round},footprint_max,,{fp.max}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_dump_csv(path: Path, result) -> None:
    if not result.dumps:
        return
    dim = result.dumps[0].rows[0][2].shape[0]
    header = "round,item,user,label,proj_x,proj_y," + ",".join(f"v{i}" for i in range(dim))
    lines = [header]
    for dump in result.dumps:
        for (user, label, vec), proj in zip(dump.rows, dump.projection):
            coords = ",".join(repr(float(x)) for x in vec)
            lines.append(
                f"{dump.round},{dump.item},{user},{label},{proj[0]!r},{proj[1]!r},{coords}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary(path: Path, resolved_config: dict, result) -> None:
    final = result.metrics[-1] if result.metrics else None
    peak: dict[str, Any] = {}
    for k in result.config.topk:
        series = [(rec.target_hr_at[k], rec.round) for rec in result.metrics]
        if series:
            value, rnd = max(series)
            peak[str(k)] = {"value": value, "round": rnd}
    summary = {
        "config": resolved_config,
        "target_item": result.target_item,
        "num_genuine": result.num_genuine,
        "num_fakes": result.num_fakes,
        "final_metrics": None
        if final is None
        else {
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
    try:
        resolved = resolve_config(document)
        if args.seed is not None:
            resolved["seed"] = args.seed
        if args.threads is not None:
            resolved["threads"] = args.threads
        if args.dump_updates is not None:
            resolved["eval"]["dump_round"] = args.dump_updates
        config = build_experiment(resolved)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_experiment(config)
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        log.exception("run failed")
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    write_metrics_csv(out_dir / "metrics.csv", result)
    write_summary(out_dir / "summary.json", resolved, result)
    if result.dumps:
        write_dump_csv(out_dir / "target_updates.csv", result)
    print(
        f"run complete: {config.rounds} rounds, {result.num_genuine} genuine"
        f" + {result.num_fakes} fake users, wall time {result.wall_time:.2f}s"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        if args.users < 1 or args.items < 1:
            raise ValueError("users and items must be >= 1")
        dataset = generate_synthetic(
            args.users,
            args.items,
            args.latent_dim,
            args.per_user,
            args.skew,
            SeedStreams(args.seed).synth(),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fp:
        dump_dataset(dataset, fp)
    print(f"wrote {len(dataset.interactions)} interactions to {out}")
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
    spec = AggregatorSpec(
        rule=args.rule,
        trim_beta=args.beta,
        krum_m=args.m,
        clip_bound=args.bound,
        hics_z=min(args.z, rows[0].size),
    )
    warnings: list[str] = []
    try:
        out = aggregate_item(spec, 0, np.stack(rows), warnings)
    except AggregationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for message in warnings:
        log.warning(message)
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
    run_p.add_argument("--threads", type=int, default=None, help="worker thread cap")
    run_p.add_argument(
        "--dump-updates", type=int, default=None, metavar="ROUND",
        help="export the target item's raw updates at this round",
    )
    run_p.set_defaults(func=cmd_run)

    synth_p = sub.add_parser("synth", help="generate a synthetic dataset file")
    synth_p.add_argument("--users", type=int, required=True)
    synth_p.add_argument("--items", type=int, required=True)
    synth_p.add_argument("--latent-dim", type=int, default=8)
    synth_p.add_argument("--per-user", type=int, default=20)
    synth_p.add_argument("--skew", type=float, default=1.0)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--output", required=True)
    synth_p.set_defaults(func=cmd_synth)

    agg_p = sub.add_parser("aggcheck", help="aggregate a file of comma-separated vectors")
    agg_p.add_argument("rule", choices=RULES)
    agg_p.add_argument("input", help="file with one comma-separated vector per line")
    agg_p.add_argument("--beta", type=int, default=None, help="trimmed-mean trim count")
    agg_p.add_argument("--m", type=int, default=0, help="krum assumed malicious count")
    agg_p.add_argument("--bound", type=float, default=3.0, help="clip norm bound")
    agg_p.add_argument("--z", type=int, default=8, help="hics kept coordinates")
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
