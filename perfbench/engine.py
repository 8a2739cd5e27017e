"""One engine run in a fresh process: time it, check it, print one JSON line.

    python3 perfbench/engine.py --workload desk --run fedavg-clean --seed 0 --trace 0

run.py starts one of these per engine run. Untraced, only run_round is
hooked: the run is timed from the call into run_experiment to its return,
set-up up to the first call into run_round, and the round engine as the
time inside run_round, all in CPU seconds of this process (tracing.CLOCK).
Traced, every hook in tracing.LAYER_HOOKS is added and the per-layer split
is reported instead of set-up repeats.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
from pathlib import Path

from tracing import CLOCK

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups timed per untraced run: the run's own and two stopped at the first round


class _SetupDone(Exception):
    pass


def time_setup(config) -> float:
    """Seconds from the call into run_experiment to its first call into run_round."""
    import fedrec_arena.federation as federation

    real = federation.run_round

    def stop(*args, **kwargs):
        raise _SetupDone(CLOCK())

    federation.run_round = stop
    began = CLOCK()
    try:
        federation.run_experiment(config)
    except _SetupDone as done:
        return done.args[0] - began
    finally:
        federation.run_round = real
    raise RuntimeError("run_experiment returned without calling run_round")


def ledger_bytes(ledgers) -> int:
    """Bytes of every array the ledgers hold, each owning buffer counted once."""
    import numpy as np

    owners: dict[int, int] = {}
    stack = list(ledgers)
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(o for o in obj if not isinstance(o, (int, float, str)))
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return sum(owners.values())


def layers(spans, run_s: float, setup_s: float, result) -> dict[str, float]:
    from tracing import ROUND_CHILDREN

    s, calls, counts = spans.seconds, spans.calls, spans.counts
    round_s = s["federation.run_round"]
    eval_s = s["evaluation.target_hr"] + s["evaluation.test_ranks"]
    return {
        "data.generate_synthetic_s": s["data.generate_synthetic"],
        "data.sample_pairs_s": s["data.sample_pairs"],
        "data.sample_pairs_calls": calls["data.sample_pairs"],
        "federation.seed_streams_s": s["federation.seed_streams"],
        "federation.seed_streams_calls": calls["federation.seed_streams"],
        "model.local_train_s": s["model.local_train"],
        "model.local_train_calls": calls["model.local_train"],
        "model.item_deltas": counts["model.item_deltas"],
        "federation.round_self_s": round_s - sum(s[name] for name in ROUND_CHILDREN),
        "aggregation.aggregate_item_s": s["aggregation.aggregate_item"],
        "aggregation.items": calls["aggregation.aggregate_item"],
        "aggregation.contributions": counts["aggregation.contributions"],
        "aggregation.fallbacks": result.warnings_count,
        "attack.crafted_updates_s": s["attack.crafted_updates"],
        "attack.fake_uploads": counts["attack.fake_uploads"],
        "evaluation.eval_s": eval_s,
        "evaluation.target_hr_s": s["evaluation.target_hr"],
        "evaluation.test_ranks_s": s["evaluation.test_ranks"],
        "model.recommend_topk_s": s["model.recommend_topk"],
        "model.recommend_topk_calls": calls["model.recommend_topk"],
        "federation.timeline_self_s": run_s - setup_s - round_s - eval_s,
        "federation.ledger_mb": ledger_bytes(result.ledgers) / 2**20,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from fedrec_arena import run_experiment

    from checks import check_run, digest
    from tracing import install
    from workloads import find_run

    run = find_run(args.workload, args.run)
    config = run.config(args.seed)

    spans = install(traced=bool(args.trace))
    try:
        began = CLOCK()
        result = run_experiment(config)
        run_s = CLOCK() - began
    finally:
        spans.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = spans.first_call["federation.run_round"] - began

    record = {
        "run": run.name,
        "errors": check_run(result, run),
        "digest": digest(result),
        "run_s": run_s,
        "round_s": spans.seconds["federation.run_round"],
        "updates": run.updates,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        record["setup_s"] = setup_s
        record["layers"] = layers(spans, run_s, setup_s, result)
        record["missing"] = spans.missing
    else:
        setups = [setup_s] + [time_setup(config) for _ in range(SETUPS - 1)]
        record["setup_s"] = statistics.median(setups)
        record["setups"] = setups
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
