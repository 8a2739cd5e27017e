"""fedrec-arena benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 40 --trace 0

A pass makes every engine run of the workload once, each in a fresh
process (perfbench/engine.py), one at a time. Passes repeat while the next
one is expected to end within --seconds; there is always at least one. The
printed values are medians over passes of per-pass totals.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, with the
tracing overhead. Either way every run is checked (checks.py), and every
pass must reproduce the same digest per run. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The full
record is written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

def engine_run(workload: str, name: str, seed: int, traced: bool) -> dict:
    """Start one engine run and return its record, or one with the failure."""
    log = OUT / "logs" / f"{workload}-{name}-seed{seed}-trace{int(traced)}.stderr"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [
        sys.executable, str(HERE / "engine.py"), "--workload", workload, "--run", name,
        "--seed", str(seed), "--trace", str(int(traced)),
    ]
    with open(log, "w") as stderr:
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr,
                text=True, timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"run": name, "raised": f"no result within {RUN_TIMEOUT_S} s"}
    lines = log.read_text().splitlines()
    if proc.returncode != 0:
        return {"run": name, "raised": f"exit {proc.returncode}: " + " | ".join(lines[-5:])}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if traced:
        record["layers"]["aggregation.log_lines"] = len(lines)
    return record


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    began = time.perf_counter()
    runs = [engine_run(workload, run.name, seed, traced) for run in WORKLOADS[workload]]
    done = [r for r in runs if "raised" not in r]
    summary = {
        "traced": traced,
        "wall_s": time.perf_counter() - began,
        "runs": runs,
        "run_s": sum(r["run_s"] for r in done),
    }
    if done and not traced:
        summary["metrics"] = {
            "run_s": summary["run_s"],
            "setup_s": sum(r["setup_s"] for r in done),
            "updates_per_s": sum(r["updates"] for r in done) / sum(r["round_s"] for r in done),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in done),
        }
    if done and traced:
        summary["metrics"] = {
            key: sum(r["layers"][key] for r in done) for key in done[0]["layers"]
        }
    return summary


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the unit of every metric the benchmark declares, end-to-end and per layer
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in benchmark[kind]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedrec_arena" / "__init__.py").is_file():
        print(f"no fedrec_arena sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "logs").mkdir(parents=True, exist_ok=True)

    modes = (False, True) if args.trace else (False,)
    began = time.perf_counter()
    passes: list[dict] = []
    longest = 0.0
    while True:
        round_began = time.perf_counter()
        passes.extend(run_pass(args.workload, args.seed, traced) for traced in modes)
        longest = max(longest, time.perf_counter() - round_began)
        if time.perf_counter() - began + longest > args.seconds:
            break

    runs = [r for p in passes for r in p["runs"]]
    failed = [r for r in runs if "raised" in r or r["errors"]]
    digests: dict[str, set[str]] = {}
    for r in runs:
        if "digest" in r:
            digests.setdefault(r["run"], set()).add(r["digest"])
    unstable = sorted(name for name, seen in digests.items() if len(seen) > 1)
    correct = not unstable and not any(r.get("errors") for r in runs)
    for r in failed:
        print(f"FAILED {args.workload}/{r['run']}: {r.get('raised') or '; '.join(r['errors'])}",
              file=sys.stderr)
    for name in unstable:
        print(f"NOT REPRODUCED {args.workload}/{name}: digests {sorted(digests[name])}",
              file=sys.stderr)

    measured = [p for p in passes if p["traced"] == bool(args.trace) and "metrics" in p]
    metrics = {}
    if measured:
        for key in measured[0]["metrics"]:
            metrics[key] = statistics.median(p["metrics"][key] for p in measured)
    if args.trace:
        untraced = statistics.median(p["run_s"] for p in passes if not p["traced"])
        traced = statistics.median(p["run_s"] for p in passes if p["traced"])
        if untraced > 0:
            metrics["tracing.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        missing = sorted({m for r in runs for m in r.get("missing", ())})
        if missing:
            print(f"hooks missing, their layers read 0: {', '.join(missing)}", file=sys.stderr)

    for key, value in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {units[key]}")
    print(f"{args.workload} operations attempted {len(runs)} failed {len(failed)}"
          f" passes {len(measured)}")
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, digests={k: sorted(v) for k, v in digests.items()},
                  passes=passes)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
