"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Criteria 1, 3, 4 and 8-10 drive full federated runs on the fixed desk-scale
dataset (200 users x 100 items, 20 interactions/user). Criterion 2 runs on
its own synthetic shape (500 users x 505 items, 5 interactions/user), chosen
so that 1% fakes can match the target item's genuine contributions; see
``MATRIX_SHAPE``. Criteria 5-7 are property suites. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines as
they pass. The whole suite performs ~60 engine runs and takes several
minutes.
"""
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fedrec_arena.aggregation import AggregatorSpec, aggregate_rows
from fedrec_arena.attack import AttackConfig, AttackRuntime
from fedrec_arena.cli import main as cli_main
from fedrec_arena.federation import (
    DatasetConfig,
    ExperimentConfig,
    SeedStreams,
    run_experiment,
    run_round,
)
from fedrec_arena.model import ItemEmbeddings, UserTable, train_step

from reference import bpr_loss

BASE_SEED = 0
MATRIX_SEEDS = [0, 1, 3, 8, 11]

ROUNDS = 150
ATTACK_START = 50
FILLERS = 10
TARGET_HR_K = 5

DESK_SHAPE = {"users": 200, "items": 100, "interactions_per_user": 20}
# With one uniform negative per train item, the target (the least-interacted
# item) gets about G = U * (ipu - 1) / (I - ipu) genuine contributions per
# round. At the desk shape G is ~45 against 2 fakes, so median, Krum and HiCS
# hold. At MATRIX_SHAPE G is ~4 against F = ceil(0.01 * 500) = 5 fakes:
# G >= 3 keeps Krum with m = F runnable on the target, and G <= F lets 1%
# fakes at least match the genuine contributions, the breakdown point of
# median and Krum.
MATRIX_SHAPE = {"users": 500, "items": 505, "interactions_per_user": 5}
MIN_GENUINE_FOR_KRUM = 3


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def experiment_config(
    seed: int, aggregator: AggregatorSpec, attack: AttackConfig, shape: dict = DESK_SHAPE
) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(kind="synthetic", latent_dim=8, popularity_skew=1.0, **shape),
        dim=32,
        learning_rate=0.05,
        rounds=ROUNDS,
        aggregator=aggregator,
        attack=attack,
        eval_every=10,
        topk=(5, 10),
        seed=seed,
    )


def poisonfrs(noise_std: float = 0.0) -> AttackConfig:
    return AttackConfig(
        kind="poisonfrs", fake_fraction=0.01, start_round=ATTACK_START,
        filler_count=FILLERS, scale=10.0, popular_count=5, noise_std=noise_std,
    )


def rule_spec(rule: str) -> AggregatorSpec:
    return {
        "fedavg": AggregatorSpec(rule="fedavg"),
        "median": AggregatorSpec(rule="median"),
        "trimmed_mean": AggregatorSpec(rule="trimmed_mean", trim_beta=1),
        "clip": AggregatorSpec(rule="clip", clip_bound=3.0),
        "krum": AggregatorSpec(rule="krum"),  # krum_m defaults to the fake count
        "hics": AggregatorSpec(rule="hics", hics_z=8),
    }[rule]


@pytest.fixture(scope="module")
def runs():
    """Cache of engine runs shared across criteria."""
    cache = {}

    def get(rule: str, attack_kind: str, seed: int = BASE_SEED, noise_std: float = 0.0):
        key = (rule, attack_kind, seed, noise_std)
        if key not in cache:
            if attack_kind == "none":
                attack = AttackConfig(kind="none")
            elif attack_kind == "poisonfrs":
                attack = poisonfrs(noise_std)
            else:
                attack = AttackConfig(
                    kind=attack_kind, fake_fraction=0.01,
                    start_round=ATTACK_START, filler_count=FILLERS,
                )
            cache[key] = run_experiment(experiment_config(seed, rule_spec(rule), attack))
        return cache[key]

    return get


def target_series(result):
    return {m.round: m.target_hr_at[TARGET_HR_K] for m in result.metrics}


def peak_from_attack_start(result) -> float:
    """Peak target HR@K over the eval rounds from ATTACK_START on."""
    return max(hr for rnd, hr in target_series(result).items() if rnd >= ATTACK_START)


def target_counts(result) -> tuple[float, float, int, int]:
    """The target's contributions over rounds from ATTACK_START on.

    Returns the mean genuine and mean fake contributor counts per round, the
    number of rounds the target received contributions, and the number of
    those in which its aggregation fell back to the median (each ledger keeps
    the target's contributor ids and the ids of the items that fell back).
    """
    window = [l for l in result.ledgers if l.round >= ATTACK_START]
    target = result.target_item
    fakes = [int(np.count_nonzero(l.target_users >= result.num_genuine)) for l in window]
    genuine = [l.target_users.size - f for l, f in zip(window, fakes)]
    aggregated = sum(1 for l in window if l.target_users.size)
    fallbacks = sum(1 for l in window if np.any(l.fallbacks == target))
    return float(np.mean(genuine)), float(np.mean(fakes)), aggregated, fallbacks


# =====================================================================
# 1. Attack effectiveness (scaled Table 3a analogue)
# =====================================================================

def test_criterion_1_attack_effectiveness(runs):
    started = time.perf_counter()
    clean = runs("fedavg", "none")
    attacked = runs("fedavg", "poisonfrs")
    elapsed = time.perf_counter() - started

    clean_max = max(target_series(clean).values())
    window_peak = max(
        hr for rnd, hr in target_series(attacked).items()
        if ATTACK_START <= rnd <= ATTACK_START + 50
    )
    ok = clean_max <= 0.02 and window_peak >= 0.80 and attacked.num_fakes == 2
    runtime_ok = clean.wall_time + attacked.wall_time < 60.0
    report(
        1,
        ok and runtime_ok,
        f"no-attack max HR@5 {clean_max:.4f} (<=0.02), attack peak HR@5 "
        f"{window_peak:.3f} within 50 rounds of start (>=0.80), "
        f"{attacked.num_fakes} fakes, engine time {clean.wall_time + attacked.wall_time:.1f}s"
        f" (fixture time {elapsed:.1f}s, bound 60s)",
    )


# =====================================================================
# 2. Defense-bypass matrix (scaled Table 3b/5 analogue)
# =====================================================================

MATRIX_RULES = ["median", "trimmed_mean", "clip", "krum", "hics"]


def matrix_run(seed: int, rule: str, attack: AttackConfig):
    """One criterion-2 run; only the target HR@K is scored, so only it is evaluated."""
    config = experiment_config(seed, rule_spec(rule), attack, MATRIX_SHAPE)
    return run_experiment(replace(config, topk=(TARGET_HR_K,)))


def matrix_arm(task: tuple[int, str, bool]) -> dict:
    """One arm of a criterion-2 cell, reduced to the numbers it is scored on.

    Runs in a worker process, so it returns those numbers, not the run.
    """
    seed, rule, attacked = task
    result = matrix_run(seed, rule, poisonfrs() if attacked else AttackConfig(kind="none"))
    genuine, fake, aggregated, fallbacks = target_counts(result)
    return {
        "peak": peak_from_attack_start(result),
        "genuine": genuine,
        "fake": fake,
        "aggregated": aggregated,
        "fallbacks": fallbacks,
        "num_fakes": result.num_fakes,
    }


def test_criterion_2_defense_bypass_matrix(caplog):
    # Median fallbacks are counted from the ledgers. Logging each one (tens of
    # thousands per Krum run at this sparsity) only fills the capture. The
    # level is set before the workers fork, so they inherit it.
    caplog.set_level(logging.ERROR, logger="fedrec_arena.aggregation")
    # The 50 runs are independent and each is deterministic, so they are
    # spread over (at most two) worker processes.
    tasks = [
        (seed, rule, attacked)
        for seed in MATRIX_SEEDS for rule in MATRIX_RULES for attacked in (False, True)
    ]
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        arms = dict(zip(tasks, pool.map(matrix_arm, tasks)))

    per_seed = {seed: 0 for seed in MATRIX_SEEDS}
    details = []
    broken = []
    for seed in MATRIX_SEEDS:
        for rule in MATRIX_RULES:
            cell = f"seed {seed} {rule}"
            clean, attacked = arms[seed, rule, False], arms[seed, rule, True]
            per_seed[seed] += attacked["peak"] >= 0.60 and clean["peak"] <= 0.02
            if not MIN_GENUINE_FOR_KRUM <= clean["genuine"] <= attacked["num_fakes"]:
                broken.append(
                    f"{cell}: premise broken, the clean target gets {clean['genuine']:.2f}"
                    f" genuine contributions per round, outside [{MIN_GENUINE_FOR_KRUM},"
                    f" {attacked['num_fakes']}] (the fake count), so this shape cannot"
                    " test the bypass"
                )
            if attacked["aggregated"] - attacked["fallbacks"] < 1:
                broken.append(
                    f"{cell}: {rule} never aggregated the target in an attacked round"
                    f" ({attacked['fallbacks']}/{attacked['aggregated']} median fallbacks)"
                )
            details.append(
                f"{cell}: attack {attacked['peak']:.2f} clean {clean['peak']:.3f}"
                f" target genuine {attacked['genuine']:.2f} (clean {clean['genuine']:.2f})"
                f" fake {attacked['fake']:.2f}"
                f" fallback {attacked['fallbacks']}/{attacked['aggregated']}"
            )
    every_seed_ok = all(count >= 4 for count in per_seed.values())
    majority_perfect = sum(1 for count in per_seed.values() if count == 5) >= 3
    ok = every_seed_ok and majority_perfect and not broken
    shape = "{users} users x {items} items x {interactions_per_user}/user".format(**MATRIX_SHAPE)
    report(
        2,
        ok,
        "; ".join(broken + [
            f"rules passed per seed {per_seed} (need >=4 each and 5/5 on >=3 seeds)"
            f" at {shape}, both arms scored on eval rounds >= {ATTACK_START}"
        ] + details),
    )


# =====================================================================
# 3. Baseline gap (Table 3 Random/Popular/Bandwagon columns)
# =====================================================================

def test_criterion_3_baseline_gap(runs):
    crafted_final = target_series(runs("fedavg", "poisonfrs"))[ROUNDS]
    gaps = {}
    ok = True
    for kind in ("random", "popular", "bandwagon"):
        baseline_final = target_series(runs("fedavg", kind))[ROUNDS]
        gaps[kind] = baseline_final
        ok = ok and baseline_final <= crafted_final / 2
    report(
        3,
        ok,
        f"final HR@5 crafted {crafted_final:.3f} vs baselines "
        + ", ".join(f"{k} {v:.3f}" for k, v in gaps.items())
        + " (each must be at most half of crafted)",
    )


# =====================================================================
# 4. Noise camouflage (Table 4 analogue)
# =====================================================================

def test_criterion_4_noise_camouflage(runs):
    clean_final = target_series(runs("fedavg", "poisonfrs"))[ROUNDS]
    noisy_final = target_series(runs("fedavg", "poisonfrs", noise_std=1.0))[ROUNDS]
    delta = abs(clean_final - noisy_final)
    report(
        4,
        delta <= 0.10,
        f"final HR@5 without noise {clean_final:.3f}, with unit noise {noisy_final:.3f}, "
        f"|delta| {delta:.3f} (<=0.10)",
    )


# =====================================================================
# 5. Aggregator oracle suite
# =====================================================================

def _median_oracle(vectors):
    stacked = np.stack(vectors)
    return np.stack([np.array(sorted(stacked[:, c]))[(len(vectors) - 1) // 2]
                     for c in range(stacked.shape[1])])


def _trimmed_oracle(vectors, beta):
    stacked = np.stack(vectors)
    out = []
    for c in range(stacked.shape[1]):
        vals = sorted(stacked[:, c])
        kept = vals[beta: len(vals) - beta] if beta else vals
        out.append(sum(kept) / len(kept))
    return np.array(out)


def _krum_oracle_index(vectors, m):
    n = len(vectors)
    scores = []
    for i in range(n):
        dists = sorted(float(np.sum((vectors[i] - vectors[j]) ** 2))
                       for j in range(n) if j != i)
        scores.append(sum(dists[: n - m - 2]) / (n - m - 2))
    return int(np.argmin(scores))


def test_criterion_5_aggregator_oracle_suite():
    rng = np.random.default_rng(1234)
    started = time.perf_counter()
    cases = 0
    fedavg, median = AggregatorSpec(rule="fedavg"), AggregatorSpec(rule="median")
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        d = int(rng.integers(1, 5))
        vectors = [rng.normal(0, rng.uniform(0.1, 5.0), size=d) for _ in range(n)]
        assert np.array_equal(aggregate_rows(median, vectors)[0], _median_oracle(vectors))
        beta = int(rng.integers(0, 5))
        if 2 * beta < n:
            trimmed, _ = aggregate_rows(AggregatorSpec(rule="trimmed_mean", trim_beta=beta), vectors)
            assert trimmed == pytest.approx(_trimmed_oracle(vectors, beta), rel=1e-12, abs=1e-12)
        m = int(rng.integers(0, 4))
        if n - m - 2 >= 1:
            expected = vectors[_krum_oracle_index(vectors, m)]
            krum, _ = aggregate_rows(AggregatorSpec(rule="krum", krum_m=m), vectors)
            assert np.array_equal(krum, expected)
        clipped_parts = [
            v * min(1.0, 3.0 / np.linalg.norm(v)) if np.linalg.norm(v) > 0 else v
            for v in vectors
        ]
        for part in clipped_parts:
            assert np.linalg.norm(part) <= 3.0 + 1e-9
        clipped, _ = aggregate_rows(AggregatorSpec(rule="clip", clip_bound=3.0), vectors)
        expected, _ = aggregate_rows(fedavg, clipped_parts)
        assert clipped == pytest.approx(expected, rel=1e-12, abs=1e-12)
        untrimmed, _ = aggregate_rows(AggregatorSpec(rule="trimmed_mean", trim_beta=0), vectors)
        assert np.max(np.abs(untrimmed - aggregate_rows(fedavg, vectors)[0])) <= 1e-12
        z = int(rng.integers(1, d + 1))
        out, _ = aggregate_rows(AggregatorSpec(rule="hics", hics_z=z), vectors, rng.normal(size=d))
        assert np.count_nonzero(out) <= z
        cases += 1
    elapsed = time.perf_counter() - started
    report(5, elapsed < 5.0, f"{cases} random cases matched all oracles in {elapsed:.2f}s (<5s)")


# =====================================================================
# 6. Gradient correctness
# =====================================================================

def test_criterion_6_gradient_finite_differences():
    rng = np.random.default_rng(4321)
    eps = 1e-5
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        n_items = int(rng.integers(2, 8))
        matrix = rng.normal(0, 0.8, size=(n_items, d))
        u = rng.normal(0, 0.8, size=d)
        pairs = []
        for _ in range(int(rng.integers(1, 6))):
            p, n = rng.choice(n_items, size=2, replace=False)
            pairs.append((int(p), int(n)))
        lr = 0.05
        pos, neg = np.array(pairs).T
        owner = np.zeros(len(pairs), dtype=np.int64)
        items, _, scale, _ = train_step(u[None, :], matrix, owner, pos, neg, lr)
        update = {int(i): s * u for i, s in zip(items, scale)}
        for item in {i for pair in pairs for i in pair}:
            fd = np.zeros(d)
            for c in range(d):
                for sign in (+1, -1):
                    bumped = matrix.copy()
                    bumped[item, c] += sign * eps
                    fd[c] += sign * bpr_loss(u, ItemEmbeddings(1, bumped), pairs)
            expected = -lr * fd / (2 * eps)
            got = update.get(item, np.zeros(d))
            rel = np.max(np.abs(got - expected)) / max(np.max(np.abs(expected)), 1e-8)
            worst = max(worst, rel)
    report(6, worst < 1e-4, f"200 instances, max relative error {worst:.2e} (<1e-4)")


# =====================================================================
# 7. Exact-capture identity
# =====================================================================

def test_criterion_7_exact_capture():
    rng = np.random.default_rng(55)
    emb = ItemEmbeddings(round=ATTACK_START, matrix=rng.normal(size=(100, 32)))
    runtime = AttackRuntime(poisonfrs(), num_genuine=200, target_item=4)
    runtime.observe_broadcast(emb)
    no_users = UserTable.build(np.empty((0, 32)), 100, [], [], [])
    footprints = np.zeros((200 + runtime.num_fakes, 100), dtype=bool)
    run = SimpleNamespace(
        embeddings=emb, users=no_users, attack=runtime, spec=AggregatorSpec(rule="fedavg"),
        streams=SeedStreams(0), config=ExperimentConfig(learning_rate=0.05, participation=1.0),
        bank=np.zeros_like(emb.matrix), footprints=footprints,
    )
    ledger = run_round(run)
    after = run.embeddings
    err = np.max(np.abs(after.matrix[4] - runtime.scaled_target))
    contributors = ledger.target_users.size
    report(
        7,
        err < 1e-12 and contributors == 2,
        f"all-fake round ({contributors} fakes) landed the target within {err:.2e} (<1e-12)",
    )


# =====================================================================
# 8. Determinism across processes
# =====================================================================

def cli_process(argv: list[str]) -> None:
    """Run the CLI in a worker process and exit with its code."""
    sys.exit(cli_main(argv))


def test_criterion_8_process_determinism(tmp_path):
    document = {
        "dataset": {"users": 200, "items": 100, "latent_dim": 8,
                    "interactions_per_user": 20, "popularity_skew": 1.0},
        "model": {"dim": 32, "learning_rate": 0.05},
        "federation": {"rounds": ROUNDS},
        "aggregator": {"rule": "fedavg"},
        "attack": {"kind": "poisonfrs", "fake_fraction": 0.01,
                   "start_round": ATTACK_START, "filler_count": FILLERS},
        "eval": {"every": 10, "topk": [5, 10]},
        "seed": BASE_SEED,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    outs = [tmp_path / "first", tmp_path / "second"]
    # each run starts from a fresh interpreter, so nothing carries over
    context = multiprocessing.get_context("spawn")
    workers = [
        context.Process(target=cli_process, args=(["run", "--config", str(config), "--out", str(out)],))
        for out in outs
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=600)
    assert [worker.exitcode for worker in workers] == [0, 0]
    same = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    report(8, same, "metrics.csv byte-identical from two worker processes")


# Runs the CLI on argv[1] into argv[2], and saves the run's final item and user
# embeddings there too, with the process's OS thread count once numpy (and so
# OpenBLAS, with its thread pool) is loaded.
BLAS_WORKER = """
import sys
from pathlib import Path

import numpy as np

from fedrec_arena import federation
from fedrec_arena.cli import main

out = Path(sys.argv[2])
threads = [l.split()[1] for l in open("/proc/self/status") if l.startswith("Threads:")]
run = federation.Experiment.run


def run_and_save(self):
    result = run(self)
    np.save(out / "items.npy", result.final_embeddings.matrix)
    np.save(out / "users.npy", self.users.embeddings)
    (out / "threads.txt").write_text(threads[0])
    return result


federation.Experiment.run = run_and_save
sys.exit(main(["run", "--config", sys.argv[1], "--out", str(out)]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_determinism_across_blas_thread_counts(tmp_path):
    """One run in two fresh interpreters, at one and at two OpenBLAS threads, gives
    the same bytes: the synthesis, Krum's Gram and the eval's score product all
    go through BLAS."""
    document = {
        "dataset": {"latent_dim": 8, "popularity_skew": 1.0, **DESK_SHAPE},
        "model": {"dim": 32, "learning_rate": 0.05},
        "federation": {"rounds": 30},
        "aggregator": {"rule": "krum"},
        "attack": {"kind": "poisonfrs", "fake_fraction": 0.01, "start_round": 10,
                   "filler_count": FILLERS},
        "eval": {"every": 10, "topk": [5, 10]},
        "seed": BASE_SEED,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", BLAS_WORKER, str(config), str(out)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        outs.append(out)
    counts = [int((out / "threads.txt").read_text()) for out in outs]
    assert counts[0] < counts[1], f"OS threads {counts}: the BLAS setting did not take"
    for name in ("metrics.csv", "items.npy", "users.npy"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# =====================================================================
# 9. Footprint bound (Figure 2 analogue)
# =====================================================================

def test_criterion_9_fake_footprint_bound(runs):
    result = runs("fedavg", "poisonfrs")
    fake_ids = range(result.num_genuine, result.num_genuine + result.num_fakes)
    per_fake = {f: int(np.count_nonzero(result.footprints[f])) for f in fake_ids}
    bound = 4 * (FILLERS + 1)
    # every fake touches the target, and at most the bound
    touched_target = result.footprints[fake_ids, result.target_item].all()
    ok = touched_target and all(c <= bound for c in per_fake.values())
    report(9, ok, f"per-fake distinct updated items {per_fake} (bound {bound})")


# =====================================================================
# 10. Utility sanity
# =====================================================================

def test_criterion_10_utility_sanity(runs):
    result = runs("fedavg", "none")
    final_hr10 = result.metrics[-1].hr_at[10]
    mean_train = float(np.mean([len(p.train_items) for p in result.profiles]))
    random_guess = 10.0 / (100.0 - mean_train)
    ok = final_hr10 >= 3.0 * random_guess
    report(
        10,
        ok,
        f"final test HR@10 {final_hr10:.3f} vs 3x random guessing "
        f"{3 * random_guess:.3f} (mean train size {mean_train:.1f})",
    )
