import inspect

import numpy as np
import pytest

from fedrec_arena.aggregation import AggregatorSpec, aggregate_rows
from fedrec_arena.attack import (
    AttackConfig,
    AttackRuntime,
    build_target,
    estimate_popular,
    make_baseline_fakes,
    select_fillers,
)
from fedrec_arena.data import leave_one_out_split
from fedrec_arena.federation import (
    DatasetConfig,
    ExperimentConfig,
    SeedStreams,
    build_user_table,
    run_experiment,
)
from fedrec_arena.model import ItemEmbeddings

from reference import dataset


# ------------------------------------------------------------- popularity

def test_estimate_popular_arithmetic_example():
    snapshot = np.array([[1.0, 0.0], [0.0, 1.0], [-2.0, -2.0]])
    # centroid (-1/3, -1/3); alignments (-1/3, -1/3, 4/3)
    assert estimate_popular(snapshot, 2) == [0, 1]


def test_estimate_popular_k_equals_m():
    snapshot = np.random.default_rng(0).normal(size=(6, 3))
    assert estimate_popular(snapshot, 6) == list(range(6))


def test_estimate_popular_identical_vectors_lowest_ids():
    snapshot = np.ones((5, 2))
    assert estimate_popular(snapshot, 3) == [0, 1, 2]


def test_estimate_popular_depends_only_on_snapshot():
    snapshot = np.random.default_rng(1).normal(size=(20, 4))
    assert estimate_popular(snapshot, 7) == estimate_popular(snapshot.copy(), 7)


# ------------------------------------------------------------- target

def test_build_target_arithmetic():
    snapshot = np.array([[1.0, 0.0], [0.0, 1.0]])
    base, scaled = build_target(snapshot, [0, 1], 10.0)
    assert base == pytest.approx([0.5, 0.5])
    assert scaled == pytest.approx([5.0, 5.0])


def test_build_target_unit_scale_identity():
    snapshot = np.random.default_rng(2).normal(size=(4, 3))
    base, scaled = build_target(snapshot, [1, 3], 1.0)
    assert np.array_equal(base, scaled)


def test_build_target_scale_linearity_exact():
    snapshot = np.random.default_rng(3).normal(size=(6, 4))
    _, at_one = build_target(snapshot, [0, 2, 5], 1.0)
    _, at_seven = build_target(snapshot, [0, 2, 5], 7.0)
    assert np.array_equal(at_seven, 7.0 * at_one)


def test_build_target_minimizes_mean_squared_distance():
    rng = np.random.default_rng(4)
    snapshot = rng.normal(size=(10, 5))
    chosen = [1, 4, 6, 9]
    base, _ = build_target(snapshot, chosen, 2.0)

    def objective(x):
        return np.mean([np.sum((x - snapshot[i]) ** 2) for i in chosen])

    at_minimum = objective(base)
    for _ in range(100):
        probe = base + rng.normal(0, 0.1, size=5)
        assert objective(probe) >= at_minimum - 1e-12


# ------------------------------------------------------------- fillers

def test_select_fillers_empty_for_zero_f():
    snap = np.zeros((4, 2))
    assert select_fillers(snap, snap, 0, target_item=0) == []


def test_select_fillers_single_deviation():
    snap = np.zeros((6, 2))
    current = snap.copy()
    current[4] += 1.0
    assert select_fillers(snap, current, 1, target_item=0) == [4]


def test_select_fillers_excludes_target():
    snap = np.zeros((5, 2))
    current = snap.copy()
    current[2] += 5.0  # target, largest deviation
    current[3] += 1.0
    assert select_fillers(snap, current, 1, target_item=2) == [3]


# ------------------------------------------------------------- crafting

def make_runtime(matrix, target=0, scale=10.0, k=2, f=2, noise=0.0, start=1, fakes=1):
    """A crafted-attack runtime with ``fakes`` fakes that saw ``matrix`` broadcast at ``start``."""
    config = AttackConfig(
        kind="poisonfrs", fake_fraction=1.0, start_round=start,
        filler_count=f, scale=scale, popular_count=k, noise_std=noise,
    )
    runtime = AttackRuntime(config, num_genuine=fakes, target_item=target)
    runtime.observe_broadcast(ItemEmbeddings(round=start, matrix=matrix.copy()))
    return runtime


def test_craft_average_of_fakes_lands_exactly_on_target():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(8, 4))
    runtime = make_runtime(matrix, target=3, f=2, fakes=4)
    current = ItemEmbeddings(round=6, matrix=rng.normal(size=(8, 4)))
    _, items, deltas = runtime.crafted_updates(current, SeedStreams(0))
    agg, _ = aggregate_rows(AggregatorSpec(rule="fedavg"), deltas[items == 3])
    landed = current.matrix[3] + agg
    assert np.max(np.abs(landed - runtime.scaled_target)) < 1e-12


def test_craft_zero_filler_entry_omitted():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(6, 3))
    runtime = make_runtime(matrix, target=0, f=2)
    current = ItemEmbeddings(round=2, matrix=matrix.copy())
    current.matrix[4] += 2.0  # only item 4 drifted; the second filler's delta is zero
    _, items, deltas = runtime.crafted_updates(current, SeedStreams(0))
    update = dict(zip(items, deltas))
    assert set(update) == {0, 4}
    assert update[4] == pytest.approx(current.matrix[4] - runtime.snapshot[4])


def test_craft_footprint_at_most_one_plus_f():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(20, 4))
    runtime = make_runtime(matrix, target=5, f=6)
    current = ItemEmbeddings(round=9, matrix=rng.normal(size=(20, 4)))
    _, items, _ = runtime.crafted_updates(current, SeedStreams(1))
    assert len(set(items.tolist())) == items.size <= 1 + 6


def test_craft_before_start_round_rejected():
    matrix = np.zeros((3, 2))
    runtime = make_runtime(matrix, start=5)
    before = ItemEmbeddings(round=4, matrix=matrix)
    fake_ids, items, deltas = runtime.crafted_updates(before, SeedStreams(0))
    assert fake_ids.size == items.size == 0 and deltas.shape == (0, 2)


def test_craft_noise_is_mean_zero_monte_carlo():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(5, 3))
    draws = 10_000
    clean_runtime = make_runtime(matrix, target=1, f=1, noise=0.0)
    noisy_runtime = make_runtime(matrix, target=1, f=1, noise=1.0, fakes=draws)
    current = ItemEmbeddings(round=3, matrix=rng.normal(size=(5, 3)))
    streams = SeedStreams(1000)
    _, clean_items, clean = clean_runtime.crafted_updates(current, streams)
    _, items, deltas = noisy_runtime.crafted_updates(current, streams)
    items = items.reshape(draws, clean_items.size)
    noisy = deltas.reshape(draws, *clean.shape)
    assert (items == clean_items).all()
    # different fakes send different updates
    assert any(not np.array_equal(noisy[i], noisy[i + 1]) for i in range(draws - 1))
    empirical_mean = noisy.mean(axis=0)
    # std of the mean is 1/sqrt(draws); allow 3 sigma
    assert np.max(np.abs(empirical_mean - clean)) <= 3.0 / np.sqrt(draws)


def test_crafted_block_runs_fake_by_fake_with_each_fakes_own_noise():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(10, 3))
    clean_runtime = make_runtime(matrix, target=2, f=3, fakes=3)
    runtime = make_runtime(matrix, target=2, f=3, noise=0.5, fakes=3)
    current = ItemEmbeddings(round=4, matrix=rng.normal(size=(10, 3)))
    streams = SeedStreams(7)
    _, shared_items, shared = clean_runtime.crafted_updates(current, streams)
    fakes, items, deltas = runtime.crafted_updates(current, streams)
    n = 1 + 3
    fillers = select_fillers(runtime.snapshot, current.matrix, 3, target_item=2)
    assert fakes.dtype == np.int32
    assert fakes.tolist() == [fake for fake in runtime.fake_ids for _ in range(n)]
    for k, fake in enumerate(runtime.fake_ids):
        rows = slice(k * n, (k + 1) * n)
        assert items[rows].tolist() == [2, *fillers]  # the target, then fillers by drift
        assert np.array_equal(shared[rows], shared[:n])
        noise = streams.fake_noise(4, fake).normal(0.0, 0.5, size=(n, 3))
        assert np.array_equal(deltas[rows], shared[:n] + noise)


# ------------------------------------------------------------- baselines

def toy_split():
    # item 0 in three users' train sets, item 1 in two, item 2 in one
    interactions = [
        (0, 0, 1), (0, 1, 2), (0, 3, 3),
        (1, 0, 1), (1, 1, 2), (1, 4, 3),
        (2, 0, 1), (2, 2, 2), (2, 5, 3),
    ]
    return leave_one_out_split(dataset(3, 6, interactions))


def toy_counts():
    return np.bincount(toy_split()[1], minlength=6)


def test_popular_fakes_use_highest_train_counts():
    counts = toy_counts()
    rng = np.random.default_rng(0)
    _, fakes = make_baseline_fakes("popular", counts, 2, target_item=5, rng=rng, dim=4)
    assert fakes[0].tolist() == [5, 0, 1]
    assert set(fakes[0].tolist()) == {5, 0, 1}


def test_random_fakes_reproducible():
    counts = toy_counts()
    _, a = make_baseline_fakes("random", counts, 3, 5, np.random.default_rng(9), dim=4, count=2)
    _, b = make_baseline_fakes("random", counts, 3, 5, np.random.default_rng(9), dim=4, count=2)
    assert np.array_equal(a, b)
    for fake in a:
        assert 5 in fake
        assert len(fake) == 4


def test_bandwagon_ten_percent_popular():
    rng = np.random.default_rng(10)
    interactions = [(u, i, 1) for u in range(30) for i in rng.choice(40, 12, replace=False)]
    rows = [(u, int(i), k) for k, (u, i, _) in enumerate(interactions)]
    _, train, _ = leave_one_out_split(dataset(30, 40, rows))
    counts = np.bincount(train, minlength=40)
    top_item = int(np.lexsort((np.arange(40), -counts))[0])
    target = 39 if top_item != 39 else 38
    _, fakes = make_baseline_fakes("bandwagon", counts, 10, target, np.random.default_rng(3), dim=4)
    fillers = fakes[0][1:]
    assert len(fillers) == 10
    assert fillers[0] == top_item  # ceil(0.1 * 10) = 1 popular slot
    assert len(set(fillers.tolist())) == 10


def test_fake_ids_start_after_genuine():
    counts = toy_counts()
    rng = np.random.default_rng(0)
    embeddings, items = make_baseline_fakes("random", counts, 2, 5, rng, dim=4, count=3)
    users = build_user_table(toy_split(), 6, 4, SeedStreams(0), embeddings, items)
    # only the fakes train on the target: user 2 holds it out
    fakes = [p for p in users.profiles(len(users)) if 5 in p.train_items]
    assert [f.user_id for f in fakes] == [3, 4, 5]


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("scale", 0.0, "lambda"), ("scale", -1.0, "lambda"), ("scale", float("nan"), "lambda"),
        ("noise_std", -0.5, "noise_std"), ("noise_std", float("nan"), "noise_std"),
        ("fake_fraction", float("nan"), "fake_fraction"), ("fake_fraction", float("inf"), "fake_fraction"),
        ("scale", float("inf"), "lambda"), ("noise_std", float("inf"), "noise_std"),
    ],
)
def test_attack_config_rejects_a_value_that_cannot_run(field, value, name):
    with pytest.raises(ValueError, match=f"attack[.]{name}"):
        AttackConfig(**{"kind": "poisonfrs", "fake_fraction": 0.1, field: value})
    AttackConfig(kind="poisonfrs", fake_fraction=0.1, scale=1e-9, noise_std=0.0)  # the bounds pass


# ------------------------------------------------------------- knowledge firewall

def test_poisonfrs_path_signature_firewall():
    """The crafted-attack code path must consume item embeddings only."""
    banned = ("dataset", "profile", "profiles", "spec", "aggregator", "train", "interactions")
    crafting = (AttackRuntime.observe_broadcast, AttackRuntime.crafted_updates)
    for fn in (estimate_popular, build_target, select_fillers, *crafting):
        for name in inspect.signature(fn).parameters:
            assert name not in banned, f"{fn.__name__} sees forbidden input {name!r}"


def test_attack_runtime_builds_state_from_broadcast_only():
    runtime = AttackRuntime(
        AttackConfig(kind="poisonfrs", fake_fraction=0.5, start_round=2),
        num_genuine=4,
        target_item=0,
    )
    emb = ItemEmbeddings(round=1, matrix=np.random.default_rng(0).normal(size=(5, 3)))
    runtime.observe_broadcast(emb)
    assert runtime.snapshot is None  # before the start round
    emb.round = 2
    runtime.observe_broadcast(emb)
    assert runtime.snapshot is not None
    assert np.array_equal(runtime.snapshot, emb.matrix)


# ------------------------------------------------------------- end-to-end invariants

@pytest.fixture(scope="module")
def short_attack_run():
    config = ExperimentConfig(
        dataset=DatasetConfig(kind="synthetic", users=80, items=60, latent_dim=6,
                              interactions_per_user=10, popularity_skew=1.0),
        dim=16, learning_rate=0.05, rounds=70, eval_every=10, topk=(5,),
        seed=13, aggregator=AggregatorSpec(rule="fedavg"),
        attack=AttackConfig(kind="poisonfrs", fake_fraction=0.05, start_round=30, filler_count=5),
    )
    return run_experiment(config)


def test_filler_union_stays_bounded(short_attack_run):
    result = short_attack_run
    fake_ids = range(result.num_genuine, result.num_genuine + result.num_fakes)
    for fake in fake_ids:
        touched = np.flatnonzero(result.footprints[fake])
        # every fake uploads for the target; the union of fillers over the
        # run stays within 4x the per-round count
        assert result.target_item in touched
        assert touched.size - 1 <= 4 * 5


def test_scaled_target_outscores_non_interacted_items(short_attack_run):
    # scaling the target by 10 pushes it above every non-interacted item's
    # score for nearly all users already aligned with the base target
    result = short_attack_run
    matrix = result.final_embeddings.matrix
    popular = estimate_popular(matrix, 5)
    base, scaled = build_target(matrix, popular, 10.0)
    aligned = 0
    dominated = 0
    for profile in result.profiles:
        u = profile.user_embedding
        if float(u @ base) <= 0:
            continue
        aligned += 1
        candidates = [i for i in range(matrix.shape[0]) if i not in profile.interacted]
        if float(u @ scaled) > max(float(matrix[i] @ u) for i in candidates):
            dominated += 1
    assert aligned > 0
    assert dominated / aligned >= 0.90
