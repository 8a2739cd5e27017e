import inspect

import numpy as np
import pytest

from fedrec_arena.aggregation import agg_fedavg
from fedrec_arena.attack import (
    AttackConfig,
    AttackRuntime,
    build_poison_state,
    build_target,
    craft_poisonfrs_update,
    estimate_popular,
    make_baseline_fakes,
    select_fillers,
)
from fedrec_arena.data import InteractionDataset, leave_one_out_split
from fedrec_arena.federation import (
    DatasetConfig,
    ExperimentConfig,
    run_experiment,
)
from fedrec_arena.aggregation import AggregatorSpec
from fedrec_arena.model import ItemEmbeddings


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

def make_state(matrix, target=0, scale=10.0, k=2, f=2, noise=0.0, start=1):
    emb = ItemEmbeddings(round=start, matrix=matrix.copy())
    config = AttackConfig(
        kind="poisonfrs", fake_fraction=0.01, start_round=start,
        filler_count=f, scale=scale, popular_count=k, noise_std=noise,
    )
    return build_poison_state(emb, config, target)


def test_craft_average_of_fakes_lands_exactly_on_target():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(8, 4))
    state = make_state(matrix, target=3, f=2)
    current = ItemEmbeddings(round=6, matrix=rng.normal(size=(8, 4)))
    updates = [
        dict(zip(*craft_poisonfrs_update(state, current, np.random.default_rng(i))))
        for i in range(4)
    ]
    agg = agg_fedavg([u[3] for u in updates])
    landed = current.matrix[3] + agg
    assert np.max(np.abs(landed - state.scaled_target)) < 1e-12


def test_craft_zero_filler_entry_omitted():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(6, 3))
    state = make_state(matrix, target=0, f=1)
    current = ItemEmbeddings(round=2, matrix=matrix.copy())
    current.matrix[4] += 2.0  # only item 4 drifted; other fillers would be zero
    update = dict(zip(*craft_poisonfrs_update(state, current, np.random.default_rng(0))))
    assert set(update) == {0, 4}
    assert update[4] == pytest.approx(current.matrix[4] - state.snapshot[4])


def test_craft_footprint_at_most_one_plus_f():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(20, 4))
    state = make_state(matrix, target=5, f=6)
    current = ItemEmbeddings(round=9, matrix=rng.normal(size=(20, 4)))
    update = dict(zip(*craft_poisonfrs_update(state, current, np.random.default_rng(1))))
    assert len(update) <= 1 + 6


def test_craft_before_start_round_rejected():
    matrix = np.zeros((3, 2))
    state = make_state(matrix, start=5)
    with pytest.raises(ValueError):
        craft_poisonfrs_update(state, ItemEmbeddings(round=4, matrix=matrix), np.random.default_rng(0))


def test_craft_noise_is_mean_zero_monte_carlo():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(5, 3))
    state_clean = make_state(matrix, target=1, f=1, noise=0.0)
    state_noisy = make_state(matrix, target=1, f=1, noise=1.0)
    current = ItemEmbeddings(round=3, matrix=rng.normal(size=(5, 3)))
    clean = dict(zip(*craft_poisonfrs_update(state_clean, current, np.random.default_rng(0))))
    draws = 10_000
    total = {item: np.zeros(3) for item in clean}
    seen_distinct = False
    previous = None
    for i in range(draws):
        noisy = dict(zip(*craft_poisonfrs_update(state_noisy, current, np.random.default_rng(1000 + i))))
        assert set(noisy) == set(clean)
        for item, vec in noisy.items():
            total[item] += vec
        if previous is not None and any(
            not np.array_equal(previous[item], noisy[item]) for item in noisy
        ):
            seen_distinct = True
        previous = noisy
    assert seen_distinct  # different fakes send different updates
    for item, vec in clean.items():
        empirical_mean = total[item] / draws
        # std of the mean is 1/sqrt(draws); allow 3 sigma
        assert np.max(np.abs(empirical_mean - vec)) <= 3.0 / np.sqrt(draws)


# ------------------------------------------------------------- baselines

def toy_dataset():
    # item 0 in three users' train sets, item 1 in two, item 2 in one
    interactions = [
        (0, 0, 1), (0, 1, 2), (0, 3, 3),
        (1, 0, 1), (1, 1, 2), (1, 4, 3),
        (2, 0, 1), (2, 2, 2), (2, 5, 3),
    ]
    ds = InteractionDataset(3, 6, interactions)
    return leave_one_out_split(ds)


def test_popular_fakes_use_highest_train_counts():
    ds = toy_dataset()
    fakes = make_baseline_fakes("popular", ds, 2, target_item=5, rng=np.random.default_rng(0), dim=4)
    assert fakes[0].train_items == [5, 0, 1]
    assert fakes[0].interacted == {5, 0, 1}


def test_random_fakes_reproducible():
    ds = toy_dataset()
    a = make_baseline_fakes("random", ds, 3, 5, np.random.default_rng(9), dim=4, count=2)
    b = make_baseline_fakes("random", ds, 3, 5, np.random.default_rng(9), dim=4, count=2)
    assert [f.train_items for f in a] == [f.train_items for f in b]
    for fake in a:
        assert 5 in fake.train_items
        assert len(fake.train_items) == 4


def test_bandwagon_ten_percent_popular():
    rng = np.random.default_rng(10)
    interactions = [(u, i, 1) for u in range(30) for i in rng.choice(40, 12, replace=False)]
    ds = leave_one_out_split(InteractionDataset(30, 40, [(u, int(i), k) for k, (u, i, _) in enumerate(interactions)]))
    counts = ds.train_counts()
    top_item = int(np.lexsort((np.arange(40), -counts))[0])
    target = 39 if top_item != 39 else 38
    fakes = make_baseline_fakes("bandwagon", ds, 10, target, np.random.default_rng(3), dim=4)
    fillers = fakes[0].train_items[1:]
    assert len(fillers) == 10
    assert fillers[0] == top_item  # ceil(0.1 * 10) = 1 popular slot
    assert len(set(fillers)) == 10


def test_baseline_filler_count_must_fit_catalog():
    ds = toy_dataset()
    with pytest.raises(ValueError):
        make_baseline_fakes("random", ds, 6, 5, np.random.default_rng(0), dim=4)


def test_fake_ids_start_after_genuine():
    ds = toy_dataset()
    fakes = make_baseline_fakes("random", ds, 2, 5, np.random.default_rng(0), dim=4, count=3)
    assert [f.user_id for f in fakes] == [3, 4, 5]


# ------------------------------------------------------------- knowledge firewall

def test_poisonfrs_path_signature_firewall():
    """The crafted-attack code path must consume item embeddings only."""
    banned = ("dataset", "profile", "profiles", "spec", "aggregator", "train", "interactions")
    for fn in (estimate_popular, build_target, select_fillers, craft_poisonfrs_update, build_poison_state):
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
    assert runtime.state is None  # before the start round
    emb.round = 2
    runtime.observe_broadcast(emb)
    assert runtime.state is not None
    assert np.array_equal(runtime.state.snapshot, emb.matrix)


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
        touched = np.unique(np.concatenate([l.items[l.users == fake] for l in result.ledgers]))
        # union of fillers over the run stays within 4x the per-round count
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
