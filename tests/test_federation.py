import logging

import numpy as np
import pytest

from fedrec_arena.aggregation import AggregatorSpec
from fedrec_arena.attack import AttackConfig, AttackRuntime
from fedrec_arena.data import sample_pairs
from fedrec_arena.federation import (
    DatasetConfig,
    ExperimentConfig,
    SeedStreams,
    build_profiles,
    default_target_item,
    init_embeddings,
    leave_one_out_split,
    resolve_dataset,
    run_experiment,
    run_round,
)
from fedrec_arena.model import ItemEmbeddings, UserProfile, local_train


def small_config(**overrides):
    params = dict(
        dataset=DatasetConfig(kind="synthetic", users=40, items=30, latent_dim=4,
                              interactions_per_user=6, popularity_skew=1.0),
        dim=8,
        learning_rate=0.05,
        rounds=12,
        eval_every=4,
        topk=(5,),
        seed=3,
        aggregator=AggregatorSpec(rule="fedavg"),
        attack=AttackConfig(kind="none"),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def no_attack_runtime():
    return AttackRuntime(AttackConfig(kind="none"), num_genuine=0, target_item=0)


# ------------------------------------------------------------- run_round

def test_round_with_zero_users_leaves_embeddings_unchanged():
    streams = SeedStreams(0)
    emb = ItemEmbeddings(round=1, matrix=np.random.default_rng(0).normal(size=(5, 3)))
    before = emb.matrix.copy()
    after, ledger = run_round(emb, [], no_attack_runtime(), AggregatorSpec(rule="fedavg"), streams)
    assert np.array_equal(after.matrix, before)
    assert after.round == 2
    assert ledger.items.size == 0


def test_single_user_fedavg_applies_exact_update():
    streams = SeedStreams(1)
    matrix = np.random.default_rng(5).normal(size=(10, 4))
    emb = ItemEmbeddings(round=1, matrix=matrix.copy())
    profile = UserProfile(0, np.random.default_rng(6).normal(size=4), {0, 1}, [0, 1])

    shadow = UserProfile(0, profile.user_embedding.copy(), {0, 1}, [0, 1])
    pairs = sample_pairs(shadow, 10, streams.pairs(1, 0))
    expected = dict(zip(*local_train(shadow, ItemEmbeddings(1, matrix.copy()), pairs, 0.05)))

    after, ledger = run_round(emb, [profile], no_attack_runtime(), AggregatorSpec(rule="fedavg"), streams)
    for item, delta in expected.items():
        assert after.matrix[item] == pytest.approx(matrix[item] + delta, rel=1e-12)
    untouched = [i for i in range(10) if i not in expected]
    assert np.array_equal(after.matrix[untouched], matrix[untouched])
    assert tuple(ledger.items[ledger.users == 0]) == tuple(sorted(expected))


def test_fakes_only_round_captures_target_exactly():
    streams = SeedStreams(2)
    rng = np.random.default_rng(7)
    emb = ItemEmbeddings(round=4, matrix=rng.normal(size=(12, 5)))
    runtime = AttackRuntime(
        AttackConfig(kind="poisonfrs", fake_fraction=1.0, start_round=4, filler_count=3),
        num_genuine=3,
        target_item=2,
    )
    runtime.observe_broadcast(emb)
    after, _ = run_round(emb, [], runtime, AggregatorSpec(rule="fedavg"), streams)
    assert np.max(np.abs(after.matrix[2] - runtime.state.scaled_target)) < 1e-12


def test_untouched_items_carry_over_bit_identical():
    config = small_config()
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    leave_one_out_split(dataset)
    profiles = build_profiles(dataset, config.dim, streams)[:5]
    emb = init_embeddings(dataset.num_items, config.dim, streams)
    before = emb.matrix.copy()
    after, ledger = run_round(emb, profiles, no_attack_runtime(), config.aggregator, streams)
    touched = set(ledger.items.tolist())
    for item in range(dataset.num_items):
        if item not in touched:
            assert np.array_equal(after.matrix[item], before[item])
        else:
            assert not np.array_equal(after.matrix[item], before[item])


def test_participation_accounting_no_attack():
    config = small_config()
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    leave_one_out_split(dataset)
    profiles = build_profiles(dataset, config.dim, streams)
    emb = init_embeddings(dataset.num_items, config.dim, streams)
    _, ledger = run_round(emb, profiles, no_attack_runtime(), config.aggregator, streams)
    total_contributions = ledger.items.size
    per_user_items = sum(
        len(set(ledger.items[ledger.users == user].tolist())) for user in set(ledger.users.tolist())
    )
    assert total_contributions == per_user_items


def _round_inputs(config):
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    leave_one_out_split(dataset)
    profiles = build_profiles(dataset, config.dim, streams)
    return profiles, init_embeddings(dataset.num_items, config.dim, streams), streams


@pytest.mark.parametrize(
    "spec",
    [AggregatorSpec(rule="krum", krum_m=1), AggregatorSpec(rule="trimmed_mean", trim_beta=2)],
    ids=["krum", "trimmed_mean"],
)
def test_round_orders_contributions_by_contributor_whatever_the_upload_order(spec):
    config = small_config()
    outcomes = []
    for reverse in (False, True):
        profiles, emb, streams = _round_inputs(config)
        if reverse:
            profiles = profiles[::-1]
        after, ledger = run_round(emb, profiles, no_attack_runtime(), spec, streams)
        outcomes.append(after.matrix)
        assert not ledger.warnings
        for item in np.unique(ledger.items):
            contributors = ledger.users[ledger.items == item]
            assert np.all(np.diff(contributors) > 0), f"item {item}: {contributors}"
    assert np.array_equal(outcomes[0], outcomes[1])


def test_round_logs_one_fallback_record(caplog):
    config = small_config()
    profiles, emb, streams = _round_inputs(config)
    spec = AggregatorSpec(rule="krum", krum_m=1000)  # degenerate on every item
    with caplog.at_level(logging.WARNING, logger="fedrec_arena.aggregation"):
        _, ledger = run_round(emb, profiles, no_attack_runtime(), spec, streams)
    items = np.unique(ledger.items)
    assert len(items) > 1
    assert len(ledger.warnings) == len(items)
    records = [r for r in caplog.records if r.name == "fedrec_arena.aggregation"]
    assert len(records) == 1
    assert f"krum degenerate on {len(items)} items" in records[0].getMessage()


# ------------------------------------------------------------- experiment

def test_experiment_deterministic_repeat():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert [m.target_hr_at for m in a.metrics] == [m.target_hr_at for m in b.metrics]
    assert [m.hr_at for m in a.metrics] == [m.hr_at for m in b.metrics]
    assert np.array_equal(a.final_embeddings.matrix, b.final_embeddings.matrix)


def test_experiment_thread_count_does_not_change_results():
    serial = run_experiment(small_config(threads=1))
    threaded = run_experiment(small_config(threads=8))
    assert np.array_equal(serial.final_embeddings.matrix, threaded.final_embeddings.matrix)
    assert [m.hr_at for m in serial.metrics] == [m.hr_at for m in threaded.metrics]
    assert [m.footprint for m in serial.metrics] == [m.footprint for m in threaded.metrics]


def test_no_fake_contributions_before_start_round():
    config = small_config(
        rounds=10,
        attack=AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=6, filler_count=2),
    )
    result = run_experiment(config)
    fake_ids = set(range(result.num_genuine, result.num_genuine + result.num_fakes))
    assert result.num_fakes == 4
    for ledger in result.ledgers:
        touched_fakes = fake_ids & set(ledger.users.tolist())
        if ledger.round < 6:
            assert not touched_fakes
        else:
            assert touched_fakes == fake_ids


def test_baseline_fakes_join_training_at_start_round():
    config = small_config(
        rounds=8,
        attack=AttackConfig(kind="random", fake_fraction=0.1, start_round=5, filler_count=3),
    )
    result = run_experiment(config)
    fake_ids = set(range(result.num_genuine, result.num_genuine + result.num_fakes))
    for ledger in result.ledgers:
        seen = fake_ids & set(ledger.users.tolist())
        assert seen == (fake_ids if ledger.round >= 5 else set())


def test_single_round_snapshot_equals_initial_embeddings():
    streams = SeedStreams(11)
    emb = init_embeddings(6, 4, streams)
    initial = emb.matrix.copy()
    runtime = AttackRuntime(
        AttackConfig(kind="poisonfrs", fake_fraction=0.5, start_round=1, filler_count=1),
        num_genuine=2,
        target_item=0,
    )
    emb.round = 1
    runtime.observe_broadcast(emb)
    assert np.array_equal(runtime.state.snapshot, initial)


def test_default_target_is_least_interacted():
    config = small_config()
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    leave_one_out_split(dataset)
    counts = dataset.train_counts()
    target = default_target_item(dataset)
    assert counts[target] == counts.min()
    assert all(counts[i] > counts[target] for i in range(target))


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError):
        small_config(rounds=0).validate()
    with pytest.raises(ValueError):
        small_config(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        small_config(
            rounds=5,
            attack=AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=9),
        ).validate()
    with pytest.raises(ValueError):
        small_config(dim=4, aggregator=AggregatorSpec(rule="hics", hics_z=8)).validate()
    with pytest.raises(ValueError):
        small_config(aggregator=AggregatorSpec(rule="hics", hics_z=0)).validate()
    with pytest.raises(ValueError):
        small_config(topk=(0, 5)).validate()
    with pytest.raises(ValueError):
        small_config(dim=0).validate()
    with pytest.raises(ValueError):
        small_config(dump_round=99).validate()
    with pytest.raises(ValueError):
        small_config(dump_round=0).validate()
    # start round is irrelevant without an active attack
    small_config(rounds=5).validate()
    # hics_z is only bounded when hics aggregates
    small_config(dim=4, aggregator=AggregatorSpec(rule="median", hics_z=8)).validate()


def test_metric_cadence_includes_final_round():
    result = run_experiment(small_config(rounds=10, eval_every=4))
    assert [m.round for m in result.metrics] == [4, 8, 10]


def test_metrics_footprint_matches_ledger_replay():
    from fedrec_arena.evaluation import footprint_stats

    result = run_experiment(small_config(rounds=8, eval_every=8))
    touched = {}
    for l in result.ledgers:
        for user, item in zip(l.users.tolist(), l.items.tolist()):
            touched.setdefault(user, set()).add(item)
    counts = {u: len(items) for u, items in touched.items()}
    replayed = footprint_stats(counts, range(result.num_genuine))
    assert result.metrics[-1].footprint == replayed


def test_partial_participation_limits_contributors():
    config = small_config(participation=0.25, rounds=3)
    result = run_experiment(config)
    for ledger in result.ledgers:
        assert len(np.unique(ledger.users)) <= max(1, round(0.25 * 40))
    again = run_experiment(small_config(participation=0.25, rounds=3))
    assert [np.unique(l.users).tolist() for l in result.ledgers] == [
        np.unique(l.users).tolist() for l in again.ledgers
    ]


# ------------------------------------------------------------- streams

def test_seed_streams_reproducible_and_disjoint():
    a = SeedStreams(5)
    b = SeedStreams(5)
    assert a.pairs(3, 7).integers(0, 1000, 5).tolist() == b.pairs(3, 7).integers(0, 1000, 5).tolist()
    assert a.pairs(3, 7).integers(0, 1000, 5).tolist() != a.pairs(3, 8).integers(0, 1000, 5).tolist()
    assert a.pairs(3, 7).integers(0, 1000, 5).tolist() != a.fake_noise(3, 7).integers(0, 1000, 5).tolist()
