import logging
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fedrec_arena import federation
from fedrec_arena.aggregation import AggregatorSpec
from fedrec_arena.attack import AttackConfig, AttackRuntime
from fedrec_arena.data import draw_round_pairs, dump_dataset, parse_ratings
from fedrec_arena.federation import (
    DatasetConfig,
    Experiment,
    ExperimentConfig,
    SeedStreams,
    build_user_table,
    init_embeddings,
    leave_one_out_split,
    resolve_dataset,
    run_experiment,
    run_round,
)
from fedrec_arena.model import ItemEmbeddings, UserProfile, UserTable

from reference import (
    DegenerateUserError, as_dicts, local_train, sample_pairs, user_inits, user_table,
)


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


def no_attack_runtime(num_genuine=0):
    return AttackRuntime(AttackConfig(kind="none"), num_genuine=num_genuine, target_item=0)


def empty_footprints(emb, users, attack):
    """An all-False (uploader, item) matrix: a row per table row and per crafted fake."""
    uploaders = max(len(users), attack.num_genuine + attack.num_fakes)
    return np.zeros((uploaders, emb.num_items), dtype=bool)


def step(emb, users, attack, spec, streams, participation=1.0, footprints=None):
    """run_round at the suite's learning rate, from an empty HiCS bank, marking
    ``footprints`` (a fresh empty matrix when not given)."""
    bank = np.zeros_like(emb.matrix)
    if footprints is None:
        footprints = empty_footprints(emb, users, attack)
    return run_round(emb, users, attack, spec, streams, 0.05, participation, bank, footprints)


def spy_uploads(monkeypatch):
    """Record every round's upload index as (contributor ids, items), in table
    order, from spies on the pair draw, the crafted uploads and the
    aggregation: the drawn participant ids, then the crafted rows' fake ids,
    indexed by the table's ``who``."""
    uploads, ids = [], []
    real_draw, real_aggregate = federation.draw_round_pairs, federation.aggregate_round
    real_craft = AttackRuntime.crafted_updates

    def spy_draw(table, rows, rng):
        ids[:] = [rows]
        return real_draw(table, rows, rng)

    def spy_craft(runtime, embeddings, streams):
        crafted = real_craft(runtime, embeddings, streams)
        ids.append(crafted[0])
        return crafted

    def spy_aggregate(spec, items, who, scale, sources, bank):
        uploads.append((np.concatenate(ids)[who], items.copy()))
        return real_aggregate(spec, items, who, scale, sources, bank)

    monkeypatch.setattr(federation, "draw_round_pairs", spy_draw)
    monkeypatch.setattr(AttackRuntime, "crafted_updates", spy_craft)
    monkeypatch.setattr(federation, "aggregate_round", spy_aggregate)
    return uploads


def genuine_table(dataset, dim, streams):
    no_fakes = np.empty((0, 0), dtype=np.int64)
    split = leave_one_out_split(dataset)
    return build_user_table(split, dataset.num_items, dim, streams, np.empty((0, dim)), no_fakes)


def first_rows(users, count):
    """The table of users 0..count-1."""
    return UserTable(
        users.embeddings[:count].copy(),
        users.interacted[:count].copy(),
        users.offsets[: count + 1],
        users.train_items,
        users.test_items[:count],
    )


# ------------------------------------------------------------- run_round

def test_round_with_zero_users_leaves_embeddings_unchanged():
    streams = SeedStreams(0)
    emb = ItemEmbeddings(round=1, matrix=np.random.default_rng(0).normal(size=(5, 3)))
    before = emb.matrix.copy()
    users = user_table([], 5, 3)
    footprints = np.zeros((0, 5), dtype=bool)
    after, ledger = step(
        emb, users, no_attack_runtime(), AggregatorSpec(rule="fedavg"), streams, 1.0, footprints
    )
    assert np.array_equal(after.matrix, before)
    assert after.round == 2
    assert footprints.sum() == 0 and ledger.target_users.size == 0


def test_single_user_fedavg_applies_exact_update():
    streams = SeedStreams(1)
    matrix = np.random.default_rng(5).normal(size=(10, 4))
    emb = ItemEmbeddings(round=1, matrix=matrix.copy())
    profile = UserProfile(0, np.random.default_rng(6).normal(size=4), {0, 1}, [0, 1])

    shadow = UserProfile(0, profile.user_embedding.copy(), {0, 1}, [0, 1])
    _, pos, neg = draw_round_pairs(user_table([shadow], 10, 4), np.arange(1), streams.negatives(1))
    pairs = np.column_stack((pos, neg))
    expected = dict(zip(*local_train(shadow, ItemEmbeddings(1, matrix.copy()), pairs, 0.05)))

    users = user_table([profile], 10, 4)
    footprints = np.zeros((1, 10), dtype=bool)
    after, _ = step(
        emb, users, no_attack_runtime(1), AggregatorSpec(rule="fedavg"), streams, 1.0, footprints
    )
    for item, delta in expected.items():
        assert after.matrix[item] == pytest.approx(matrix[item] + delta, rel=1e-12)
    untouched = [i for i in range(10) if i not in expected]
    assert np.array_equal(after.matrix[untouched], matrix[untouched])
    assert tuple(np.flatnonzero(footprints[0]).tolist()) == tuple(sorted(expected))


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
    after, _ = step(emb, user_table([], 12, 5), runtime, AggregatorSpec(rule="fedavg"), streams)
    assert np.max(np.abs(after.matrix[2] - runtime.scaled_target)) < 1e-12


def test_untouched_items_carry_over_bit_identical():
    config = small_config()
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    users = first_rows(genuine_table(dataset, config.dim, streams), 5)
    emb = init_embeddings(dataset.num_items, config.dim, streams)
    before = emb.matrix.copy()
    footprints = np.zeros((5, dataset.num_items), dtype=bool)
    after, _ = step(emb, users, no_attack_runtime(5), config.aggregator, streams, 1.0, footprints)
    touched = set(np.flatnonzero(footprints.any(axis=0)).tolist())
    for item in range(dataset.num_items):
        if item not in touched:
            assert np.array_equal(after.matrix[item], before[item])
        else:
            assert not np.array_equal(after.matrix[item], before[item])


def test_participation_accounting_no_attack(monkeypatch):
    config = small_config()
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    users = genuine_table(dataset, config.dim, streams)
    emb = init_embeddings(dataset.num_items, config.dim, streams)
    uploads = spy_uploads(monkeypatch)
    step(emb, users, no_attack_runtime(len(users)), config.aggregator, streams)
    (contributors, items), = uploads
    total_contributions = items.size
    per_user_items = sum(
        len(set(items[contributors == user].tolist())) for user in set(contributors.tolist())
    )
    assert total_contributions == per_user_items


def _round_inputs(config, reverse=False):
    """The genuine users' table, the initial item embeddings and the streams;
    with ``reverse``, the users' rows reach the split in reverse id order."""
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    if reverse:
        rows = np.argsort(-dataset.users, kind="stable")  # each user's rows keep their order
        dataset = replace(
            dataset, users=dataset.users[rows], items=dataset.items[rows],
            orders=dataset.orders[rows],
        )
    users = genuine_table(dataset, config.dim, streams)
    return users, init_embeddings(dataset.num_items, config.dim, streams), streams


@pytest.mark.parametrize(
    "spec",
    [AggregatorSpec(rule="krum", krum_m=1), AggregatorSpec(rule="trimmed_mean", trim_beta=2)],
    ids=["krum", "trimmed_mean"],
)
def test_round_orders_contributions_by_contributor_whatever_the_upload_order(monkeypatch, spec):
    config = small_config()
    outcomes = []
    uploads = spy_uploads(monkeypatch)
    for reverse in (False, True):
        users, emb, streams = _round_inputs(config, reverse)
        after, ledger = step(emb, users, no_attack_runtime(len(users)), spec, streams)
        outcomes.append(after.matrix)
        uploaders, items = uploads[-1]
        # the named rule, not its median fallback, aggregated at least one item
        assert len(ledger.fallbacks) < len(np.unique(items))
        for item in np.unique(items):
            contributors = uploaders[items == item]
            assert np.all(np.diff(contributors) > 0), f"item {item}: {contributors}"
    assert np.array_equal(outcomes[0], outcomes[1])


def test_round_logs_one_fallback_record(caplog):
    config = small_config()
    users, emb, streams = _round_inputs(config)
    spec = AggregatorSpec(rule="krum", krum_m=1000)  # degenerate on every item
    footprints = np.zeros((len(users), emb.num_items), dtype=bool)
    with caplog.at_level(logging.WARNING, logger="fedrec_arena.aggregation"):
        _, ledger = step(emb, users, no_attack_runtime(len(users)), spec, streams, 1.0, footprints)
    items = np.flatnonzero(footprints.any(axis=0))
    assert len(items) > 1
    assert len(ledger.fallbacks) == len(items)
    records = [r for r in caplog.records if r.name == "fedrec_arena.aggregation"]
    assert len(records) == 1
    assert f"krum degenerate on {len(items)} items" in records[0].getMessage()


def test_round_skips_a_participant_who_interacted_with_every_item():
    config = small_config()
    users, emb, streams = _round_inputs(config)
    users = first_rows(users, 6)
    everything = 2
    users.interacted[everything] = True
    before = users.embeddings[everything].copy()
    footprints = np.zeros((6, emb.num_items), dtype=bool)
    step(emb, users, no_attack_runtime(6), config.aggregator, streams, 1.0, footprints)
    assert set(np.flatnonzero(footprints.any(axis=1)).tolist()) == set(range(6)) - {everything}
    assert np.array_equal(users.embeddings[everything], before)


def test_round_builds_no_array_the_size_of_its_upload_table():
    """Upload rows are built bucket by bucket from the rank-1 table, so the
    round's traced peak stays below one (rows, d) float64 array. At this
    shape that table would be the largest array of the round by far."""
    config = small_config(
        dataset=DatasetConfig(kind="synthetic", users=400, items=500, latent_dim=4,
                              interactions_per_user=20, popularity_skew=1.0),
        dim=64,
        aggregator=AggregatorSpec(rule="median"),
    )
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    emb = init_embeddings(dataset.num_items, config.dim, streams)
    users = genuine_table(dataset, config.dim, streams)
    attack = no_attack_runtime(dataset.num_users)
    footprints = empty_footprints(emb, users, attack)
    tracemalloc.start()
    try:
        step(emb, users, attack, config.aggregator, streams, 1.0, footprints)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = int(footprints.sum()) * config.dim * 8
    assert table_bytes > 5 * emb.matrix.nbytes
    assert peak < table_bytes, (peak, table_bytes)


@pytest.mark.parametrize(
    "participation, kind", [(1.0, "random"), (0.6, "random"), (1.0, "poisonfrs")]
)
def test_round_matches_per_user_oracle(monkeypatch, participation, kind):
    """On the engine's own negatives, run_round equals sample_pairs + local_train
    per participant: the same (item, user) keys exactly, crafted rows exactly,
    trained rows and user embeddings within 1e-12 of their largest entry."""
    attack = AttackConfig(kind=kind, fake_fraction=0.1, start_round=1, filler_count=3)
    config = small_config(participation=participation, attack=attack)
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    emb = init_embeddings(dataset.num_items, config.dim, streams)
    num_items = emb.num_items
    runtime = AttackRuntime(attack, dataset.num_users, target_item=0)
    owners, train, test = leave_one_out_split(dataset)
    counts = np.bincount(train, minlength=num_items)
    fakes = runtime.baseline_fakes(counts, config.dim, streams.baseline())
    drop = np.flatnonzero(owners == 1)[1:]  # user 1 keeps its first train item only
    split = (np.delete(owners, drop), np.delete(train, drop), test)
    users = build_user_table(split, num_items, config.dim, streams, *fakes)
    users.interacted[0] = True  # no candidate negative

    draws, blocks = [], []
    real_draw, real_aggregate = federation.draw_round_pairs, federation.aggregate_round

    def spy_draw(table, rows, rng):
        everyone = table.profiles(len(table))
        draws.append(([everyone[r] for r in rows], *real_draw(table, rows, rng)))
        return draws[-1][1:]

    def spy_aggregate(spec, items, who, scale, sources, bank):
        blocks.append((items, who, sources[who] * scale[:, None]))
        return real_aggregate(spec, items, who, scale, sources, bank)

    monkeypatch.setattr(federation, "draw_round_pairs", spy_draw)
    monkeypatch.setattr(federation, "aggregate_round", spy_aggregate)
    for round_index in (1, 2, 3):
        emb.round = round_index
        runtime.observe_broadcast(emb)
        broadcast = ItemEmbeddings(emb.round, emb.matrix.copy())
        draws.clear()
        blocks.clear()
        emb, _ = step(emb, users, runtime, config.aggregator, streams, participation)
        (shadows, owner, pos, neg), = draws
        (items, who, rows), = blocks
        if participation == 1.0:
            assert {0, 1} <= {s.user_id for s in shadows}
        expected = {}
        for row, shadow in enumerate(shadows):
            mine = owner == row
            try:
                positives = sample_pairs(shadow, num_items, np.random.default_rng(0))[:, 0]
            except DegenerateUserError:
                assert not mine.any()
                continue
            assert pos[mine].tolist() == positives.tolist()
            assert not set(neg[mine].tolist()) & shadow.interacted
            pairs = np.column_stack((pos[mine], neg[mine]))
            upload = local_train(shadow, broadcast, pairs, config.learning_rate)
            expected.update(((int(i), shadow.user_id), d) for i, d in zip(*upload))
        fakes, fake_items, deltas = runtime.crafted_updates(broadcast, streams)
        crafted = {(int(i), int(f)): d for f, i, d in zip(fakes, fake_items, deltas)}
        ids = np.array([s.user_id for s in shadows], dtype=np.int64)
        contributors = np.concatenate((ids, fakes))[who]
        got = {(int(i), int(u)): r for i, u, r in zip(items, contributors, rows)}
        for item in np.unique(items):  # the order that keeps every item's sum bit-identical
            assert np.all(np.diff(contributors[items == item]) > 0), item
        assert got.keys() == expected.keys() | crafted.keys()
        assert all(np.array_equal(got[key], d) for key, d in crafted.items())
        largest = max(np.abs(d).max() for d in expected.values())
        assert max(np.abs(got[key] - d).max() for key, d in expected.items()) <= 1e-12 * largest
        trained = {s.user_id: s.user_embedding for s in shadows}
        for user_id, user_embedding in enumerate(users.embeddings):
            if user_id in trained:
                tolerance = 1e-12 * np.abs(trained[user_id]).max()
                assert np.abs(user_embedding - trained[user_id]).max() <= tolerance


# ------------------------------------------------------------- experiment

def test_experiment_deterministic_repeat():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert [m.target_hr_at for m in a.metrics] == [m.target_hr_at for m in b.metrics]
    assert [m.hr_at for m in a.metrics] == [m.hr_at for m in b.metrics]
    assert np.array_equal(a.final_embeddings.matrix, b.final_embeddings.matrix)


def test_experiment_thread_count_does_not_change_results():
    # A round trains every participant in one array pass, so 1 is the only
    # thread count: it matches the default run, and any other is refused
    # before a round is run rather than giving different results.
    default = run_experiment(small_config())
    serial = run_experiment(small_config(threads=1))
    assert np.array_equal(default.final_embeddings.matrix, serial.final_embeddings.matrix)
    assert [m.hr_at for m in default.metrics] == [m.hr_at for m in serial.metrics]
    assert [m.footprint for m in default.metrics] == [m.footprint for m in serial.metrics]
    with pytest.raises(ValueError, match="threads"):
        run_experiment(small_config(threads=8))


def test_no_fake_contributions_before_start_round(monkeypatch):
    config = small_config(
        rounds=10,
        attack=AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=6, filler_count=2),
    )
    uploads = spy_uploads(monkeypatch)
    result = run_experiment(config)
    fake_ids = set(range(result.num_genuine, result.num_genuine + result.num_fakes))
    assert result.num_fakes == 4
    assert len(uploads) == config.rounds
    for round_index, (contributors, _) in enumerate(uploads, start=1):
        touched_fakes = fake_ids & set(contributors.tolist())
        if round_index < 6:
            assert not touched_fakes
        else:
            assert touched_fakes == fake_ids


def test_crafted_rows_join_the_trained_table_in_its_int32_columns(monkeypatch):
    config = small_config(
        rounds=8,
        attack=AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=6, filler_count=2),
    )
    crafted, tables = [], []
    real_craft, real_aggregate = AttackRuntime.crafted_updates, federation.aggregate_round

    def spy_craft(runtime, embeddings, streams):
        crafted.append(real_craft(runtime, embeddings, streams))
        return crafted[-1]

    def spy_aggregate(spec, items, who, scale, sources, bank):
        tables.append((items.copy(), who.copy(), scale.copy(), len(sources)))
        return real_aggregate(spec, items, who, scale, sources, bank)

    monkeypatch.setattr(AttackRuntime, "crafted_updates", spy_craft)
    monkeypatch.setattr(federation, "aggregate_round", spy_aggregate)
    run_experiment(config)
    assert [fake_items.size > 0 for _, fake_items, _ in crafted] == [False] * 5 + [True] * 3
    for (_, fake_items, fake_deltas), (items, who, scale, sources) in zip(crafted, tables):
        assert items.dtype == who.dtype == np.int32  # the crafted int64 items do not widen it
        tail = slice(items.size - fake_items.size, None)  # the crafted rows come last, at scale 1
        assert np.array_equal(items[tail], fake_items)
        assert np.array_equal(who[tail], np.arange(sources - len(fake_deltas), sources))
        assert np.all(scale[tail] == 1.0)


def test_baseline_fakes_join_training_at_start_round(monkeypatch):
    config = small_config(
        rounds=8,
        attack=AttackConfig(kind="random", fake_fraction=0.1, start_round=5, filler_count=3),
    )
    uploads = spy_uploads(monkeypatch)
    result = run_experiment(config)
    fake_ids = set(range(result.num_genuine, result.num_genuine + result.num_fakes))
    assert len(uploads) == config.rounds
    for round_index, (contributors, _) in enumerate(uploads, start=1):
        seen = fake_ids & set(contributors.tolist())
        assert seen == (fake_ids if round_index >= 5 else set())


def test_result_profiles_round_trip_the_split(tmp_path, monkeypatch):
    """result.profiles holds every genuine user as the split left it, with the
    user embedding the last round left in the table; the baseline fakes'
    rows stay out."""
    data = tmp_path / "data.tsv"
    rows = [(0, 0, 0), (0, 3, 1), (0, 1, 2), (1, 2, 0), (1, 4, 1), (2, 5, 0),
            (3, 1, 0), (3, 6, 1), (3, 7, 2), (3, 0, 3), (4, 3, 0), (4, 2, 1)]
    data.write_text("users=5 items=8\n" + "".join(f"{u}\t{i}\t{o}\n" for u, i, o in rows))
    attack = AttackConfig(kind="random", fake_fraction=0.4, start_round=2, filler_count=2)
    config = small_config(dataset=DatasetConfig(kind="file", path=str(data)), rounds=4,
                          topk=(1,), attack=attack)
    tables = []
    real_round = federation.run_round

    def spy_round(emb, users, *args, **kwargs):
        tables.append(users)
        return real_round(emb, users, *args, **kwargs)

    monkeypatch.setattr(federation, "run_round", spy_round)
    result = run_experiment(config)
    dataset = resolve_dataset(config.dataset, SeedStreams(config.seed))
    train_set, test_set = as_dicts(leave_one_out_split(dataset))
    final = tables[-1]
    assert len(final) == dataset.num_users + result.num_fakes == 7
    assert [p.user_id for p in result.profiles] == list(range(dataset.num_users))
    for p in result.profiles:
        train, test = train_set[p.user_id], test_set.get(p.user_id)
        assert p.train_items == train
        assert p.interacted == set(train) | ({test} if test is not None else set())
        assert p.test_item == test
        assert np.array_equal(p.user_embedding, final.embeddings[p.user_id])
    assert result.profiles[2].train_items == [5] and result.profiles[2].test_item is None


def count_item_checks(monkeypatch):
    """A list that gains one entry per ExperimentConfig.check_item_count call."""
    calls = []
    real = ExperimentConfig.check_item_count

    def spy(self, num_items):
        calls.append(num_items)
        return real(self, num_items)

    monkeypatch.setattr(ExperimentConfig, "check_item_count", spy)
    return calls


def test_synthetic_item_count_is_checked_once_when_the_config_is_built(monkeypatch):
    calls = count_item_checks(monkeypatch)
    attack = AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=3, filler_count=3)
    config = small_config(attack=attack)
    assert calls == [30]
    Experiment(config)
    assert calls == [30]


def test_file_item_count_is_checked_once_at_setup(tmp_path, monkeypatch):
    path = tmp_path / "data.tsv"
    with path.open("w") as fp:
        dump_dataset(resolve_dataset(small_config().dataset, SeedStreams(3)), fp)
    calls = count_item_checks(monkeypatch)
    attack = AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=3, filler_count=3)
    config = small_config(dataset=DatasetConfig(kind="file", path=str(path)), attack=attack)
    assert calls == []
    Experiment(config)
    assert calls == [30]


def test_raw_ratings_file_runs_as_its_dumped_dataset(tmp_path):
    """A ``user::item::rating::order`` file runs exactly as the ``users=`` file
    that ``dump_dataset`` writes from its parse: same target, metrics, final
    item embeddings and profile embeddings."""
    rng = np.random.default_rng(21)
    lines = [
        f"u{100 + user}::{7 * item + 3}::{rng.integers(1, 6)}::{order}\n"
        for user in range(30) for order, item in enumerate(rng.choice(25, size=6, replace=False))
    ]
    lines = [*rng.permutation(lines), lines[0].replace("::0\n", "::9\n")]  # a repeat is dropped
    raw, dumped = tmp_path / "ratings.dat", tmp_path / "dataset.tsv"
    raw.write_text("".join(lines))
    with raw.open() as fp, dumped.open("w") as out:
        dump_dataset(parse_ratings(fp), out)
    attack = AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=3, filler_count=3)
    a, b = (
        run_experiment(small_config(dataset=DatasetConfig(kind="file", path=str(path)), attack=attack))
        for path in (raw, dumped)
    )
    assert a.target_item == b.target_item
    assert a.metrics == b.metrics
    assert np.array_equal(a.final_embeddings.matrix, b.final_embeddings.matrix)
    assert len(a.profiles) == len(b.profiles) == 30
    for p, q in zip(a.profiles, b.profiles):
        assert np.array_equal(p.user_embedding, q.user_embedding)


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
    assert np.array_equal(runtime.snapshot, initial)


def test_default_target_is_least_interacted():
    config = small_config()
    streams = SeedStreams(config.seed)
    dataset = resolve_dataset(config.dataset, streams)
    _, train, _ = leave_one_out_split(dataset)
    counts = np.bincount(train, minlength=dataset.num_items)
    target = Experiment(config).attack.target_item
    assert counts[target] == counts.min()
    assert all(counts[i] > counts[target] for i in range(target))


def test_validate_rejects_bad_configs():
    assert not hasattr(ExperimentConfig, "validate")  # a config checks itself when built
    with pytest.raises(FrozenInstanceError):  # and cannot change after
        small_config().attack.filler_count = 30
    with pytest.raises(ValueError):
        small_config(rounds=0)
    with pytest.raises(ValueError):
        small_config(learning_rate=0.0)
    with pytest.raises(ValueError, match="model.learning_rate"):
        small_config(learning_rate=float("inf"))
    with pytest.raises(ValueError):
        small_config(
            rounds=5,
            attack=AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=9),
        )
    with pytest.raises(ValueError):
        small_config(dim=4, aggregator=AggregatorSpec(rule="hics", hics_z=8))
    with pytest.raises(ValueError):
        small_config(aggregator=AggregatorSpec(rule="hics", hics_z=0))
    with pytest.raises(ValueError):
        small_config(topk=(0, 5))
    with pytest.raises(ValueError):
        small_config(dim=0)
    with pytest.raises(ValueError):
        small_config(dump_round=99)
    with pytest.raises(ValueError):
        small_config(dump_round=0)
    with pytest.raises(ValueError, match="threads"):
        small_config(threads=2)
    for shape in (dict(items=6), dict(users=0), dict(interactions_per_user=1), dict(latent_dim=0)):
        dataset = DatasetConfig(users=40, items=30, interactions_per_user=6)
        with pytest.raises(ValueError):
            small_config(dataset=replace(dataset, **shape))
    def attacked(**fields):
        base = dict(kind="poisonfrs", fake_fraction=0.1, start_round=2, filler_count=2)
        return small_config(attack=AttackConfig(**{**base, **fields}))

    with pytest.raises(ValueError, match="filler_count"):
        attacked(filler_count=30)
    with pytest.raises(ValueError, match="filler_count"):
        attacked(kind="random", filler_count=30)
    with pytest.raises(ValueError, match="popular_count"):
        attacked(popular_count=31)
    for target in ("3", 2.5, True, 30, -1):
        with pytest.raises(ValueError, match="target_item"):
            small_config(attack=AttackConfig(target_item=target))
    # start round is irrelevant without an active attack
    small_config(rounds=5)
    # only hics_z's upper bound, model.dim, depends on the rule
    small_config(dim=4, aggregator=AggregatorSpec(rule="median", hics_z=8))
    # attack sizes are only bounded when fakes attack; the largest that fit pass
    small_config(attack=AttackConfig(filler_count=30, popular_count=31))
    attacked(filler_count=29, popular_count=30, target_item=29)


@pytest.mark.parametrize(
    "rule, field, value",
    [
        ("clip", "clip_bound", 0.0),
        ("clip", "clip_bound", -1.0),
        ("clip", "clip_bound", float("nan")),
        ("trimmed_mean", "trim_beta", -1),
        ("krum", "krum_m", -1),
        ("krum", "krum_m", -2),
    ],
)
def test_validate_rejects_aggregator_parameters_that_fail_every_count(rule, field, value):
    with pytest.raises(ValueError, match=f"aggregator[.]{field}"):
        small_config(aggregator=AggregatorSpec(rule=rule, **{field: value}))


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: DatasetConfig(users=0), "dataset.users"),
        (lambda: DatasetConfig(items=20), "dataset.items"),
        (lambda: DatasetConfig(latent_dim=0), "dataset.latent_dim"),
        (lambda: DatasetConfig(interactions_per_user=1), "dataset.interactions_per_user"),
        (lambda: AttackConfig(target_item=2.5), "attack.target_item"),
        (lambda: AggregatorSpec(rule="median", hics_z=0), "aggregator.hics_z"),
    ],
    ids=["users", "items", "latent_dim", "interactions_per_user", "target_item", "hics_z"],
)
def test_section_config_refuses_its_own_field_when_built_alone(build, key):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value).startswith(f"{key} "), refused.value


def test_metric_cadence_includes_final_round():
    result = run_experiment(small_config(rounds=10, eval_every=4))
    assert [m.round for m in result.metrics] == [4, 8, 10]


def test_metrics_footprint_matches_ledger_replay(monkeypatch):
    from fedrec_arena.evaluation import footprint_stats

    uploads = spy_uploads(monkeypatch)
    result = run_experiment(small_config(rounds=8, eval_every=8))
    assert len(uploads) == 8
    touched = {}
    for contributors, items in uploads:
        for user, item in zip(contributors.tolist(), items.tolist()):
            touched.setdefault(user, set()).add(item)
    counts = [len(touched.get(u, ())) for u in range(result.num_genuine)]
    replayed = footprint_stats(np.array(counts))
    assert result.metrics[-1].footprint == replayed


def test_partial_participation_limits_contributors(monkeypatch):
    config = small_config(participation=0.25, rounds=3)
    uploads = spy_uploads(monkeypatch)
    run_experiment(config)
    first = [np.unique(contributors).tolist() for contributors, _ in uploads]
    assert len(first) == 3
    for contributors in first:
        assert len(contributors) <= max(1, round(0.25 * 40))
    uploads.clear()
    run_experiment(small_config(participation=0.25, rounds=3))
    assert first == [np.unique(contributors).tolist() for contributors, _ in uploads]


def test_ledgers_keep_less_than_one_round_of_upload_index(monkeypatch):
    """Each round's ledger keeps the target's contributors and the fallbacks,
    not the round's upload index: over a whole run, the ledgers' arrays (each
    owning buffer counted once, so a view pins its base) take fewer bytes
    than the int32 (user, item) index of any one round."""
    uploads = spy_uploads(monkeypatch)
    result = run_experiment(small_config())
    assert len(result.ledgers) == len(uploads) == 12
    buffers = {}
    for ledger in result.ledgers:
        for value in vars(ledger).values():
            while isinstance(value, np.ndarray) and isinstance(value.base, np.ndarray):
                value = value.base
            if isinstance(value, np.ndarray):
                buffers[id(value)] = value.nbytes
    one_round = 8 * min(items.size for _, items in uploads)
    assert sum(buffers.values()) < one_round, (sum(buffers.values()), one_round)


def test_result_footprints_mark_every_upload(monkeypatch):
    uploads = spy_uploads(monkeypatch)
    config = small_config(
        attack=AttackConfig(kind="poisonfrs", fake_fraction=0.1, start_round=6, filler_count=2),
    )
    result = run_experiment(config)
    replayed = np.zeros((result.num_genuine + result.num_fakes, 30), dtype=bool)
    for contributors, items in uploads:
        replayed[contributors, items] = True
    assert np.array_equal(result.footprints, replayed)


# ------------------------------------------------------------- streams

# 2**32 takes two entropy words; 2**64 + 3 takes three, so five in all, one
# more than SeedSequence's pool, which runs its extra-entropy mixing
@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 3])
@pytest.mark.parametrize("count", [1, 300])
@pytest.mark.parametrize("dim", [1, 32])
def test_user_inits_equal_numpys_per_user_streams(seed, count, dim):
    got, want = SeedStreams(seed).user_inits(count, dim), user_inits(seed, count, dim)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_seed_streams_reproducible_and_disjoint():
    a = SeedStreams(5)
    b = SeedStreams(5)
    assert a.negatives(3).integers(0, 1000, 5).tolist() == b.negatives(3).integers(0, 1000, 5).tolist()
    assert a.negatives(3).integers(0, 1000, 5).tolist() != a.negatives(4).integers(0, 1000, 5).tolist()
    assert a.negatives(3).integers(0, 1000, 5).tolist() != a.fake_noise(3, 7).integers(0, 1000, 5).tolist()
