import io

import numpy as np
import pytest

from fedrec_arena import data
from fedrec_arena.data import (
    EmptyDatasetError,
    RatingsParseError,
    draw_round_pairs,
    dump_dataset,
    generate_synthetic,
    leave_one_out_split,
    load_dataset,
    parse_ratings,
    top_k,
)
from fedrec_arena.federation import DatasetConfig
from fedrec_arena.model import UserProfile

import reference
from reference import as_dicts, dataset, interactions, user_table


def make_profile(user_id, train, test=None, dim=2):
    interacted = set(train) | ({test} if test is not None else set())
    return UserProfile(
        user_id=user_id,
        user_embedding=np.zeros(dim),
        interacted=interacted,
        train_items=list(train),
        test_item=test,
    )


# ---------------------------------------------------------------- parsing

def test_parse_comma_reindexes_densely():
    text = "0,5,4.0,1\n0,7,3.0,2\n1,5,5.0,1\n"
    ds = parse_ratings(io.StringIO(text))
    assert ds.num_users == 2
    assert ds.num_items == 2
    # first-appearance order: raw item 5 -> 0, raw item 7 -> 1
    assert interactions(ds) == [(0, 0, 1), (0, 1, 2), (1, 0, 1)]


def test_parse_double_colon_and_tab():
    ds = parse_ratings(io.StringIO("10::3::5::100\n11::4::1::200\n"))
    assert ds.num_users == 2 and ds.num_items == 2
    ds = parse_ratings(io.StringIO("a\tb\t2\t7\n"))
    assert interactions(ds) == [(0, 0, 7)]


def test_parse_duplicate_user_item_keeps_earliest():
    text = "0,5,4.0,1\n0,5,2.0,9\n1,5,5.0,1\n"
    ds = parse_ratings(io.StringIO(text))
    assert ds.users.size == 2
    assert interactions(ds)[0] == (0, 0, 1)


def test_parse_malformed_line_reports_number():
    with pytest.raises(RatingsParseError) as err:
        parse_ratings(io.StringIO("0,5,4.0,1\n0,7,3.0\n"))
    assert "line 2" in str(err.value)
    assert err.value.line_no == 2


def test_parse_bad_order_key_reports_number():
    with pytest.raises(RatingsParseError, match="line 1"):
        parse_ratings(io.StringIO("0,5,4.0,xyz\n"))


def test_parse_empty_input_raises():
    with pytest.raises(EmptyDatasetError):
        parse_ratings(io.StringIO(""))


# ---------------------------------------------------------------- split

def test_split_holds_out_max_order_key():
    ds = dataset(1, 3, [(0, 0, 1), (0, 1, 2), (0, 2, 3)])
    train_set, test_set = as_dicts(leave_one_out_split(ds))
    assert train_set[0] == [0, 1]
    assert test_set[0] == 2


def test_split_single_interaction_user_keeps_train_only():
    ds = dataset(1, 2, [(0, 0, 1)])
    train_set, test_set = as_dicts(leave_one_out_split(ds))
    assert train_set[0] == [0]
    assert 0 not in test_set


def test_split_order_key_tie_breaks_to_larger_item():
    ds = dataset(1, 9, [(0, 3, 5), (0, 7, 5)])
    train_set, test_set = as_dicts(leave_one_out_split(ds))
    assert test_set[0] == 7
    assert train_set[0] == [3]


def test_split_accounting_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ds = generate_synthetic(12, 30, 4, rng.integers(2, 8), 1.0, rng)
        train_set, test_set = as_dicts(leave_one_out_split(ds))
        total = sum(len(v) for v in train_set.values()) + len(test_set)
        assert total == ds.users.size


def test_split_held_out_item_has_maximal_order_key():
    rng = np.random.default_rng(12)
    ds = generate_synthetic(25, 40, 3, 6, 1.0, rng)
    _, test_set = as_dicts(leave_one_out_split(ds))
    for user, test_item in test_set.items():
        keys = {i: o for u, i, o in interactions(ds) if u == user}
        assert keys[test_item] == max(keys.values())


@pytest.mark.parametrize("seed", range(6))
def test_split_matches_reference(seed):
    """Rows in shuffled user order, order keys with ties, users with one
    interaction and users with none: the array split equals the dict walk."""
    rng = np.random.default_rng(seed)
    rows = [
        (u, int(i), int(o))
        for u in rng.permutation(20)
        for i, o in zip(rng.choice(15, rng.integers(0, 6), replace=False), rng.integers(0, 4, 6))
    ]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    ds = dataset(22, 15, rows)
    assert as_dicts(leave_one_out_split(ds)) == reference.leave_one_out_split(ds)


def test_split_edge_cases_match_reference():
    rows = [
        (3, 4, 2), (3, 1, 2),  # order-key tie: the larger item is held out
        (1, 0, 9),  # a single interaction stays in train
        (0, 2, 5), (0, 5, 1), (0, 3, 7),  # arrives after users 3 and 1
        (3, 0, 1),
    ]  # user 2 of the header has no interactions
    ds = dataset(4, 6, rows)
    owners, train, test = leave_one_out_split(ds)
    assert owners.tolist() == [0, 0, 1, 3, 3]
    assert train.tolist() == [2, 5, 0, 1, 0]
    assert test.tolist() == [3, -1, -1, 4]
    assert as_dicts((owners, train, test)) == reference.leave_one_out_split(ds)


@pytest.mark.parametrize("seed", range(4))
def test_split_matches_reference_with_negative_and_extreme_order_keys(seed):
    """Order keys below zero and at int64's ends: the per-user maxima start
    from a sentinel, and a user whose keys all sit at the minimum still
    holds out its largest item."""
    lowest, highest = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    rng = np.random.default_rng(seed)
    keys = np.array([lowest, lowest + 1, -7, -1, 0, highest - 1, highest])
    rows = [
        (u, int(i), int(rng.choice(keys[:2] if u % 5 == 0 else keys)))
        for u in range(40)
        for i in rng.choice(12, rng.integers(0, 7), replace=False)
    ]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    ds = dataset(41, 12, rows)
    assert as_dicts(leave_one_out_split(ds)) == reference.leave_one_out_split(ds)


# ---------------------------------------------------------------- pair sampling

def draw(profiles, num_items, rng):
    """draw_round_pairs over a table of ``profiles``, every row participating."""
    table = user_table(profiles, num_items, dim=2)
    return draw_round_pairs(table, np.arange(len(profiles)), rng)


def pairs_of(profile, num_items, rng):
    """One profile's (positive, negative) rows from draw_round_pairs."""
    _, pos, neg = draw([profile], num_items, rng)
    return np.column_stack((pos, neg))


def test_sample_pairs_only_possible_negative():
    profile = make_profile(0, train=[0])
    pairs = pairs_of(profile, 2, np.random.default_rng(0))
    assert pairs.tolist() == [[0, 1]]


def test_sample_pairs_count_and_exclusions():
    profile = make_profile(3, train=[0, 1], test=2)
    pairs = pairs_of(profile, 10, np.random.default_rng(5))
    assert len(pairs) == 2
    for pos, neg in pairs:
        assert pos in (0, 1)
        assert neg not in {0, 1, 2}


def test_sample_pairs_deterministic_for_fixed_state():
    profile = make_profile(0, train=[0, 1, 2], test=3)
    a = pairs_of(profile, 50, np.random.default_rng(42))
    b = pairs_of(profile, 50, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_pairs_never_hits_interactions_exhaustively():
    rng = np.random.default_rng(9)
    for trial in range(50):
        n_items = int(rng.integers(3, 12))
        train = sorted(rng.choice(n_items, size=int(rng.integers(1, n_items - 1)), replace=False))
        test = None
        remaining = [i for i in range(n_items) if i not in train]
        if len(remaining) >= 2 and trial % 2:
            test = remaining[0]
        profile = make_profile(0, train=train, test=test)
        if len(profile.interacted) >= n_items:
            continue
        pairs = pairs_of(profile, n_items, np.random.default_rng(trial))
        for _, neg in pairs:
            assert neg not in profile.interacted
            assert neg != test


def test_sample_pairs_degenerate_user_draws_nothing():
    degenerate = make_profile(0, train=[0, 1], test=2)
    other = make_profile(1, train=[1], test=0)
    owner, pos, neg = draw([degenerate, other], 3, np.random.default_rng(0))
    assert owner.tolist() == [1]
    assert pos.tolist() == [1]
    assert neg.tolist() == [2]


def test_draw_round_pairs_consumes_one_stream_in_row_order():
    profiles = [make_profile(0, train=[4, 1, 3], test=0), make_profile(1, train=[2], test=7)]
    owner, pos, neg = draw(profiles, 8, np.random.default_rng(3))
    assert owner.tolist() == [0, 0, 0, 1]
    assert pos.tolist() == [4, 1, 3, 2]
    # replay: every row draws once, then the rejected rows redraw in row order
    replay = np.random.default_rng(3)
    expected = replay.integers(0, 8, size=4)
    rejected = [r for r in range(4) if expected[r] in profiles[owner[r]].interacted]
    redraws = 0
    while rejected:
        expected[rejected] = replay.integers(0, 8, size=len(rejected))
        rejected = [r for r in rejected if expected[r] in profiles[owner[r]].interacted]
        redraws += 1
    assert redraws > 0
    assert neg.tolist() == expected.tolist()


def test_draw_round_pairs_reads_only_the_given_rows():
    profiles = [
        make_profile(0, train=[0, 1], test=2),
        make_profile(1, train=[3], test=4),
        make_profile(2, train=[5, 6, 7], test=0),
    ]
    table = user_table(profiles, 10, dim=2)
    owner, pos, neg = draw_round_pairs(table, np.array([0, 2]), np.random.default_rng(4))
    assert owner.tolist() == [0, 0, 1, 1, 1]
    assert pos.tolist() == [0, 1, 5, 6, 7]
    for row, negative in zip(owner, neg):
        assert negative not in profiles[[0, 2][row]].interacted


def test_train_counts_count_every_train_interaction():
    ds = generate_synthetic(30, 20, 3, 5, 1.0, np.random.default_rng(8))
    _, train, _ = leave_one_out_split(ds)
    counts = np.zeros(ds.num_items, dtype=np.int64)
    for items in reference.leave_one_out_split(ds)[0].values():
        for item in items:
            counts[item] += 1
    assert np.bincount(train, minlength=ds.num_items).tolist() == counts.tolist()


# ---------------------------------------------------------------- synthesis

def test_synthetic_popularity_concentration():
    # oracle: count interactions per item in the generated output
    ds = generate_synthetic(200, 100, 8, 20, 1.0, np.random.default_rng(7))
    counts = np.zeros(100, dtype=int)
    for _, item, _ in interactions(ds):
        counts[item] += 1
    top10_share = np.sort(counts)[::-1][:10].sum() / counts.sum()
    assert top10_share > 0.30


def test_synthetic_size_contract():
    ds = generate_synthetic(2, 3, 1, 2, 0.0, np.random.default_rng(1))
    assert ds.users.size == 4
    assert all(0 <= u < 2 and 0 <= i < 3 for u, i, _ in interactions(ds))
    # order keys are the per-user sampling sequence
    for user in range(2):
        keys = [o for u, _, o in interactions(ds) if u == user]
        assert keys == [0, 1]


def test_synthetic_deterministic():
    a = generate_synthetic(30, 40, 4, 5, 1.0, np.random.default_rng(123))
    b = generate_synthetic(30, 40, 4, 5, 1.0, np.random.default_rng(123))
    assert interactions(a) == interactions(b)


@pytest.mark.parametrize(
    "users,items,per_user,seed",
    [(40, 30, 6, 0), (25, 7, 6, 1), (60, 100, 20, 2), (10, 3, 2, 3), (30, 12, 11, 4)],
)
def test_synthetic_matches_full_sort_reference(users, items, per_user, seed):
    ds = generate_synthetic(users, items, 4, per_user, 1.0, np.random.default_rng(seed))
    expected = reference.generate_synthetic(
        users, items, 4, per_user, 1.0, np.random.default_rng(seed)
    )
    assert interactions(ds) == expected


def test_synthetic_matches_reference_over_several_user_blocks_and_a_short_last_one():
    items = 300
    block = data._BLOCK_CELLS // items
    users = 3 * block + 5
    ds = generate_synthetic(users, items, 4, 6, 1.0, np.random.default_rng(9))
    expected = reference.generate_synthetic(users, items, 4, 6, 1.0, np.random.default_rng(9))
    assert interactions(ds) == expected


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_top_k_of_rows_with_and_without_ties_at_the_cut(k):
    """A block mixing untied rows, rows of a few repeated values and a
    constant row: each row is its own stable argsort's first k."""
    rng = np.random.default_rng(k)
    score = np.vstack((
        rng.normal(size=(3, 40)),
        rng.integers(0, 3, size=(3, 40)).astype(float),
        np.full((1, 40), 0.25),
        rng.normal(size=(2, 40)),
    ))
    expected = [np.argsort(-row, kind="stable")[:k].tolist() for row in score]
    assert top_k(score, k).tolist() == expected
    assert top_k(score[[0, 7, 8]], k).tolist() == [expected[0], expected[7], expected[8]]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8])
def test_top_k_breaks_ties_at_the_cut_to_the_lower_id(k):
    score = np.array([0.5, 2.0, 0.5, -1.0, 2.0, 0.5, 0.0, 0.5])
    assert top_k(score, k).tolist() == np.argsort(-score, kind="stable")[:k].tolist()
    rng = np.random.default_rng(k)
    tied = rng.integers(0, 3, size=50).astype(float)
    assert top_k(tied, k).tolist() == np.argsort(-tied, kind="stable")[:k].tolist()


@pytest.mark.parametrize(
    "users,items,per_user",
    [(2, 3, 1), (2, 5, 5), (0, 5, 2)],
)
def test_synthetic_infeasible_parameters(users, items, per_user):
    with pytest.raises(ValueError, match="dataset[.]"):
        DatasetConfig(users=users, items=items, latent_dim=2, interactions_per_user=per_user)


# ---------------------------------------------------------------- serialization

def test_dataset_round_trip_identity():
    ds = generate_synthetic(15, 25, 3, 4, 1.2, np.random.default_rng(3))
    buf = io.StringIO()
    dump_dataset(ds, buf)
    buf.seek(0)
    back = load_dataset(buf)
    assert back.num_users == ds.num_users
    assert back.num_items == ds.num_items
    assert interactions(back) == interactions(ds)
    # serializing again gives identical bytes
    buf2 = io.StringIO()
    dump_dataset(back, buf2)
    assert buf2.getvalue() == buf.getvalue()


@pytest.mark.parametrize(
    "lines,line_no",
    [
        (["0\t-1\t1", "1\t2\t0"], 2),
        (["-1\t0\t0"], 2),
        (["0\t2\t0", "1\t3\t0"], 3),
        (["0\t2\t0", "2\t0\t0"], 3),
    ],
)
def test_load_rejects_ids_outside_header(lines, line_no):
    text = "users=2 items=3\n" + "\n".join(lines) + "\n"
    with pytest.raises(RatingsParseError) as err:
        load_dataset(io.StringIO(text))
    assert err.value.line_no == line_no


def test_load_rejects_a_repeated_user_item_line():
    text = "users=3 items=4\n0\t2\t1\n0\t1\t3\n\n0\t2\t5\n"
    with pytest.raises(RatingsParseError) as err:
        load_dataset(io.StringIO(text))
    assert err.value.line_no == 5
    assert "item 2" in str(err.value)
