import io

import numpy as np
import pytest

from fedrec_arena.data import (
    DegenerateUserError,
    EmptyDatasetError,
    InteractionDataset,
    RatingsParseError,
    dump_dataset,
    generate_synthetic,
    leave_one_out_split,
    load_dataset,
    parse_ratings,
    sample_pairs,
)
from fedrec_arena.model import UserProfile


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
    assert ds.interactions == [(0, 0, 1), (0, 1, 2), (1, 0, 1)]


def test_parse_double_colon_and_tab():
    ds = parse_ratings(io.StringIO("10::3::5::100\n11::4::1::200\n"))
    assert ds.num_users == 2 and ds.num_items == 2
    ds = parse_ratings(io.StringIO("a\tb\t2\t7\n"))
    assert ds.interactions == [(0, 0, 7)]


def test_parse_duplicate_user_item_keeps_earliest():
    text = "0,5,4.0,1\n0,5,2.0,9\n1,5,5.0,1\n"
    ds = parse_ratings(io.StringIO(text))
    assert len(ds.interactions) == 2
    assert ds.interactions[0] == (0, 0, 1)


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
    ds = InteractionDataset(1, 3, [(0, 0, 1), (0, 1, 2), (0, 2, 3)])
    leave_one_out_split(ds)
    assert ds.train_set[0] == [0, 1]
    assert ds.test_set[0] == 2


def test_split_single_interaction_user_keeps_train_only():
    ds = InteractionDataset(1, 2, [(0, 0, 1)])
    leave_one_out_split(ds)
    assert ds.train_set[0] == [0]
    assert 0 not in ds.test_set


def test_split_order_key_tie_breaks_to_larger_item():
    ds = InteractionDataset(1, 9, [(0, 3, 5), (0, 7, 5)])
    leave_one_out_split(ds)
    assert ds.test_set[0] == 7
    assert ds.train_set[0] == [3]


def test_split_accounting_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ds = generate_synthetic(12, 30, 4, rng.integers(2, 8), 1.0, rng)
        leave_one_out_split(ds)
        total = sum(len(v) for v in ds.train_set.values()) + len(ds.test_set)
        assert total == len(ds.interactions)


def test_split_held_out_item_has_maximal_order_key():
    rng = np.random.default_rng(12)
    ds = generate_synthetic(25, 40, 3, 6, 1.0, rng)
    leave_one_out_split(ds)
    by_user = ds.interactions_by_user()
    for user, test_item in ds.test_set.items():
        keys = dict(by_user[user])
        assert keys[test_item] == max(keys.values())


# ---------------------------------------------------------------- pair sampling

def test_sample_pairs_only_possible_negative():
    profile = make_profile(0, train=[0])
    pairs = sample_pairs(profile, 2, np.random.default_rng(0))
    assert pairs.tolist() == [[0, 1]]


def test_sample_pairs_count_and_exclusions():
    profile = make_profile(3, train=[0, 1], test=2)
    pairs = sample_pairs(profile, 10, np.random.default_rng(5))
    assert len(pairs) == 2
    for pos, neg in pairs:
        assert pos in (0, 1)
        assert neg not in {0, 1, 2}


def test_sample_pairs_deterministic_for_fixed_state():
    profile = make_profile(0, train=[0, 1, 2], test=3)
    a = sample_pairs(profile, 50, np.random.default_rng(42))
    b = sample_pairs(profile, 50, np.random.default_rng(42))
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
        pairs = sample_pairs(profile, n_items, np.random.default_rng(trial))
        for _, neg in pairs:
            assert neg not in profile.interacted
            assert neg != test


def test_sample_pairs_degenerate_user_raises():
    profile = make_profile(0, train=[0, 1], test=2)
    with pytest.raises(DegenerateUserError):
        sample_pairs(profile, 3, np.random.default_rng(0))


# ---------------------------------------------------------------- synthesis

def test_synthetic_popularity_concentration():
    # oracle: count interactions per item in the generated output
    ds = generate_synthetic(200, 100, 8, 20, 1.0, np.random.default_rng(7))
    counts = np.zeros(100, dtype=int)
    for _, item, _ in ds.interactions:
        counts[item] += 1
    top10_share = np.sort(counts)[::-1][:10].sum() / counts.sum()
    assert top10_share > 0.30


def test_synthetic_size_contract():
    ds = generate_synthetic(2, 3, 1, 2, 0.0, np.random.default_rng(1))
    assert len(ds.interactions) == 4
    assert all(0 <= u < 2 and 0 <= i < 3 for u, i, _ in ds.interactions)
    # order keys are the per-user sampling sequence
    for user in range(2):
        keys = [o for u, _, o in ds.interactions if u == user]
        assert keys == [0, 1]


def test_synthetic_deterministic():
    a = generate_synthetic(30, 40, 4, 5, 1.0, np.random.default_rng(123))
    b = generate_synthetic(30, 40, 4, 5, 1.0, np.random.default_rng(123))
    assert a.interactions == b.interactions


@pytest.mark.parametrize(
    "users,items,per_user",
    [(2, 3, 1), (2, 5, 5), (0, 5, 2)],
)
def test_synthetic_infeasible_parameters(users, items, per_user):
    with pytest.raises(ValueError):
        generate_synthetic(users, items, 2, per_user, 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------- serialization

def test_dataset_round_trip_identity():
    ds = generate_synthetic(15, 25, 3, 4, 1.2, np.random.default_rng(3))
    buf = io.StringIO()
    dump_dataset(ds, buf)
    buf.seek(0)
    back = load_dataset(buf)
    assert back.num_users == ds.num_users
    assert back.num_items == ds.num_items
    assert back.interactions == ds.interactions
    # serializing again gives identical bytes
    buf2 = io.StringIO()
    dump_dataset(back, buf2)
    assert buf2.getvalue() == buf.getvalue()
