import math
import tracemalloc

import numpy as np
import pytest

from fedrec_arena.model import ItemEmbeddings, UserProfile, _sigmoid, train_step
from fedrec_arena.evaluation import rank_metrics

from reference import bpr_loss, predict_score, sigmoid, user_table


def profile_with(u, interacted=(), train=(), test=None):
    return UserProfile(
        user_id=0,
        user_embedding=np.asarray(u, dtype=float),
        interacted=set(interacted),
        train_items=list(train),
        test_item=test,
    )


def embeddings_of(rows):
    return ItemEmbeddings(round=1, matrix=np.asarray(rows, dtype=float))


def train_one(profile, embeddings, pairs, learning_rate):
    """train_step on one user's pairs, as (items, deltas); moves the profile's embedding."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    users = profile.user_embedding[None, :]
    owner = np.zeros(len(pairs), dtype=np.int64)
    items, who, scale, stepped = train_step(
        users, embeddings.matrix, owner, pairs[:, 0], pairs[:, 1], learning_rate
    )
    profile.user_embedding = stepped[0]
    return items, scale[:, None] * users[who]


# ---------------------------------------------------------------- scoring

def test_predict_score_orthogonal():
    assert predict_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_predict_score_arithmetic():
    assert predict_score(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_predict_score_zero():
    z = np.zeros(5)
    assert predict_score(z, z) == 0.0


def test_predict_score_dimension_mismatch():
    with pytest.raises(ValueError):
        predict_score(np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------- loss

def test_bpr_loss_equal_scores_is_ln2():
    emb = embeddings_of([[1.0], [1.0]])
    loss = bpr_loss(np.array([1.0]), emb, [(0, 1)])
    assert loss == pytest.approx(math.log(2), rel=1e-12)


def test_bpr_loss_saturates_to_zero():
    emb = embeddings_of([[50.0], [0.0]])
    loss = bpr_loss(np.array([1.0]), emb, [(0, 1)])
    assert 0 <= loss <= 1e-20


def test_bpr_loss_additive_over_pairs():
    emb = embeddings_of([[0.7, -0.2], [0.1, 0.4]])
    u = np.array([0.3, 0.9])
    one = bpr_loss(u, emb, [(0, 1)])
    two = bpr_loss(u, emb, [(0, 1), (0, 1)])
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_bpr_loss_no_overflow_at_extreme_margins():
    emb = embeddings_of([[-500.0], [500.0]])
    loss = bpr_loss(np.array([1.0]), emb, [(0, 1)])
    assert np.isfinite(loss)


# ---------------------------------------------------------------- training

def test_local_train_empty_pairs_is_noop():
    emb = embeddings_of([[1.0, 2.0]])
    profile = profile_with([0.5, 0.5])
    before = profile.user_embedding.copy()
    update = dict(zip(*train_one(profile, emb, [], 0.1)))
    assert update == {}
    assert np.array_equal(profile.user_embedding, before)


def test_local_train_hand_derived_one_pair():
    # d=1, u=1, v_pos=v_neg=0, lr=1: margin 0, sigmoid 0.5,
    # so pos delta +0.5, neg delta -0.5, user delta 0
    emb = embeddings_of([[0.0], [0.0]])
    profile = profile_with([1.0])
    update = dict(zip(*train_one(profile, emb, [(0, 1)], 1.0)))
    assert update[0] == pytest.approx([0.5])
    assert update[1] == pytest.approx([-0.5])
    assert profile.user_embedding == pytest.approx([1.0])


def _finite_difference_update(u, matrix, pairs, lr, eps=1e-5):
    """Central differences of the pairwise loss, turned into -lr * grad."""
    expected = {}
    for item in {i for pair in pairs for i in pair}:
        grad = np.zeros(matrix.shape[1])
        for c in range(matrix.shape[1]):
            for sign in (+1, -1):
                bumped = matrix.copy()
                bumped[item, c] += sign * eps
                loss = bpr_loss(u, ItemEmbeddings(1, bumped), pairs)
                grad[c] += sign * loss
        expected[item] = -lr * grad / (2 * eps)
    return expected


def test_local_train_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        n_items = int(rng.integers(2, 7))
        matrix = rng.normal(0, 0.8, size=(n_items, d))
        u = rng.normal(0, 0.8, size=d)
        n_pairs = int(rng.integers(1, 6))
        pairs = [
            (int(rng.integers(0, n_items)), int(rng.integers(0, n_items)))
            for _ in range(n_pairs)
        ]
        pairs = [(p, n) for p, n in pairs if p != n]
        if not pairs:
            continue
        expected = _finite_difference_update(u, matrix, pairs, lr=0.05)
        profile = profile_with(u)
        update = dict(zip(*train_one(profile, ItemEmbeddings(1, matrix), pairs, 0.05)))
        for item, exp in expected.items():
            got = update.get(item, np.zeros_like(exp))
            denom = max(np.max(np.abs(exp)), 1e-8)
            assert np.max(np.abs(got - exp)) / denom < 1e-4


def test_local_train_support_is_pair_items():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(8, 3))
    profile = profile_with(rng.normal(size=3))
    pairs = [(0, 4), (2, 4), (0, 7)]
    update = dict(zip(*train_one(profile, ItemEmbeddings(1, matrix), pairs, 0.1)))
    assert set(update) == {0, 2, 4, 7}


def test_local_train_small_step_never_increases_loss():
    rng = np.random.default_rng(77)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        matrix = rng.normal(0, 1, size=(6, d))
        u = rng.normal(0, 1, size=d)
        pairs = [(0, 3), (1, 4), (2, 5)]
        before = bpr_loss(u, ItemEmbeddings(1, matrix), pairs)
        profile = profile_with(u.copy())
        update = dict(zip(*train_one(profile, ItemEmbeddings(1, matrix), pairs, 1e-3)))
        stepped = matrix.copy()
        for item, delta in update.items():
            stepped[item] += delta
        after = bpr_loss(profile.user_embedding, ItemEmbeddings(1, stepped), pairs)
        assert after <= before + 1e-12


def test_local_train_updates_user_embedding_from_old_point():
    # user delta is lr * sum c_i (v_pos - v_neg) evaluated before the step
    emb = embeddings_of([[2.0], [-2.0]])
    profile = profile_with([0.0])
    _, _ = train_one(profile, emb, [(0, 1)], 0.5)
    # margin 0 at u=0, c=0.5: delta = 0.5 * 0.5 * (2 - (-2)) = 1.0
    assert profile.user_embedding == pytest.approx([1.0])


def test_train_step_in_blocks_matches_each_user_stepped_alone():
    # 2**12 dims leave room for 8 pairs per block: users share blocks, and a
    # user with more pairs than that fills a block alone
    rng = np.random.default_rng(7)
    num_users, num_items, dim = 12, 30, 2**12
    users = 0.01 * rng.normal(size=(num_users, dim))
    matrix = 0.01 * rng.normal(size=(num_items, dim))
    owner = np.repeat(np.arange(num_users), rng.integers(1, 20, size=num_users))
    owner = owner[owner != 4]  # a user without pairs keeps its row
    pos = rng.integers(0, num_items, size=owner.size)
    neg = (pos + rng.integers(1, num_items, size=owner.size)) % num_items
    items, who, scale, stepped = train_step(users, matrix, owner, pos, neg, 0.05)
    assert np.array_equal(stepped[4], users[4])
    for u in set(owner.tolist()):
        mine = owner == u
        alone = train_step(users[u : u + 1], matrix, 0 * owner[mine], pos[mine], neg[mine], 0.05)
        assert np.array_equal(alone[0], items[who == u])
        assert np.array_equal(alone[2], scale[who == u])
        assert np.array_equal(alone[3][0], stepped[u])


@pytest.mark.parametrize("num_items", [100, 300])
def test_train_step_does_not_depend_on_the_sort_key_width(num_items):
    # up to 2**16 items the (item, user) sort runs on 8- or 16-bit keys; padded
    # past 2**16 with rows no pair names, on wider ones
    rng = np.random.default_rng(num_items)
    num_users, dim = 40, 8
    users = rng.normal(size=(num_users, dim))
    matrix = rng.normal(size=(num_items, dim))
    owner = np.repeat(np.arange(num_users), rng.integers(0, 15, size=num_users))
    pos = rng.integers(0, num_items, size=owner.size)
    neg = rng.integers(0, num_items, size=owner.size)
    padded = np.concatenate((matrix, np.zeros((2**16 + 1 - num_items, dim))))
    narrow = train_step(users, matrix, owner, pos, neg, 0.05)
    wide = train_step(users, padded, owner, pos, neg, 0.05)
    for a, b in zip(narrow, wide):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_train_step_key_widens_to_int64_only_when_users_times_items_reaches_2_31():
    # the same pairs on tables padded with users and items no pair names
    rng = np.random.default_rng(3)
    num_users, num_items, dim = 30, 50, 4
    users = rng.normal(size=(num_users, dim))
    matrix = rng.normal(size=(num_items, dim))
    owner = np.repeat(np.arange(num_users), rng.integers(1, 8, size=num_users))
    pos = rng.integers(0, num_items, size=owner.size)
    neg = rng.integers(0, num_items, size=owner.size)
    narrow = train_step(users, matrix, owner, pos, neg, 0.05)
    many_users = np.concatenate((users, np.ones((2**16 - num_users, dim))))
    for padded_items, width in ((2**15 - 1, np.int32), (2**15, np.int64)):
        padded = np.concatenate((matrix, np.ones((padded_items - num_items, dim))))
        wide = train_step(many_users, padded, owner, pos, neg, 0.05)
        assert wide[0].dtype == wide[1].dtype == width  # 2**16 * 2**15 == 2**31
        for a, b in zip(narrow[:3], wide[:3]):
            assert np.array_equal(a, b)
        assert np.array_equal(wide[3][:num_users], narrow[3])
    assert narrow[0].dtype == narrow[1].dtype == np.int32


def test_sigmoid_matches_the_two_branch_reference_bit_for_bit():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0, 36.7, -36.7,
               709.8, -745.2, 1e-300, -1e-300, 5e-324, -5e-324]
    payloads = np.array([0x7FF8000000000123, 0xFFF0000000000001], dtype=np.uint64).view(np.float64)
    x = np.concatenate((special, payloads, np.random.default_rng(0).normal(scale=20.0, size=10_001)))
    with np.errstate(all="ignore"):
        for part in (x, x[1:], x[::3]):  # odd lengths and a strided view
            assert _sigmoid(part).tobytes() == sigmoid(part).tobytes()


def test_train_step_peak_memory_stays_a_few_pair_arrays():
    # 2 000 users x 50 pairs at d = 32: the (item, user) grouping may hold
    # only a few arrays of one int64 per pair's positive and negative at once
    rng = np.random.default_rng(0)
    num_users, per_user, num_items, dim = 2000, 50, 1000, 32
    users = rng.normal(size=(num_users, dim))
    matrix = rng.normal(size=(num_items, dim))
    owner = np.repeat(np.arange(num_users), per_user)
    pos = rng.integers(0, num_items // 2, size=owner.size)
    neg = rng.integers(num_items // 2, num_items, size=owner.size)
    tracemalloc.start()
    try:
        train_step(users, matrix, owner, pos, neg, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entry_array = 2 * owner.size * 8
    assert peak < 8 * entry_array, peak / entry_array


# ---------------------------------------------------------------- ranking

def recommend_topk(profile, emb, k):
    """The top-k list rank_metrics implies for ``profile``.

    Each non-interacted item is made the target in turn; the number of K in
    1..num_items at which it misses is how many candidates rank ahead of it.
    A bystander who holds the target out keeps the held-out metrics defined.
    """
    ks = range(1, emb.num_items + 1)
    ahead = {}
    for item in set(range(emb.num_items)) - profile.interacted:
        bystander = UserProfile(-1, np.zeros(emb.dim), {item}, [], item)
        users = user_table([profile, bystander], emb.num_items, emb.dim)
        _, target_hr_at, _ = rank_metrics(users, 2, emb, item, ks)
        ahead[item] = sum(1 for hit in target_hr_at.values() if hit == 0.0)
    return sorted(ahead, key=ahead.get)[:k]


def test_recommend_topk_orders_by_score():
    emb = embeddings_of([[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    profile = profile_with([1.0, 0.0])
    assert recommend_topk(profile, emb, 2) == [2, 0]


def test_recommend_topk_all_interacted_gives_empty():
    emb = embeddings_of([[1.0], [2.0]])
    profile = profile_with([1.0], interacted={0, 1})
    assert recommend_topk(profile, emb, 3) == []


def test_recommend_topk_tie_prefers_lower_id():
    emb = embeddings_of([[1.0], [1.0], [1.0]])
    profile = profile_with([1.0])
    assert recommend_topk(profile, emb, 2) == [0, 1]


def test_recommend_topk_returns_all_when_k_exceeds_candidates():
    emb = embeddings_of([[3.0], [1.0], [2.0]])
    profile = profile_with([1.0], interacted={1})
    assert recommend_topk(profile, emb, 10) == [0, 2]


def test_recommend_topk_invariant_to_interacted_construction_order():
    emb = embeddings_of(np.random.default_rng(0).normal(size=(12, 3)))
    u = np.random.default_rng(1).normal(size=3)
    forward = profile_with(u, interacted=set([1, 5, 9]))
    backward = profile_with(u, interacted={9, 5, 1})
    assert recommend_topk(forward, emb, 4) == recommend_topk(backward, emb, 4)
