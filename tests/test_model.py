import math

import numpy as np
import pytest

from fedrec_arena.model import (
    ItemEmbeddings,
    UserProfile,
    bpr_loss,
    local_train,
    predict_score,
    recommend_topk,
)


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
    update = dict(zip(*local_train(profile, emb, [], 0.1)))
    assert update == {}
    assert np.array_equal(profile.user_embedding, before)


def test_local_train_hand_derived_one_pair():
    # d=1, u=1, v_pos=v_neg=0, lr=1: margin 0, sigmoid 0.5,
    # so pos delta +0.5, neg delta -0.5, user delta 0
    emb = embeddings_of([[0.0], [0.0]])
    profile = profile_with([1.0])
    update = dict(zip(*local_train(profile, emb, [(0, 1)], 1.0)))
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
        update = dict(zip(*local_train(profile, ItemEmbeddings(1, matrix), pairs, 0.05)))
        for item, exp in expected.items():
            got = update.get(item, np.zeros_like(exp))
            denom = max(np.max(np.abs(exp)), 1e-8)
            assert np.max(np.abs(got - exp)) / denom < 1e-4


def test_local_train_support_is_pair_items():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(8, 3))
    profile = profile_with(rng.normal(size=3))
    pairs = [(0, 4), (2, 4), (0, 7)]
    update = dict(zip(*local_train(profile, ItemEmbeddings(1, matrix), pairs, 0.1)))
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
        update = dict(zip(*local_train(profile, ItemEmbeddings(1, matrix), pairs, 1e-3)))
        stepped = matrix.copy()
        for item, delta in update.items():
            stepped[item] += delta
        after = bpr_loss(profile.user_embedding, ItemEmbeddings(1, stepped), pairs)
        assert after <= before + 1e-12


def test_local_train_updates_user_embedding_from_old_point():
    # user delta is lr * sum c_i (v_pos - v_neg) evaluated before the step
    emb = embeddings_of([[2.0], [-2.0]])
    profile = profile_with([0.0])
    _, _ = local_train(profile, emb, [(0, 1)], 0.5)
    # margin 0 at u=0, c=0.5: delta = 0.5 * 0.5 * (2 - (-2)) = 1.0
    assert profile.user_embedding == pytest.approx([1.0])


# ---------------------------------------------------------------- ranking

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
