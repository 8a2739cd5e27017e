import numpy as np
import pytest

from fedrec_arena.evaluation import (
    UndefinedMetricError,
    dump_target_updates,
    footprint_stats,
    ndcg_at,
    project_2d,
    target_hit_ratio,
)
from fedrec_arena.evaluation import test_hit_ratio as held_out_hit_ratio
from fedrec_arena.model import ItemEmbeddings, UserProfile


def profile(uid, u, interacted=(), train=(), test=None):
    return UserProfile(uid, np.asarray(u, dtype=float), set(interacted), list(train), test)


def embeddings(rows):
    return ItemEmbeddings(round=1, matrix=np.asarray(rows, dtype=float))


# ------------------------------------------------------------- target HR

def test_target_hr_zero_when_never_recommended():
    emb = embeddings([[1.0], [0.5], [-5.0]])
    users = [profile(i, [1.0]) for i in range(3)]
    assert target_hit_ratio(users, emb, target_item=2, k=2) == 0.0


def test_target_hr_one_when_always_first():
    emb = embeddings([[9.0], [0.5], [0.1]])
    users = [profile(i, [1.0]) for i in range(4)]
    assert target_hit_ratio(users, emb, target_item=0, k=1) == 1.0


def test_target_hr_counts_fraction():
    emb = embeddings([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    hit = profile(0, [1.0, 0.0])     # scores: 1.0, 0.0, 0.5 -> top1 = item 0
    miss = profile(1, [0.0, 1.0])    # scores: 0.0, 1.0, 0.5 -> top1 = item 1
    assert target_hit_ratio([hit, miss], emb, target_item=0, k=1) == 0.5


def test_target_hr_excludes_users_who_interacted_with_target():
    emb = embeddings([[9.0], [1.0]])
    eligible = profile(0, [1.0])
    ineligible = profile(1, [1.0], interacted={0}, train=[0])
    assert target_hit_ratio([eligible, ineligible], emb, 0, k=1) == 1.0
    with pytest.raises(UndefinedMetricError):
        target_hit_ratio([ineligible], emb, 0, k=1)


def test_target_hr_saturates_at_full_candidate_k():
    rng = np.random.default_rng(0)
    emb = embeddings(rng.normal(size=(8, 3)))
    users = [profile(i, rng.normal(size=3), interacted={1, 2}, train=[1, 2]) for i in range(5)]
    assert target_hit_ratio(users, emb, target_item=0, k=6) == 1.0


# ------------------------------------------------------------- test HR

def test_hr_saturates_when_k_covers_candidates():
    rng = np.random.default_rng(1)
    emb = embeddings(rng.normal(size=(6, 2)))
    users = [profile(i, rng.normal(size=2), interacted={0, i + 1}, train=[0], test=i + 1) for i in range(3)]
    assert held_out_hit_ratio(users, emb, k=6) == 1.0


def test_hr_monotone_in_k():
    rng = np.random.default_rng(2)
    emb = embeddings(rng.normal(size=(30, 4)))
    users = [
        profile(i, rng.normal(size=4), interacted={i, i + 1}, train=[i], test=i + 1)
        for i in range(15)
    ]
    values = [held_out_hit_ratio(users, emb, k) for k in (1, 5, 10, 30)]
    assert values == sorted(values)


def test_hr_random_embeddings_matches_analytic_expectation():
    # with 100 candidates and random scores, E[HR@10] = 0.10
    hits = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        emb = embeddings(rng.normal(size=(101, 6)))
        users = [
            profile(i, rng.normal(size=6), interacted={i % 101, (i + 7) % 101},
                    train=[i % 101], test=(i + 7) % 101)
            for i in range(40)
        ]
        hits.append(held_out_hit_ratio(users, emb, k=10))
    assert abs(np.mean(hits) - 0.10) < 0.05


def test_hr_candidates_exclude_train_but_include_test():
    # train item scores higher than test; excluding it lets the test item hit
    emb = embeddings([[10.0], [5.0], [1.0]])
    user = profile(0, [1.0], interacted={0, 1}, train=[0], test=1)
    assert held_out_hit_ratio([user], emb, k=1) == 1.0


def test_hr_requires_a_test_user():
    emb = embeddings([[1.0]])
    with pytest.raises(UndefinedMetricError):
        held_out_hit_ratio([profile(0, [1.0], interacted={0}, train=[0])], emb, 1)


# ------------------------------------------------------------- NDCG

def test_ndcg_rank_one_is_unity():
    emb = embeddings([[5.0], [1.0], [0.5]])
    users = [profile(i, [1.0], interacted={0}, train=[], test=0) for i in range(3)]
    assert ndcg_at(users, emb, k=3) == 1.0


def test_ndcg_zero_when_out_of_list():
    emb = embeddings([[5.0], [4.0], [0.1]])
    user = profile(0, [1.0], interacted={2}, train=[], test=2)
    assert ndcg_at([user], emb, k=2) == 0.0


def test_ndcg_rank_two_value():
    emb = embeddings([[5.0], [4.0], [0.1]])
    user = profile(0, [1.0], interacted={1}, train=[], test=1)
    assert ndcg_at([user], emb, k=2) == pytest.approx(1.0 / np.log2(3.0))


def test_ndcg_never_exceeds_hr():
    rng = np.random.default_rng(3)
    for trial in range(10):
        emb = embeddings(rng.normal(size=(20, 3)))
        users = [
            profile(i, rng.normal(size=3), interacted={i, i + 1}, train=[i], test=i + 1)
            for i in range(10)
        ]
        for k in (1, 3, 10):
            assert ndcg_at(users, emb, k) <= held_out_hit_ratio(users, emb, k) + 1e-12


# ------------------------------------------------------------- footprint

def test_footprint_missing_users_count_zero():
    stats = footprint_stats({0: 5}, [0, 1])
    assert stats.min == 0 and stats.max == 5


# ------------------------------------------------------------- projection

def test_project_single_row_is_origin():
    out = project_2d(np.array([[3.0, -1.0, 2.0]]))
    assert out == pytest.approx(np.zeros((1, 2)))


def test_project_duplicate_rows_identical_points():
    rng = np.random.default_rng(4)
    row = rng.normal(size=5)
    rows = np.stack([row, row, rng.normal(size=5)])
    out = project_2d(rows)
    assert out[0] == pytest.approx(out[1])


def test_project_preserves_top2_inner_products_vs_svd_oracle():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(12, 6))
    ours = project_2d(rows)
    centered = rows - rows.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    oracle = centered @ vt[:2].T
    got = ours @ ours.T
    want = oracle @ oracle.T
    assert np.max(np.abs(got - want)) < 1e-6


def test_project_deterministic_sign_convention():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(9, 4))
    assert project_2d(rows) == pytest.approx(project_2d(rows.copy()))


# ------------------------------------------------------------- update dump

def test_dump_orders_rows_and_labels():
    contributions = [
        (5, np.array([1.0, 0.0])),
        (1, np.array([0.0, 1.0])),
        (3, np.array([1.0, 1.0])),
    ]
    labels = {1: "genuine", 3: "genuine", 5: "fake"}
    dump = dump_target_updates(contributions, target_item=7, labels=labels, round_index=42)
    assert dump.item == 7 and dump.round == 42
    assert [u for u, _, _ in dump.rows] == [1, 3, 5]
    assert [label for _, label, _ in dump.rows] == ["genuine", "genuine", "fake"]
    assert dump.projection.shape == (3, 2)


def test_dump_requires_contributions():
    with pytest.raises(ValueError):
        dump_target_updates([], 0, {}, 1)
