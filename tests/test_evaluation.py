import math

import numpy as np
import pytest

from fedrec_arena import evaluation
from fedrec_arena.evaluation import (
    footprint_stats,
    project_2d,
    rank_metrics,
)
from fedrec_arena.attack import AttackConfig
from fedrec_arena.federation import ConfigError, DatasetConfig, ExperimentConfig, run_experiment
from fedrec_arena.model import ItemEmbeddings, UserProfile

from reference import user_table


def profile(uid, u, interacted=(), train=(), test=None):
    return UserProfile(uid, np.asarray(u, dtype=float), set(interacted), list(train), test)


def embeddings(rows):
    return ItemEmbeddings(round=1, matrix=np.asarray(rows, dtype=float))


def run_on_file(tmp_path, header, rows, **attack):
    """run_experiment on a ``users=`` file of (user, item, order) rows; no round may run."""
    data = tmp_path / "data.tsv"
    data.write_text(header + "\n" + "".join(f"{u}\t{i}\t{o}\n" for u, i, o in rows))
    config = ExperimentConfig(
        dataset=DatasetConfig(kind="file", path=str(data)), dim=4, rounds=3, eval_every=1,
        topk=(1,), attack=AttackConfig(**attack),
    )
    return run_experiment(config)


@pytest.fixture
def no_round(monkeypatch):
    from fedrec_arena import federation

    def fail(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(federation, "run_round", fail)


def batched(profiles, emb, target_item, ks):
    table = user_table(profiles, emb.num_items, emb.dim)
    return rank_metrics(table, len(profiles), emb, target_item, ks)


def target_hit_ratio(users, emb, target_item, k):
    """Target HR@k from rank_metrics. The bystander holds the target out, so
    the held-out metrics are defined while the target's denominator is not
    touched."""
    bystander = profile(-1, np.zeros(emb.dim), interacted={target_item}, test=target_item)
    return batched([*users, bystander], emb, target_item, (k,))[1][k]


def held_out(users, emb, k):
    """(HR@k, NDCG@k) from rank_metrics. The bystander has no interactions and
    no test item, so target item 0 is defined while the held-out metrics are
    not touched."""
    bystander = profile(-1, np.zeros(emb.dim))
    hr_at, _, ndcg_at = batched([*users, bystander], emb, 0, (k,))
    return hr_at[k], ndcg_at[k]


# ------------------------------------------------- per-user reference (oracle)

def reference_topk(p, emb, k):
    """Top-k non-interacted items by score, ties broken toward smaller item id."""
    candidates = np.array([i for i in range(emb.num_items) if i not in p.interacted], dtype=np.int64)
    if candidates.size == 0:
        return []
    scores = emb.matrix[candidates] @ p.user_embedding
    order = np.lexsort((candidates, -scores))
    return [int(candidates[i]) for i in order[:k]]


def reference_ranks(profiles, emb):
    """1-based rank of each test user's held-out item among its non-train items."""
    ranks = []
    for p in profiles:
        if p.test_item is None:
            continue
        scores = emb.matrix @ p.user_embedding
        t = p.test_item
        better = (scores > scores[t]) | ((scores == scores[t]) & (np.arange(scores.size) < t))
        better[list(p.train_items)] = False
        ranks.append(int(better.sum()) + 1)
    return ranks


def reference_metrics(profiles, emb, target_item, ks):
    """(HR@k, target HR@k, NDCG@k) by k, one user and one K at a time."""
    ranks = reference_ranks(profiles, emb)
    eligible = [p for p in profiles if target_item not in p.interacted]
    hr_at, target_hr_at, ndcg_at = {}, {}, {}
    for k in ks:
        hr_at[k] = sum(1 for r in ranks if r <= k) / len(ranks)
        hits = sum(1 for p in eligible if target_item in reference_topk(p, emb, k))
        target_hr_at[k] = hits / len(eligible)
        ndcg_at[k] = ndcg_in_row_order(ranks, k)
    return hr_at, target_hr_at, ndcg_at


def ndcg_in_row_order(ranks, k):
    """Mean NDCG gain, added one rank at a time in row order."""
    acc = 0.0
    for r in ranks:
        acc += 1.0 / np.log2(r + 1) if r <= k else 0.0
    return float(acc / len(ranks))


def assert_matches_reference(profiles, emb, target_item, ks):
    got = batched(profiles, emb, target_item, ks)
    assert got == reference_metrics(profiles, emb, target_item, ks)
    return got


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


def test_target_hr_requires_an_eligible_user(tmp_path, no_round):
    # checked once at setup, since rank_metrics takes it as a precondition
    rows = [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 2, 1)]
    with pytest.raises(ConfigError, match="attack.target_item: every user has interacted with item 0"):
        run_on_file(tmp_path, "users=2 items=3", rows, target_item=0)


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
    assert held_out(users, emb, k=6)[0] == 1.0


def test_hr_monotone_in_k():
    rng = np.random.default_rng(2)
    emb = embeddings(rng.normal(size=(30, 4)))
    users = [
        profile(i, rng.normal(size=4), interacted={i, i + 1}, train=[i], test=i + 1)
        for i in range(15)
    ]
    values = [held_out(users, emb, k)[0] for k in (1, 5, 10, 30)]
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
        hits.append(held_out(users, emb, k=10)[0])
    assert abs(np.mean(hits) - 0.10) < 0.05


def test_hr_candidates_exclude_train_but_include_test():
    # train item scores higher than test; excluding it lets the test item hit
    emb = embeddings([[10.0], [5.0], [1.0]])
    user = profile(0, [1.0], interacted={0, 1}, train=[0], test=1)
    assert held_out([user], emb, k=1)[0] == 1.0


def test_hr_requires_a_test_user(tmp_path, no_round):
    # checked once at setup, since rank_metrics takes it as a precondition
    with pytest.raises(ConfigError, match="dataset: no user has a held-out item"):
        run_on_file(tmp_path, "users=3 items=3", [(0, 0, 0), (1, 1, 0)])


# ------------------------------------------------------------- NDCG

def test_ndcg_rank_one_is_unity():
    emb = embeddings([[5.0], [1.0], [0.5]])
    users = [profile(i, [1.0], interacted={0}, train=[], test=0) for i in range(3)]
    assert held_out(users, emb, k=3)[1] == 1.0


def test_ndcg_zero_when_out_of_list():
    emb = embeddings([[5.0], [4.0], [0.1]])
    user = profile(0, [1.0], interacted={2}, train=[], test=2)
    assert held_out([user], emb, k=2)[1] == 0.0


def test_ndcg_rank_two_value():
    emb = embeddings([[5.0], [4.0], [0.1]])
    user = profile(0, [1.0], interacted={1}, train=[], test=1)
    assert held_out([user], emb, k=2)[1] == pytest.approx(1.0 / np.log2(3.0))


def test_ndcg_never_exceeds_hr():
    rng = np.random.default_rng(3)
    for trial in range(10):
        emb = embeddings(rng.normal(size=(20, 3)))
        users = [
            profile(i, rng.normal(size=3), interacted={i, i + 1}, train=[i], test=i + 1)
            for i in range(10)
        ]
        for k in (1, 3, 10):
            hr, ndcg = held_out(users, emb, k)
            assert ndcg <= hr + 1e-12


def test_ndcg_sums_its_gains_in_row_order():
    # item i scores -i for a user of embedding [1], so a held-out item t ranks t + 1
    rng = np.random.default_rng(0)
    num_items = 1000
    emb = embeddings(-np.arange(num_items, dtype=float)[:, None])
    tests = rng.integers(0, num_items, size=500).tolist()
    users = [profile(u, [1.0], interacted={t}, test=t) for u, t in enumerate(tests)]
    ranks = [t + 1 for t in tests]
    _, _, ndcg_at = batched(users, emb, 0, (5, 10, num_items))
    for k in (5, 10, num_items):
        assert ndcg_at[k] == ndcg_in_row_order(ranks, k)
    # at k = items, the row-order sum differs from the correctly rounded one a compensated sum gives
    gains = [1.0 / np.log2(r + 1) for r in ranks]
    assert ndcg_at[num_items] != math.fsum(gains) / len(gains)


# ------------------------------------------ batched ranking vs the reference

def test_rank_metrics_one_call_serves_every_k():
    rng = np.random.default_rng(7)
    emb = embeddings(rng.normal(size=(25, 4)))
    users = [
        profile(i, rng.normal(size=4), interacted={i, i + 2}, train=[i], test=i + 2)
        for i in range(20)
    ]
    hr_at, target_hr_at, ndcg_at = batched(users, emb, 24, (1, 5, 10, 25))
    for k in (1, 5, 10, 25):
        assert batched(users, emb, 24, (k,)) == ({k: hr_at[k]}, {k: target_hr_at[k]}, {k: ndcg_at[k]})


def test_rank_metrics_exact_ties_match_reference():
    # items 1 and 3 share one embedding; user 2's all-zero embedding ties every item
    emb = embeddings([[1.0, 0.5], [0.5, 0.25], [0.0, 1.0], [0.5, 0.25], [-1.0, 0.0]])
    users = [
        profile(0, [1.0, 0.0], interacted={3}, train=[], test=3),
        profile(1, [0.5, 1.0], interacted={1, 0}, train=[0], test=1),
        profile(2, [0.0, 0.0], interacted={2, 4}, train=[4], test=2),
        profile(3, [0.0, 0.0], interacted={1}, train=[], test=1),
    ]
    for target in (1, 3):
        assert_matches_reference(users, emb, target, (1, 2, 3))
    # the all-zero user ranks the held-out item behind every lower id it has not trained on
    assert batched(users[2:3], emb, 0, (1, 2, 3))[0] == {1: 0.0, 2: 0.0, 3: 1.0}


def test_rank_metrics_skips_untested_and_target_holders():
    rng = np.random.default_rng(8)
    emb = embeddings(rng.normal(size=(12, 3)))
    users = [
        profile(0, rng.normal(size=3), interacted={0, 5}, train=[0], test=5),
        profile(1, rng.normal(size=3), interacted={4}, train=[4]),  # no test item
        profile(2, rng.normal(size=3), interacted={4, 7}, train=[7], test=4),  # holds the target out
        profile(3, rng.normal(size=3), interacted={4, 1}, train=[4, 1]),  # trained on the target
        profile(4, rng.normal(size=3), interacted={2, 3}, train=[2], test=3),
    ]
    hr_at, target_hr_at, _ = assert_matches_reference(users, emb, 4, (1, 3, 12))
    assert hr_at[12] == 1.0 and target_hr_at[12] == 1.0


def test_rank_metrics_k_above_candidate_count():
    rng = np.random.default_rng(9)
    emb = embeddings(rng.normal(size=(6, 2)))
    users = [
        profile(i, rng.normal(size=2), interacted={0, 1, 2, i + 3}, train=[0, 1, 2], test=i + 3)
        for i in range(3)
    ]
    got = assert_matches_reference(users, emb, 5, (2, 4, 50))
    assert got[0][50] == 1.0


def test_rank_metrics_across_score_blocks():
    # 300 x 300 = 90 000 scores, more than one block of 2**16
    rng = np.random.default_rng(10)
    num_users, num_items = 300, 300
    assert num_users * num_items > evaluation._BLOCK_CELLS
    emb = embeddings(rng.normal(size=(num_items, 8)))
    users = []
    for u in range(num_users):
        interacted = rng.choice(num_items, size=6, replace=False).tolist()
        train = interacted[:-1] if u % 7 else interacted  # every 7th user has no test item
        test = interacted[-1] if u % 7 else None
        users.append(profile(u, rng.normal(size=8), interacted, train, test))
    for target in (0, 150, 299):
        assert_matches_reference(users, emb, target, (1, 5, 10, 20))


def test_rank_metrics_matches_reference_at_every_eval_of_a_run(monkeypatch):
    evals = []
    batched_path = evaluation.rank_metrics

    def compared(users, genuine, emb, target_item, ks):
        got = batched_path(users, genuine, emb, target_item, ks)
        assert got == reference_metrics(users.profiles(genuine), emb, target_item, ks)
        evals.append(got)
        return got

    monkeypatch.setattr(evaluation, "rank_metrics", compared)
    config = ExperimentConfig(
        dataset=DatasetConfig(users=200, items=100, interactions_per_user=20),
        rounds=20,
        eval_every=5,
        attack=AttackConfig(kind="poisonfrs", fake_fraction=0.01, start_round=10),
    )
    result = run_experiment(config)
    assert len(evals) == 4 == len(result.metrics)


# ------------------------------------------------------------- footprint

def test_footprint_missing_users_count_zero():
    # user 1 never uploaded
    stats = footprint_stats(np.array([5, 0]))
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
