import warnings

import numpy as np
import pytest

from fedrec_arena.aggregation import (
    AggregationError,
    AggregatorSpec,
    agg_clip,
    agg_fedavg,
    agg_hics,
    agg_krum,
    agg_median,
    agg_trimmed_mean,
    aggregate_item,
)

V = lambda *xs: [np.asarray(x, dtype=float) for x in xs]


# ------------------------------------------------------------- oracles

def median_oracle(vectors):
    stacked = np.stack(vectors)
    out = np.empty(stacked.shape[1])
    for c in range(stacked.shape[1]):
        out[c] = sorted(stacked[:, c])[(len(vectors) - 1) // 2]
    return out


def trimmed_oracle(vectors, beta):
    stacked = np.stack(vectors)
    out = np.empty(stacked.shape[1])
    for c in range(stacked.shape[1]):
        vals = sorted(stacked[:, c])
        kept = vals[beta : len(vals) - beta] if beta else vals
        out[c] = sum(kept) / len(kept)
    return out


def krum_index_oracle(vectors, m):
    n = len(vectors)
    scores = []
    for i in range(n):
        dists = sorted(
            float(np.sum((vectors[i] - vectors[j]) ** 2)) for j in range(n) if j != i
        )
        scores.append(sum(dists[: n - m - 2]) / (n - m - 2))
    return int(np.argmin(scores))


# ------------------------------------------------------------- fedavg

def test_fedavg_mean():
    assert agg_fedavg(V([1, 1], [3, 3])) == pytest.approx([2, 2])


def test_fedavg_single_vector_identity():
    v = np.array([0.3, -0.7])
    assert np.array_equal(agg_fedavg([v]), v)


def test_fedavg_symmetry():
    assert agg_fedavg(V([1], [-1])) == pytest.approx([0])


def test_fedavg_empty_raises():
    with pytest.raises(AggregationError):
        agg_fedavg([])


# ------------------------------------------------------------- median

def test_median_odd_count_middle():
    assert agg_median(V([1], [2], [100])) == pytest.approx([2])


def test_median_even_count_lower_median():
    assert agg_median(V([1], [2], [3], [100])) == pytest.approx([2])


def test_median_permutation_invariant():
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=3) for _ in range(6)]
    base = agg_median(vectors)
    for _ in range(5):
        perm = rng.permutation(6)
        assert np.array_equal(agg_median([vectors[i] for i in perm]), base)


# ------------------------------------------------------------- trimmed mean

def test_trimmed_mean_drops_extremes():
    assert agg_trimmed_mean(V([1], [2], [3], [100]), beta=1) == pytest.approx([2.5])


def test_trimmed_mean_beta_zero_equals_fedavg():
    rng = np.random.default_rng(1)
    vectors = [rng.normal(size=4) for _ in range(5)]
    assert np.array_equal(agg_trimmed_mean(vectors, 0), agg_fedavg(vectors))


def test_trimmed_mean_constant_inputs():
    assert agg_trimmed_mean(V([5], [5], [5]), beta=1) == pytest.approx([5])


def test_trimmed_mean_rejects_overtrim():
    with pytest.raises(AggregationError):
        agg_trimmed_mean(V([1], [2], [3], [4]), beta=2)


# ------------------------------------------------------------- krum

def test_krum_spec_example_selects_zero():
    # scores with one neighbor: 0.01, 0.01, 98.01 -> tie broken to index 0
    out = agg_krum(V([0.0], [0.1], [10.0]), m=0)
    assert out == pytest.approx([0.0])


def test_krum_identical_vectors_returns_first():
    out = agg_krum(V([2, 2], [2, 2], [2, 2]), m=0)
    assert out == pytest.approx([2, 2])


def test_krum_output_is_an_input():
    rng = np.random.default_rng(2)
    vectors = [rng.normal(size=3) for _ in range(7)]
    out = agg_krum(vectors, m=2)
    assert any(np.array_equal(out, v) for v in vectors)


def test_krum_precondition():
    with pytest.raises(AggregationError):
        agg_krum(V([1], [2], [3]), m=1)  # n - m - 2 = 0


def test_krum_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 10))
        d = int(rng.integers(1, 5))
        m = int(rng.integers(0, max(1, n - 3)))
        if n - m - 2 < 1:
            continue
        vectors = [rng.normal(size=d) for _ in range(n)]
        expected = vectors[krum_index_oracle(vectors, m)]
        assert np.array_equal(agg_krum(vectors, m), expected)


# ------------------------------------------------------------- clip

def test_clip_scales_down_to_bound():
    assert agg_clip(V([6, 0]), bound=3) == pytest.approx([3, 0])


def test_clip_noop_within_bound_equals_fedavg():
    rng = np.random.default_rng(4)
    vectors = [0.1 * rng.normal(size=3) for _ in range(5)]
    assert np.array_equal(agg_clip(vectors, 3.0), agg_fedavg(vectors))


def test_clip_zero_vector_untouched():
    assert agg_clip(V([0, 0]), bound=3) == pytest.approx([0, 0])


def test_clip_norm_bound_property():
    rng = np.random.default_rng(5)
    bound = 3.0
    for _ in range(50):
        v = rng.normal(size=4) * rng.uniform(0, 10)
        clipped = agg_clip([v], bound)
        assert np.linalg.norm(clipped) <= bound + 1e-9


# ------------------------------------------------------------- hics

def test_hics_single_contributor_fixed_point():
    out, bank = agg_hics(np.zeros(2), V([1.5, -0.5]), z=2)
    assert out == pytest.approx([1.5, -0.5])
    assert bank == pytest.approx([0.0, 0.0])


def test_hics_two_round_bank_persistence():
    # hand trace with v=(1, 0.5, 0), z=1:
    # round 1: bank (1,.5,0) -> coord 0 selected, emit (1,0,0), bank (0,.5,0)
    # round 2: bank (1,1,0) -> |1|=|1| tie -> coord 0, emit (1,0,0), bank (0,1,0)
    v = [np.array([1.0, 0.5, 0.0])]
    out1, bank = agg_hics(np.zeros(3), v, z=1)
    assert out1 == pytest.approx([1, 0, 0])
    assert bank == pytest.approx([0, 0.5, 0])
    out2, bank = agg_hics(bank, v, z=1)
    assert out2 == pytest.approx([1, 0, 0])
    assert bank == pytest.approx([0, 1.0, 0])


def test_hics_identical_contributors_sparsity():
    v = np.array([0.3, -0.9, 0.5, 0.1])
    out, _ = agg_hics(np.zeros(4), [v, v, v], z=2)
    assert np.count_nonzero(out) == 2
    assert out[1] == pytest.approx(-0.9)
    assert out[2] == pytest.approx(0.5)


def test_hics_output_never_exceeds_z_nonzeros():
    rng = np.random.default_rng(6)
    bank = np.zeros(5)
    for _ in range(20):
        vectors = [rng.normal(size=5) for _ in range(int(rng.integers(1, 6)))]
        out, bank = agg_hics(bank, vectors, z=3)
        assert np.count_nonzero(out) <= 3


def test_hics_clips_outlier_to_mean_norm():
    small = np.array([1.0, 0.0])
    huge = np.array([1000.0, 0.0])
    out, _ = agg_hics(np.zeros(2), [small, small, huge], z=2)
    # mean norm = (1 + 1 + 1000) / 3 = 334; huge clipped to 334
    assert out == pytest.approx([(1 + 1 + 334) / 3, 0.0])


def test_hics_zero_row_beside_huge_row_does_not_overflow():
    # the shrink factor mean_norm / norm must not be evaluated for rows it
    # leaves alone: here mean_norm / 1e-300 would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = agg_hics(np.zeros(4), [np.zeros(4), np.array([4.4e9, 0.0, 0.0, 0.0])], z=2)
    assert out == pytest.approx([1.1e9, 0.0, 0.0, 0.0])


# ------------------------------------------------------------- dispatch

def test_aggregate_item_median_single_contribution():
    spec = AggregatorSpec(rule="median")
    out = aggregate_item(spec, 0, np.array([[7.0, -1.0]]), [])
    assert out == pytest.approx([7.0, -1.0])


def test_aggregate_item_degenerate_falls_back_to_median():
    spec = AggregatorSpec(rule="trimmed_mean", trim_beta=2)
    warnings = []
    out = aggregate_item(spec, 9, np.array([[1.0], [2.0], [100.0]]), warnings)
    assert out == pytest.approx([2.0])
    assert len(warnings) == 1 and "falling back to median" in warnings[0]


def test_aggregate_item_trim_beta_defaults_to_tenth():
    spec = AggregatorSpec(rule="trimmed_mean")  # beta = max(1, n // 10)
    rows = np.array([[float(i)] for i in range(4)] + [[1000.0]])
    out = aggregate_item(spec, 0, rows, [])
    assert out == pytest.approx([(1 + 2 + 3) / 3])


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        AggregatorSpec(rule="geometric_median")


# ------------------------------------------------------------- randomized suites

def test_median_and_trimmed_match_oracles_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        d = int(rng.integers(1, 5))
        vectors = [rng.normal(size=d) for _ in range(n)]
        assert np.array_equal(agg_median(vectors), median_oracle(vectors))
        beta = int(rng.integers(0, (n - 1) // 2 + 1)) if n > 1 else 0
        if 2 * beta < n:
            got = agg_trimmed_mean(vectors, beta)
            assert got == pytest.approx(trimmed_oracle(vectors, beta), rel=1e-12, abs=1e-12)


def test_rules_permutation_invariance():
    rng = np.random.default_rng(8)
    vectors = [rng.normal(size=3) for _ in range(7)]
    perm = rng.permutation(7)
    shuffled = [vectors[i] for i in perm]
    assert np.array_equal(agg_fedavg(vectors), np.stack(vectors).sum(0) / 7)
    assert agg_fedavg(shuffled) == pytest.approx(agg_fedavg(vectors), rel=1e-12)
    assert np.array_equal(agg_median(shuffled), agg_median(vectors))
    assert agg_trimmed_mean(shuffled, 2) == pytest.approx(agg_trimmed_mean(vectors, 2), rel=1e-12)
    assert np.array_equal(agg_krum(shuffled, 1), agg_krum(vectors, 1))


def test_robustness_sanity_one_huge_outlier():
    rng = np.random.default_rng(9)
    vectors = [1e-3 * rng.normal(size=3) for _ in range(4)]
    vectors.append(np.full(3, 1e6))
    assert np.linalg.norm(agg_median(vectors)) < 1
    assert np.linalg.norm(agg_trimmed_mean(vectors, 1)) < 1
    assert np.linalg.norm(agg_fedavg(vectors)) > 1
