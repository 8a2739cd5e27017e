import warnings
from dataclasses import replace

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
    aggregate_round,
)

import reference

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

def one_item(spec, rows, item=0):
    """aggregate_round on a table whose rows all belong to ``item``."""
    rows = np.asarray(rows, dtype=float)
    bank = np.zeros((item + 1, rows.shape[1]))
    touched, deltas, fallbacks = aggregate_round(spec, np.full(len(rows), item, np.int32), rows, bank)
    assert touched.tolist() == [item]
    return deltas[0], fallbacks


def test_aggregate_round_median_single_contribution():
    out, _ = one_item(AggregatorSpec(rule="median"), [[7.0, -1.0]])
    assert out == pytest.approx([7.0, -1.0])


def test_aggregate_round_degenerate_falls_back_to_median():
    spec = AggregatorSpec(rule="trimmed_mean", trim_beta=2)
    out, fallbacks = one_item(spec, [[1.0], [2.0], [100.0]], item=9)
    assert out == pytest.approx([2.0])
    assert fallbacks.tolist() == [9]


def test_aggregate_round_trim_beta_defaults_to_tenth():
    spec = AggregatorSpec(rule="trimmed_mean")  # beta = max(1, n // 10)
    out, _ = one_item(spec, [[float(i)] for i in range(4)] + [[1000.0]])
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


# ------------------------------------------------------------- batched round vs per-item reference

ALL_RULES = [
    AggregatorSpec(rule="fedavg"),
    AggregatorSpec(rule="median"),
    AggregatorSpec(rule="trimmed_mean", trim_beta=2),
    AggregatorSpec(rule="krum", krum_m=2),
    AggregatorSpec(rule="clip", clip_bound=3.0),
    AggregatorSpec(rule="hics", hics_z=3),
]
RULE_IDS = [spec.rule for spec in ALL_RULES]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_rounds_against_reference(spec, rounds, num_items, d):
    """Run every round's table through aggregate_round and, item by item,
    through reference.aggregate_item, both carrying their own HiCS bank.

    ``rounds`` is a list of {item: (n, d) rows}. Every delta and bank row
    must be bit-identical, and the fallback ids must be the items the
    reference warned about. Returns the fallback ids of every round.
    """
    bank = np.zeros((num_items, d))
    state = {}
    seen = []
    for blocks in rounds:
        ids = sorted(blocks)
        items = np.concatenate([np.full(len(blocks[i]), i, np.int32) for i in ids])
        vecs = np.concatenate([blocks[i] for i in ids])
        touched, deltas, fallbacks = aggregate_round(spec, items, vecs, bank)
        assert touched.tolist() == ids
        warned = []
        for item, got in zip(ids, deltas):
            messages = []
            want = reference.aggregate_item(spec, item, blocks[item], messages, state)
            assert same_bits(got, want), (item, got, want)
            if messages:
                warned.append(item)
        assert fallbacks.dtype == np.int32 and fallbacks.tolist() == warned
        for item, entry in state.items():
            assert same_bits(bank[item], entry), item
        seen.append(warned)
    return seen


def random_blocks(rng, counts, d, scale=1.0):
    return {item: scale * rng.normal(size=(n, d)) for item, n in enumerate(counts)}


@pytest.mark.parametrize("spec", ALL_RULES, ids=RULE_IDS)
def test_round_mixing_counts_matches_reference(spec):
    rng = np.random.default_rng(10)
    counts = [1, 2, 3, 4, 5, 6, 9, 12, 3, 5, 1, 12, 7, 2]
    rounds = [random_blocks(rng, counts, 4) for _ in range(2)]
    fallbacks = check_rounds_against_reference(spec, rounds, len(counts), 4)
    if spec.rule in ("trimmed_mean", "krum"):
        # n <= 4 fails both rules here, so both bucket kinds share each round
        assert all(0 < len(f) < len(counts) for f in fallbacks)
        assert fallbacks[0] == [i for i, n in enumerate(counts) if n <= 4]


@pytest.mark.parametrize("spec", ALL_RULES, ids=RULE_IDS)
def test_round_with_exact_ties_matches_reference(spec):
    # d = 24 so that the HiCS ranking sorts more coordinates than an
    # insertion sort handles, where only a stable sort keeps ties in order
    pairs = {
        0: [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],  # krum: rows 1 and 2 tie
        1: [[2.0, 2.0]] * 4,  # every score and every bank coordinate ties
        2: [[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]],
        3: [[3.0, 3.0], [0.0, 0.0], [3.0, 3.0], [0.0, 0.0]],
        4: [[5.0, 5.0], [5.0, 5.0], [-5.0, -5.0], [-5.0, -5.0], [5.0, 5.0]],
    }
    blocks = {item: np.tile(np.array(rows), (1, 12)) for item, rows in pairs.items()}
    spec = replace(spec, krum_m=0, trim_beta=1)
    check_rounds_against_reference(spec, [blocks], 5, 24)
    if spec.rule == "krum":
        out, _ = one_item(spec, blocks[0])
        assert out.tolist() == [1.0, 1.0] * 12  # lowest index among the tied rows


@pytest.mark.parametrize("spec", ALL_RULES, ids=RULE_IDS)
def test_round_of_single_contributions_matches_reference(spec):
    rng = np.random.default_rng(11)
    rounds = [random_blocks(rng, [1] * 6, 5, scale=4.0) for _ in range(2)]
    fallbacks = check_rounds_against_reference(spec, rounds, 6, 5)
    assert all(len(f) == (6 if spec.rule in ("trimmed_mean", "krum") else 0) for f in fallbacks)


def test_krum_degenerate_in_one_bucket_only():
    rng = np.random.default_rng(12)
    spec = AggregatorSpec(rule="krum", krum_m=1)
    counts = [2, 4, 5, 2, 4, 5]  # n - m - 2 < 1 only for n = 2
    fallbacks = check_rounds_against_reference(spec, [random_blocks(rng, counts, 3)], 6, 3)
    assert fallbacks == [[0, 3]]


def test_trimmed_mean_default_beta_across_twenty():
    rng = np.random.default_rng(13)
    spec = AggregatorSpec(rule="trimmed_mean")  # beta 1 below n = 20, 2 from it
    counts = [2, 3, 18, 19, 20, 21, 25, 19, 20]
    fallbacks = check_rounds_against_reference(spec, [random_blocks(rng, counts, 3)], 9, 3)
    assert fallbacks == [[0]]  # only n = 2 overtrims


@pytest.mark.parametrize("z", [2, 4], ids=["z<d", "z=d"])
def test_hics_bank_over_three_rounds_with_a_skipped_item(z):
    rng = np.random.default_rng(14)
    d = 4
    rounds = [
        {0: rng.normal(size=(3, d)), 1: rng.normal(size=(2, d)), 2: rng.normal(size=(3, d))},
        {0: rng.normal(size=(2, d)), 2: rng.normal(size=(3, d))},  # item 1 skips a round
        {0: rng.normal(size=(3, d)), 1: rng.normal(size=(3, d)), 2: rng.normal(size=(1, d))},
    ]
    spec = AggregatorSpec(rule="hics", hics_z=z)
    assert check_rounds_against_reference(spec, rounds, 3, d) == [[], [], []]


@pytest.mark.parametrize("spec", ALL_RULES, ids=RULE_IDS)
def test_round_with_huge_fake_rows_beside_zero_rows_matches_reference(spec):
    rng = np.random.default_rng(16)
    rounds = []
    for _ in range(3):
        blocks = random_blocks(rng, [2, 5, 5, 7, 9, 1], 4, scale=0.05)
        for item, rows in blocks.items():
            rows[0] = 0.0
            rows[-1] = 1e25 * rng.normal(size=4)
        rounds.append(blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_rounds_against_reference(spec, rounds, 6, 4)
