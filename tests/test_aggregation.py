import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fedrec_arena.aggregation import AggregatorSpec, aggregate_round, aggregate_rows

import reference

V = lambda *xs: [np.asarray(x, dtype=float) for x in xs]
FEDAVG = AggregatorSpec(rule="fedavg")
MEDIAN = AggregatorSpec(rule="median")


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
    out, fell_back = aggregate_rows(FEDAVG, V([1, 1], [3, 3]))
    assert not fell_back and out == pytest.approx([2, 2])


def test_fedavg_single_vector_identity():
    v = np.array([0.3, -0.7])
    out, fell_back = aggregate_rows(FEDAVG, [v])
    assert not fell_back and np.array_equal(out, v)


def test_fedavg_symmetry():
    assert aggregate_rows(FEDAVG, V([1], [-1]))[0] == pytest.approx([0])


# ------------------------------------------------------------- median

def test_median_odd_count_middle():
    assert aggregate_rows(MEDIAN, V([1], [2], [100]))[0] == pytest.approx([2])


def test_median_even_count_lower_median():
    assert aggregate_rows(MEDIAN, V([1], [2], [3], [100]))[0] == pytest.approx([2])


def test_median_permutation_invariant():
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=3) for _ in range(6)]
    base, _ = aggregate_rows(MEDIAN, vectors)
    for _ in range(5):
        perm = rng.permutation(6)
        assert np.array_equal(aggregate_rows(MEDIAN, [vectors[i] for i in perm])[0], base)


# ------------------------------------------------------------- trimmed mean

def test_trimmed_mean_drops_extremes():
    spec = AggregatorSpec(rule="trimmed_mean", trim_beta=1)
    out, fell_back = aggregate_rows(spec, V([1], [2], [3], [100]))
    assert not fell_back and out == pytest.approx([2.5])


def test_trimmed_mean_beta_zero_equals_fedavg():
    rng = np.random.default_rng(1)
    vectors = [rng.normal(size=4) for _ in range(5)]
    out, fell_back = aggregate_rows(AggregatorSpec(rule="trimmed_mean", trim_beta=0), vectors)
    assert not fell_back and np.array_equal(out, aggregate_rows(FEDAVG, vectors)[0])


def test_trimmed_mean_constant_inputs():
    spec = AggregatorSpec(rule="trimmed_mean", trim_beta=1)
    out, fell_back = aggregate_rows(spec, V([5], [5], [5]))
    assert not fell_back and out == pytest.approx([5])


def test_trimmed_mean_rejects_overtrim():
    spec = AggregatorSpec(rule="trimmed_mean", trim_beta=2)
    out, fell_back = aggregate_rows(spec, V([1], [2], [3], [4]))
    assert fell_back and out == pytest.approx([2])  # the median instead


# ------------------------------------------------------------- krum

def krum(m):
    return AggregatorSpec(rule="krum", krum_m=m)


def test_krum_spec_example_selects_zero():
    # scores with one neighbor: 0.01, 0.01, 98.01 -> tie broken to index 0
    out, fell_back = aggregate_rows(krum(0), V([0.0], [0.1], [10.0]))
    assert not fell_back and out == pytest.approx([0.0])


def test_krum_identical_vectors_returns_first():
    out, fell_back = aggregate_rows(krum(0), V([2, 2], [2, 2], [2, 2]))
    assert not fell_back and out == pytest.approx([2, 2])


def test_krum_output_is_an_input():
    rng = np.random.default_rng(2)
    vectors = [rng.normal(size=3) for _ in range(7)]
    out, fell_back = aggregate_rows(krum(2), vectors)
    assert not fell_back and any(np.array_equal(out, v) for v in vectors)


def test_krum_precondition():
    out, fell_back = aggregate_rows(krum(1), V([1], [2], [3]))  # n - m - 2 = 0
    assert fell_back and out == pytest.approx([2])  # the median instead


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
        out, fell_back = aggregate_rows(krum(m), vectors)
        assert not fell_back and np.array_equal(out, expected)


# ------------------------------------------------------------- clip

def clip(bound):
    return AggregatorSpec(rule="clip", clip_bound=bound)


def test_clip_scales_down_to_bound():
    assert aggregate_rows(clip(3), V([6, 0]))[0] == pytest.approx([3, 0])


def test_clip_noop_within_bound_equals_fedavg():
    rng = np.random.default_rng(4)
    vectors = [0.1 * rng.normal(size=3) for _ in range(5)]
    assert np.array_equal(aggregate_rows(clip(3.0), vectors)[0], aggregate_rows(FEDAVG, vectors)[0])


def test_clip_zero_vector_untouched():
    assert aggregate_rows(clip(3), V([0, 0]))[0] == pytest.approx([0, 0])


def test_clip_norm_bound_property():
    rng = np.random.default_rng(5)
    bound = 3.0
    for _ in range(50):
        v = rng.normal(size=4) * rng.uniform(0, 10)
        clipped, _ = aggregate_rows(clip(bound), [v])
        assert np.linalg.norm(clipped) <= bound + 1e-9


# ------------------------------------------------------------- hics

def hics(z):
    return AggregatorSpec(rule="hics", hics_z=z)


def test_hics_single_contributor_fixed_point():
    bank = np.zeros(2)
    out, fell_back = aggregate_rows(hics(2), V([1.5, -0.5]), bank)
    assert not fell_back and out == pytest.approx([1.5, -0.5])
    assert bank == pytest.approx([0.0, 0.0])


def test_hics_two_round_bank_persistence():
    # hand trace with v=(1, 0.5, 0), z=1:
    # round 1: bank (1,.5,0) -> coord 0 selected, emit (1,0,0), bank (0,.5,0)
    # round 2: bank (1,1,0) -> |1|=|1| tie -> coord 0, emit (1,0,0), bank (0,1,0)
    v = [np.array([1.0, 0.5, 0.0])]
    bank = np.zeros(3)
    out1, _ = aggregate_rows(hics(1), v, bank)
    assert out1 == pytest.approx([1, 0, 0])
    assert bank == pytest.approx([0, 0.5, 0])
    out2, _ = aggregate_rows(hics(1), v, bank)
    assert out2 == pytest.approx([1, 0, 0])
    assert bank == pytest.approx([0, 1.0, 0])


def test_hics_identical_contributors_sparsity():
    v = np.array([0.3, -0.9, 0.5, 0.1])
    out, _ = aggregate_rows(hics(2), [v, v, v])
    assert np.count_nonzero(out) == 2
    assert out[1] == pytest.approx(-0.9)
    assert out[2] == pytest.approx(0.5)


def test_hics_output_never_exceeds_z_nonzeros():
    rng = np.random.default_rng(6)
    bank = np.zeros(5)
    for _ in range(20):
        vectors = [rng.normal(size=5) for _ in range(int(rng.integers(1, 6)))]
        out, _ = aggregate_rows(hics(3), vectors, bank)
        assert np.count_nonzero(out) <= 3


def test_hics_clips_outlier_to_mean_norm():
    small = np.array([1.0, 0.0])
    huge = np.array([1000.0, 0.0])
    out, _ = aggregate_rows(hics(2), [small, small, huge])
    # mean norm = (1 + 1 + 1000) / 3 = 334; huge clipped to 334
    assert out == pytest.approx([(1 + 1 + 334) / 3, 0.0])


def test_hics_zero_row_beside_huge_row_does_not_overflow():
    # the shrink factor mean_norm / norm must not be evaluated for rows it
    # leaves alone: here mean_norm / 1e-300 would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = aggregate_rows(hics(2), [np.zeros(4), np.array([4.4e9, 0.0, 0.0, 0.0])])
    assert out == pytest.approx([1.1e9, 0.0, 0.0, 0.0])


# ------------------------------------------------------------- dispatch

def test_aggregate_round_median_single_contribution():
    out, _ = aggregate_rows(MEDIAN, [[7.0, -1.0]])
    assert out == pytest.approx([7.0, -1.0])


def test_aggregate_round_degenerate_falls_back_to_median():
    spec = AggregatorSpec(rule="trimmed_mean", trim_beta=2)
    items = np.full(3, 9, np.int32)
    sources = np.array([[4.0], [100.0]])  # rows 0.25 * 4, 0.5 * 4 and 1 * 100
    who, scale = np.array([0, 0, 1]), np.array([0.25, 0.5, 1.0])
    touched, deltas, fallbacks = aggregate_round(spec, items, who, scale, sources, None)
    assert touched.tolist() == [9]
    assert deltas[0] == pytest.approx([2.0])
    assert fallbacks.tolist() == [9]


def test_aggregate_round_trim_beta_defaults_to_tenth():
    spec = AggregatorSpec(rule="trimmed_mean")  # beta = max(1, n // 10)
    out, _ = aggregate_rows(spec, [[float(i)] for i in range(4)] + [[1000.0]])
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
        assert np.array_equal(aggregate_rows(MEDIAN, vectors)[0], median_oracle(vectors))
        beta = int(rng.integers(0, (n - 1) // 2 + 1)) if n > 1 else 0
        if 2 * beta < n:
            got, _ = aggregate_rows(AggregatorSpec(rule="trimmed_mean", trim_beta=beta), vectors)
            assert got == pytest.approx(trimmed_oracle(vectors, beta), rel=1e-12, abs=1e-12)


def median_values(kind, rng, shape):
    """Row values: normal draws, small integers (exact ties), or draws from
    -0.0, 0.0 and +-1 with NaN or without (zero medians of either sign)."""
    if kind == "random":
        return rng.normal(size=shape)
    if kind == "ties":
        return rng.integers(-2, 3, size=shape).astype(float)
    choices = [-0.0, 0.0, 1.0, -1.0] + ([np.nan] if kind == "zeros_nan" else [])
    return rng.choice(np.array(choices), size=shape)


@pytest.mark.parametrize("kind", ["random", "ties", "zeros", "zeros_nan"])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 1000, 1001])
def test_median_by_selection_matches_the_sorted_reference_bit_for_bit(n, kind):
    # three items of n rows and one of n + 1, in shuffled table order; every
    # delta must carry the bits of reference.agg_median, zero signs and NaNs included
    rng = np.random.default_rng(n)
    d = 24
    items = rng.permutation(np.repeat(np.arange(4), [n, n, n, n + 1]))
    who = rng.integers(0, 2 * n, size=items.size)
    sources = median_values(kind, rng, (2 * n, d))
    scale = rng.choice([1.0, -1.0, 0.5], size=items.size)
    if kind == "random":
        scale = rng.normal(size=items.size)
    touched, deltas, fallbacks = aggregate_round(MEDIAN, items, who, scale, sources, None)
    assert touched.tolist() == [0, 1, 2, 3] and fallbacks.size == 0
    for item in range(4):
        rows = np.flatnonzero(items == item)
        expected = reference.agg_median([scale[r] * sources[who[r]] for r in rows])
        assert same_bits(deltas[item], expected), item


def test_rules_permutation_invariance():
    rng = np.random.default_rng(8)
    vectors = [rng.normal(size=3) for _ in range(7)]
    perm = rng.permutation(7)
    shuffled = [vectors[i] for i in perm]
    fedavg, _ = aggregate_rows(FEDAVG, vectors)
    assert np.array_equal(fedavg, np.stack(vectors).sum(0) / 7)
    assert aggregate_rows(FEDAVG, shuffled)[0] == pytest.approx(fedavg, rel=1e-12)
    assert np.array_equal(aggregate_rows(MEDIAN, shuffled)[0], aggregate_rows(MEDIAN, vectors)[0])
    trimmed = AggregatorSpec(rule="trimmed_mean", trim_beta=2)
    expected, _ = aggregate_rows(trimmed, vectors)
    assert aggregate_rows(trimmed, shuffled)[0] == pytest.approx(expected, rel=1e-12)
    assert np.array_equal(aggregate_rows(krum(1), shuffled)[0], aggregate_rows(krum(1), vectors)[0])


def test_robustness_sanity_one_huge_outlier():
    rng = np.random.default_rng(9)
    vectors = [1e-3 * rng.normal(size=3) for _ in range(4)]
    vectors.append(np.full(3, 1e6))
    assert np.linalg.norm(aggregate_rows(MEDIAN, vectors)[0]) < 1
    trimmed = AggregatorSpec(rule="trimmed_mean", trim_beta=1)
    assert np.linalg.norm(aggregate_rows(trimmed, vectors)[0]) < 1
    assert np.linalg.norm(aggregate_rows(FEDAVG, vectors)[0]) > 1


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
    """Run every round's rank-1 table through aggregate_round and, item by
    item, its rows built one by one through reference.aggregate_item, both
    carrying their own HiCS bank.

    A round is a table (items, who, scale, sources) whose row r is
    ``scale[r] * sources[who[r]]``. Every delta and bank row must be
    bit-identical, and the fallback ids must be the items the reference
    warned about. The same table with its rows interleaved across items,
    each item's rows still in their order, must give the same bits from
    the same bank. Returns the fallback ids of every round.
    """
    rng = np.random.default_rng(0)
    bank = np.zeros((num_items, d))
    state = {}
    seen = []
    for items, who, scale, sources in rounds:
        built = sources[who] * scale[:, None]
        ids = np.unique(items).tolist()
        mixed, mixed_bank = interleaved(rng, items), bank.copy()
        touched, deltas, fallbacks = aggregate_round(spec, items, who, scale, sources, bank)
        again = aggregate_round(spec, items[mixed], who[mixed], scale[mixed], sources, mixed_bank)
        assert all(same_bits(a, b) for a, b in zip(again, (touched, deltas, fallbacks)))
        assert same_bits(mixed_bank, bank)
        assert touched.tolist() == ids
        warned = []
        for item, got in zip(ids, deltas):
            messages = []
            want = reference.aggregate_item(spec, item, built[items == item], messages, state)
            assert same_bits(got, want), (item, got, want)
            if messages:
                warned.append(item)
        assert fallbacks.dtype == np.int32 and fallbacks.tolist() == warned
        for item, entry in state.items():
            assert same_bits(bank[item], entry), item
        seen.append(warned)
    return seen


def interleaved(rng, items):
    """A row order that mixes the table's items at random but keeps each
    item's rows in table order."""
    mixed = rng.permutation(items)
    order = np.empty(items.size, np.int64)
    order[np.argsort(mixed, kind="stable")] = np.argsort(items, kind="stable")
    assert np.array_equal(items[order], mixed)
    return order


def rank1_round(rng, counts, d, size=1.0):
    """A round's table in which item i has counts[i] rows, like an engine
    round's: genuine rows are scales drawn from [0.5, 2) times rows of one
    shared pool of users, each item's contributors in id order; every even
    item ends in a crafted row at scale 1, over a source row of its own."""
    pool = max(counts) + 2
    sources = [size * rng.normal(size=(pool, d))]
    items, who, scale = [], [], []
    for item, n in enumerate(counts):
        crafted = int(item % 2 == 0)
        who += np.sort(rng.choice(pool, n - crafted, replace=False)).tolist()
        who += [pool + len(sources) - 1] * crafted
        sources += [size * rng.normal(size=(1, d))] * crafted
        scale += rng.uniform(0.5, 2.0, n - crafted).tolist() + [1.0] * crafted
        items += [item] * n
    return np.array(items, np.int32), np.array(who), np.array(scale), np.concatenate(sources)


def table_of_blocks(blocks):
    """A rank-1 table whose rows are exactly the {item: (n, d) rows} given:
    equal rows share one source row, halved, at scale 2."""
    ids = sorted(blocks)
    rows = np.concatenate([blocks[i] for i in ids])
    sources, who = np.unique(rows, axis=0, return_inverse=True)
    items = np.concatenate([np.full(len(blocks[i]), i, np.int32) for i in ids])
    return items, who.reshape(-1), np.full(len(rows), 2.0), sources / 2.0


@pytest.mark.parametrize("spec", ALL_RULES, ids=RULE_IDS)
def test_round_mixing_counts_matches_reference(spec):
    rng = np.random.default_rng(10)
    counts = [1, 2, 3, 4, 5, 6, 9, 12, 3, 5, 1, 12, 7, 2]
    rounds = [rank1_round(rng, counts, 4) for _ in range(2)]
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
    check_rounds_against_reference(spec, [table_of_blocks(blocks)], 5, 24)
    if spec.rule == "krum":
        out, _ = aggregate_rows(spec, blocks[0])
        assert out.tolist() == [1.0, 1.0] * 12  # lowest index among the tied rows


@pytest.mark.parametrize("spec", ALL_RULES, ids=RULE_IDS)
def test_round_of_single_contributions_matches_reference(spec):
    rng = np.random.default_rng(11)
    rounds = [rank1_round(rng, [1] * 6, 5, size=4.0) for _ in range(2)]
    fallbacks = check_rounds_against_reference(spec, rounds, 6, 5)
    assert all(len(f) == (6 if spec.rule in ("trimmed_mean", "krum") else 0) for f in fallbacks)


def test_krum_degenerate_in_one_bucket_only():
    rng = np.random.default_rng(12)
    spec = AggregatorSpec(rule="krum", krum_m=1)
    counts = [2, 4, 5, 2, 4, 5]  # n - m - 2 < 1 only for n = 2
    fallbacks = check_rounds_against_reference(spec, [rank1_round(rng, counts, 3)], 6, 3)
    assert fallbacks == [[0, 3]]


# Krum scores a bucket of k items with n rows each in blocks of
# max(1, 2**15 // (k * n)) rows: 87 rows at n = 375, 32 at 1 000, 13 at 2 500,
# and one row a block once k * n passes 2**15.

@pytest.mark.parametrize(
    "counts", [[375], [1000], [2500], [1000] * 35], ids=["375", "1000", "2500", "35x1000"]
)
def test_krum_in_row_blocks_selects_the_reference_row(counts):
    rng = np.random.default_rng(17)
    spec = AggregatorSpec(rule="krum", krum_m=30)
    check_rounds_against_reference(spec, [rank1_round(rng, counts, 8)], len(counts), 8)


def test_krum_with_a_fake_row_repeated_across_row_blocks_selects_the_reference_row():
    # like fakes' uploads: one crafted row, each copy over a source row of its
    # own at scale 1, here spread over the 32-row blocks of n = 1 000
    rng = np.random.default_rng(18)
    n, d = 1000, 8
    copies = np.arange(5, n, 97)
    crafted = np.tile(0.1 * rng.normal(size=(1, d)), (copies.size, 1))
    sources = np.concatenate([rng.normal(size=(n, d)), crafted])
    who = rng.permutation(n)
    who[copies] = n + np.arange(copies.size)
    scale = rng.uniform(0.5, 2.0, n)
    scale[copies] = 1.0
    spec = AggregatorSpec(rule="krum", krum_m=copies.size)
    table = (np.zeros(n, np.int32), who, scale, sources)
    check_rounds_against_reference(spec, [table], 1, d)
    (out,) = aggregate_round(spec, *table, None)[1]
    assert same_bits(out, sources[n])  # a copy wins


def test_krum_exact_tie_across_row_blocks_goes_to_the_lower_index():
    # integer rows and their negations: every distance and score is exact, and
    # a row and its negation score the same
    rng = np.random.default_rng(19)
    half = rng.integers(-50, 51, size=(200, 3))
    rows = np.concatenate([half, -half])
    m = 10
    sq_dist = ((rows[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(sq_dist, np.iinfo(np.int64).max)
    sums = np.sort(sq_dist, axis=1)[:, : len(rows) - m - 2].sum(axis=1)
    best = np.flatnonzero(sums == sums.min())
    assert best.tolist() == [best[0], best[0] + 200]  # one tied pair, nothing else
    rest = rng.permutation(np.setdiff1d(np.arange(len(rows)), best))
    for first, second in (best, best[::-1]):
        # positions 10 and 300 fall in different blocks of 81 rows (n = 400)
        order = np.insert(rest, [10, 299], [first, second])
        assert order[10] == first and order[300] == second
        out, fell_back = aggregate_rows(krum(m), rows[order].astype(float))
        assert not fell_back and out.tolist() == rows[first].tolist()


def test_krum_peak_memory_stays_within_its_row_blocks():
    # one item of 2 000 rows at d = 32: the block is 512 kB, the distances
    # n x n = 32 MB if built whole
    rows = np.random.default_rng(20).normal(size=(2000, 32))
    tracemalloc.start()
    try:
        aggregate_rows(AggregatorSpec(rule="krum", krum_m=30), rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_trimmed_mean_default_beta_across_twenty():
    rng = np.random.default_rng(13)
    spec = AggregatorSpec(rule="trimmed_mean")  # beta 1 below n = 20, 2 from it
    counts = [2, 3, 18, 19, 20, 21, 25, 19, 20]
    fallbacks = check_rounds_against_reference(spec, [rank1_round(rng, counts, 3)], 9, 3)
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
    tables = [table_of_blocks(blocks) for blocks in rounds]
    assert check_rounds_against_reference(spec, tables, 3, d) == [[], [], []]


def test_hics_z_above_d_keeps_every_coordinate_like_z_equal_d():
    rng = np.random.default_rng(15)
    d = 4
    tables = [rank1_round(rng, [3, 1, 5, 2], d) for _ in range(3)]
    banks = {z: np.zeros((4, d)) for z in (d, d + 1, d + 5)}
    for table in tables:
        want = aggregate_round(AggregatorSpec(rule="hics", hics_z=d), *table, banks[d])
        for z in (d + 1, d + 5):
            got = aggregate_round(AggregatorSpec(rule="hics", hics_z=z), *table, banks[z])
            assert all(same_bits(a, b) for a, b in zip(got, want))
            assert same_bits(banks[z], banks[d])


@pytest.mark.parametrize("spec", ALL_RULES, ids=RULE_IDS)
def test_round_with_huge_fake_rows_beside_zero_rows_matches_reference(spec):
    rng = np.random.default_rng(16)
    rounds = []
    for _ in range(3):
        blocks = {item: 0.05 * rng.normal(size=(n, 4)) for item, n in enumerate([2, 5, 5, 7, 9, 1])}
        for item, rows in blocks.items():
            rows[0] = 0.0
            rows[-1] = 1e25 * rng.normal(size=4)
        rounds.append(table_of_blocks(blocks))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_rounds_against_reference(spec, rounds, 6, 4)
