"""Server-side aggregation rules, batched over the items of a round.

A round's contribution table is rank-1: row r is ``scale[r] * sources[who[r]]``.
``aggregate_round`` takes the rows in any item order and groups them itself:
one stable argsort of the row indices buckets the items by contributor count
n, keeping each item's rows in table order. No table column is copied: each
bucket's (k, n, d) block is gathered from ``sources`` through its slice of
that permutation, and the rule runs once over it along axis 1. A rule's
preconditions depend only on n, so a bucket that fails them falls back to the
median as a whole. The median is taken by selection: a median bucket is
gathered from the transposed sources straight into a (d, k, n) block, and
``partition`` selects each coordinate's lower median along the contiguous
last axis. A selected value has the sorted one's bits unless it is zero or
NaN, and those few coordinates are sorted as before. Krum scores a bucket in
row blocks: its (k, rows, n) Gram and distance temporaries hold at most 2**15
cells (about 256 kB) each, or one row where k * n alone exceeds that, so its
memory grows with n, not n**2.
HiCS carries a bank between rounds, an (items, d) array the caller owns.
``aggregate_rows`` runs one item's rows through ``aggregate_round``.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

log = logging.getLogger("fedrec_arena.aggregation")

RULES = ("fedavg", "median", "trimmed_mean", "krum", "clip", "hics")

# cells in one of Krum's (k, rows, n) distance temporaries, about 256 kB
_KRUM_CELLS = 2**15


@dataclass(frozen=True)
class AggregatorSpec:
    rule: str = "fedavg"
    trim_beta: Optional[int] = None  # None: max(1, n // 10) per item
    krum_m: Optional[int] = None  # None: the harness fills in the true fake count
    clip_bound: float = 3.0
    hics_z: int = 8

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown aggregator.rule {self.rule!r}")
        # each of these fails the rule at every contributor count
        if not self.clip_bound > 0:
            raise ValueError(f"aggregator.clip_bound must be > 0, got {self.clip_bound}")
        if self.trim_beta is not None and self.trim_beta < 0:
            raise ValueError(f"aggregator.trim_beta must be >= 0, got {self.trim_beta}")
        if self.krum_m is not None and self.krum_m < 0:
            raise ValueError(f"aggregator.krum_m must be >= 0, got {self.krum_m}")
        if self.hics_z < 1:
            raise ValueError(f"aggregator.hics_z must be >= 1, got {self.hics_z}")


def _shrink(norms: np.ndarray, limit: float | np.ndarray) -> np.ndarray:
    """Per-row factor limit / norm where the norm exceeds the limit, else 1.

    The quotient is evaluated only where it is used, so a zero row beside a
    huge limit cannot overflow.
    """
    return np.divide(
        limit, np.maximum(norms, 1e-300), out=np.ones_like(norms), where=norms > limit
    )


def _median(columns: np.ndarray, who: np.ndarray, scale: np.ndarray, k: int, n: int) -> np.ndarray:
    """The (k, d) lower medians of k items with n rows each, row r being
    ``scale[r] * columns[:, who[r]]``: bit for bit the element at (n - 1) // 2
    of each coordinate's values sorted in row order.

    A coordinate's values are selected in place along the contiguous last axis
    of a (d, k, n) block. A nonzero, non-NaN value is the sorted one; -0.0 and
    0.0 compare equal, and a NaN's bits depend on where a sort puts it, so a
    zero or NaN median is taken again from that coordinate's values sorted.
    """
    block = np.take(columns, who, axis=1).reshape(-1, k, n)
    block *= scale.reshape(k, n)
    h = (n - 1) // 2
    block.partition(h, axis=2)
    medians = block[:, :, h]
    j, i = np.nonzero((medians == 0.0) | np.isnan(medians))
    if j.size:
        rows = who.reshape(k, n)[i]
        medians[j, i] = np.sort(columns[j[:, None], rows] * scale.reshape(k, n)[i], axis=1)[:, h]
    return medians.T


def _trim(spec: AggregatorSpec, n: int) -> int:
    return spec.trim_beta if spec.trim_beta is not None else max(1, n // 10)


def degenerate_reason(spec: AggregatorSpec, n: int) -> Optional[str]:
    """Why the spec's rule cannot aggregate n contributions, or None when it can."""
    if spec.rule == "trimmed_mean" and 2 * (beta := _trim(spec, n)) >= n:
        return f"2*beta={2 * beta} must be < n={n}"
    if spec.rule == "krum" and n - (spec.krum_m or 0) - 2 < 1:
        return f"krum needs n-m-2 >= 1, got n={n}, m={spec.krum_m or 0}"
    return None


def _aggregate_block(spec: AggregatorSpec, block: np.ndarray, bank, ids) -> np.ndarray:
    """Aggregate a (k, n, d) block of k items with n rows each into (k, d)
    under any rule but the median, which ``_median`` takes by selection.

    Krum ties go to the lowest index. HiCS adds the rows' sum to
    ``bank[ids]``, keeps the z bank coordinates of largest magnitude (ties
    toward the lower index; all d if z > d), clips the rows restricted to them
    to their mean norm, averages, and drains the output times n from the bank
    in place. The caller has checked ``degenerate_reason``.

    Krum works through the rows in blocks of max(1, 2**15 // (k * n)): a
    block's squared distances to every row are built, sorted in place and
    averaged over the nearest n - m - 2 into one (k, n) score array. A
    block's Gram entries can differ from the whole (n, n) product's in the
    last bits, as BLAS picks another kernel for fewer rows: over nine random
    shapes the scores moved by at most 5.4e-16 relative, and no argmin
    changed."""
    k, n, d = block.shape
    if spec.rule == "fedavg":
        return block.sum(axis=1) / n
    if spec.rule == "trimmed_mean":
        beta = _trim(spec, n)
        if beta == 0:
            return block.sum(axis=1) / n
        kept = np.sort(block, axis=1)[:, beta : n - beta]
        return kept.sum(axis=1) / kept.shape[1]
    if spec.rule == "krum":
        num_neighbors = n - (spec.krum_m or 0) - 2
        sq_norms = np.einsum("kij,kij->ki", block, block)
        scores = np.empty((k, n))
        step = max(1, _KRUM_CELLS // (k * n))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            gram = block[:, lo:hi] @ block.transpose(0, 2, 1)
            gram *= 2.0
            sq_dist = sq_norms[:, lo:hi, None] + sq_norms[:, None, :]
            sq_dist -= gram
            del gram  # one temporary, not two, through the sort
            sq_dist[:, np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            np.maximum(sq_dist, 0.0, out=sq_dist)  # guard tiny negatives from cancellation
            sq_dist.sort(axis=2)
            scores[:, lo:hi] = sq_dist[:, :, :num_neighbors].mean(axis=2)
        return block[np.arange(k), np.argmin(scores, axis=1)]
    if spec.rule == "clip":
        norms = np.linalg.norm(block, axis=2)
        return (block * _shrink(norms, spec.clip_bound)[:, :, None]).sum(axis=1) / n
    # hics
    rows = bank[ids] + block.sum(axis=1)
    order = np.argsort(-np.abs(rows), axis=1, kind="stable")
    keep = np.argsort(order, axis=1) < spec.hics_z  # the z coordinates ranked first
    sparse = np.where(keep[:, None, :], block, 0.0)
    norms = np.linalg.norm(sparse, axis=2)
    shrink = _shrink(norms, norms.mean(axis=1)[:, None])
    output = (sparse * shrink[:, :, None]).sum(axis=1) / n
    rows[keep] -= output[keep] * n
    bank[ids] = rows
    return output


def aggregate_round(
    spec: AggregatorSpec, items: np.ndarray, who: np.ndarray, scale: np.ndarray,
    sources: np.ndarray, bank: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate a round's contribution table under the spec's rule.

    Row r is ``scale[r] * sources[who[r]]`` for item ``items[r]``, in any
    item order; every rule sees an item's rows in table order. ``bank`` is
    the HiCS bank, updated in place. Returns the touched item ids in
    ascending order, their (touched, d) deltas, and the int32 ids of the
    items that fell back to the median, ascending.
    """
    counts = np.bincount(items)
    # the rows bucket by bucket, then item by item, each item's rows in table order
    key = counts[items]
    key *= counts.size
    key += items
    order = np.argsort(key, kind="stable")
    del key
    sizes, items_per_size = np.unique(counts[counts > 0], return_counts=True)
    ends = np.cumsum(sizes * items_per_size).tolist()
    deltas = np.empty((counts.size, sources.shape[1]))  # row i: item i's delta
    degenerate = np.zeros(counts.size, dtype=bool)
    columns = None  # sources.T, copied when the first median bucket needs it
    for n, k, hi in zip(sizes.tolist(), items_per_size.tolist(), ends):
        rows = order[hi - k * n : hi]
        ids = items[rows[::n]]
        fallback = degenerate_reason(spec, n) is not None
        if fallback or spec.rule == "median":
            if columns is None:
                columns = sources.T.copy()
            deltas[ids] = _median(columns, who[rows], scale[rows], k, n)
            degenerate[ids] = fallback
        else:
            block = np.take(sources, who[rows], axis=0).reshape(k, n, -1)
            block *= scale[rows].reshape(k, n, 1)
            deltas[ids] = _aggregate_block(spec, block, bank, ids)
    touched = np.flatnonzero(counts).astype(np.int32)
    return touched, deltas[touched], np.flatnonzero(degenerate).astype(np.int32)


def aggregate_rows(
    spec: AggregatorSpec, rows, bank: Optional[np.ndarray] = None
) -> tuple[np.ndarray, bool]:
    """Aggregate one item's (n, d) rows, given as an array or a list of
    d-vectors, through ``aggregate_round``. ``bank`` is the item's HiCS bank
    row, updated in place; None starts from an empty one. Returns the delta
    and whether the item fell back to the median."""
    rows = np.asarray(rows, dtype=float)
    bank = np.zeros((1, rows.shape[1])) if bank is None else bank[None]
    n = len(rows)  # rows[r] * 1.0 is rows[r], bit for bit
    _, deltas, fallbacks = aggregate_round(spec, np.zeros(n, np.int32), np.arange(n), np.ones(n), rows, bank)
    return deltas[0], bool(fallbacks.size)
