"""Server-side aggregation rules, batched over the items of a round.

``aggregate_round`` buckets a round's items by contributor count n, gathers
each bucket into a (k, n, d) block and runs the rule once over it along
axis 1. A rule's preconditions depend only on n, so a bucket that fails them
falls back to the median as a whole. HiCS carries a bank between rounds, an
(items, d) array the caller owns. The ``agg_*`` functions aggregate one
item's rows, as a list of d-vectors or an (n, d) array, through the same code.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

log = logging.getLogger("fedrec_arena.aggregation")

RULES = ("fedavg", "median", "trimmed_mean", "krum", "clip", "hics")


class AggregationError(ValueError):
    """Rule preconditions violated for the given inputs."""


@dataclass
class AggregatorSpec:
    rule: str = "fedavg"
    trim_beta: Optional[int] = None  # None: max(1, n // 10) per item
    krum_m: Optional[int] = None  # None: the harness fills in the true fake count
    clip_bound: float = 3.0
    hics_z: int = 8

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown aggregation rule {self.rule!r}")


def _shrink(norms: np.ndarray, limit: float | np.ndarray) -> np.ndarray:
    """Per-row factor limit / norm where the norm exceeds the limit, else 1.

    The quotient is evaluated only where it is used, so a zero row beside a
    huge limit cannot overflow.
    """
    return np.divide(
        limit, np.maximum(norms, 1e-300), out=np.ones_like(norms), where=norms > limit
    )


def _median(block: np.ndarray) -> np.ndarray:
    return np.sort(block, axis=1)[:, (block.shape[1] - 1) // 2]


def _trim(spec: AggregatorSpec, n: int) -> int:
    return spec.trim_beta if spec.trim_beta is not None else max(1, n // 10)


def degenerate_reason(spec: AggregatorSpec, n: int, d: int) -> Optional[str]:
    """Why the spec's rule cannot aggregate n contributions of dimension d,
    or None when it can."""
    if spec.rule == "trimmed_mean":
        beta = _trim(spec, n)
        if beta < 0:
            return "beta must be >= 0"
        if 2 * beta >= n:
            return f"2*beta={2 * beta} must be < n={n}"
    if spec.rule == "krum" and n - (spec.krum_m or 0) - 2 < 1:
        return f"krum needs n-m-2 >= 1, got n={n}, m={spec.krum_m or 0}"
    if spec.rule == "clip" and spec.clip_bound <= 0:
        return "clip bound must be positive"
    if spec.rule == "hics" and not 1 <= spec.hics_z <= d:
        return f"z must be in [1, {d}], got {spec.hics_z}"
    return None


def _aggregate_block(spec: AggregatorSpec, block: np.ndarray, bank, ids) -> np.ndarray:
    """Aggregate a (k, n, d) block of k items with n rows each into (k, d),
    each rule as its ``agg_*`` function describes. The caller has checked
    ``degenerate_reason``. HiCS reads and updates ``bank[ids]`` in place."""
    k, n, d = block.shape
    if spec.rule == "fedavg":
        return block.sum(axis=1) / n
    if spec.rule == "median":
        return _median(block)
    if spec.rule == "trimmed_mean":
        beta = _trim(spec, n)
        if beta == 0:
            return block.sum(axis=1) / n
        kept = np.sort(block, axis=1)[:, beta : n - beta]
        return kept.sum(axis=1) / kept.shape[1]
    if spec.rule == "krum":
        num_neighbors = n - (spec.krum_m or 0) - 2
        sq_norms = np.einsum("kij,kij->ki", block, block)
        gram = block @ block.transpose(0, 2, 1)
        sq_dist = sq_norms[:, :, None] + sq_norms[:, None, :] - 2.0 * gram
        sq_dist[:, np.arange(n), np.arange(n)] = np.inf
        sq_dist = np.maximum(sq_dist, 0.0)  # guard tiny negatives from cancellation
        scores = np.sort(sq_dist, axis=2)[:, :, :num_neighbors].mean(axis=2)
        return block[np.arange(k), np.argmin(scores, axis=1)]
    if spec.rule == "clip":
        norms = np.linalg.norm(block, axis=2)
        return (block * _shrink(norms, spec.clip_bound)[:, :, None]).sum(axis=1) / n
    if spec.rule == "hics":
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
    raise ValueError(f"unknown aggregation rule {spec.rule!r}")


def aggregate_round(
    spec: AggregatorSpec, items: np.ndarray, vecs: np.ndarray, bank: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate a round's contribution table under the spec's rule.

    ``items`` is sorted, so each item's rows of ``vecs`` are contiguous and
    every rule sees them in table order. ``bank`` is the HiCS bank, updated
    in place. Returns the touched item ids in ascending order, their (touched,
    d) deltas, and the ids of the items that fell back to the median.
    """
    starts = np.flatnonzero(np.diff(items, prepend=-1))
    counts = np.diff(np.append(starts, items.size))
    touched = items[starts]
    by_count = np.argsort(counts, kind="stable")  # each bucket is one run of it
    edges = np.flatnonzero(np.diff(counts[by_count], prepend=-1, append=-1))
    deltas = np.empty((touched.size, vecs.shape[1]))
    degenerate = np.zeros(touched.size, dtype=bool)
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        bucket = by_count[lo:hi]
        n = int(counts[bucket[0]])
        if hi - lo == 1:  # a lone item's rows are already one block
            block = vecs[starts[bucket[0]] : starts[bucket[0]] + n][None]
        else:
            block = vecs[starts[bucket, None] + np.arange(n)]
        if degenerate_reason(spec, n, vecs.shape[1]) is None:
            deltas[bucket] = _aggregate_block(spec, block, bank, touched[bucket])
        else:
            deltas[bucket] = _median(block)
            degenerate[bucket] = True
    return touched, deltas, touched[degenerate]


def _one_item(spec: AggregatorSpec, vectors: Sequence[np.ndarray], bank=None) -> np.ndarray:
    """Aggregate one item's rows through the block code; raise where it would fall back."""
    if len(vectors) == 0:
        raise AggregationError("no vectors to aggregate")
    block = np.asarray(vectors)[None]
    reason = degenerate_reason(spec, *block.shape[1:])
    if reason is not None:
        raise AggregationError(reason)
    return _aggregate_block(spec, block, bank, [0])[0]


def agg_fedavg(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise arithmetic mean."""
    return _one_item(AggregatorSpec("fedavg"), vectors)


def agg_median(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise lower median (middle element for odd counts)."""
    return _one_item(AggregatorSpec("median"), vectors)


def agg_trimmed_mean(vectors: Sequence[np.ndarray], beta: int) -> np.ndarray:
    """Drop the beta largest and beta smallest values per coordinate, then average."""
    return _one_item(AggregatorSpec("trimmed_mean", trim_beta=beta), vectors)


def agg_krum(vectors: Sequence[np.ndarray], m: int) -> np.ndarray:
    """Select the vector with the smallest mean squared distance to its
    n-m-2 nearest peers; ties go to the lowest index."""
    return _one_item(AggregatorSpec("krum", krum_m=m), vectors)


def agg_clip(vectors: Sequence[np.ndarray], bound: float) -> np.ndarray:
    """Scale each vector with l2 norm above the bound down to it, then average."""
    return _one_item(AggregatorSpec("clip", clip_bound=bound), vectors)


def agg_hics(
    bank_entry: np.ndarray, vectors: Sequence[np.ndarray], z: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bank-accumulating sparsified aggregation.

    Adds the incoming sum to the bank, picks the z bank coordinates with
    the largest magnitude (ties toward the lower index), restricts every
    contribution to those coordinates, clips each restricted vector to the
    mean restricted norm, averages, and drains the emitted mass (times the
    contributor count) from the bank. Returns (output, updated bank);
    ``bank_entry`` is not modified.
    """
    bank = np.array(bank_entry, dtype=float)[None]
    output = _one_item(AggregatorSpec("hics", hics_z=z), vectors, bank)
    return output, bank[0]
