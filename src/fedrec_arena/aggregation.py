"""Server-side aggregation rules, applied independently per item.

Every rule takes the update vectors collected for one item in one round,
as a list of d-vectors or an (n, d) array (the round engine passes the
item's rows ordered by contributor id), and returns a single d-vector. The
bank-based rule keeps per-item carry-over state between rounds.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

log = logging.getLogger("fedrec_arena.aggregation")

RULES = ("fedavg", "median", "trimmed_mean", "krum", "clip", "hics")


class AggregationError(ValueError):
    """Rule preconditions violated for the given inputs."""


# per item id, the accumulated not-yet-emitted update mass
GradientBank = dict[int, np.ndarray]


@dataclass
class AggregatorSpec:
    rule: str = "fedavg"
    trim_beta: Optional[int] = None  # None: max(1, n // 10) per item
    krum_m: Optional[int] = None  # None: the harness fills in the true fake count
    clip_bound: float = 3.0
    hics_z: int = 8
    hics_state: GradientBank = field(default_factory=dict)

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown aggregation rule {self.rule!r}")


def _stack(vectors: Sequence[np.ndarray]) -> np.ndarray:
    if len(vectors) == 0:
        raise AggregationError("no vectors to aggregate")
    return vectors if isinstance(vectors, np.ndarray) else np.stack(vectors)


def _shrink(norms: np.ndarray, limit: float) -> np.ndarray:
    """Per-row factor limit / norm where the norm exceeds the limit, else 1.

    The quotient is evaluated only where it is used, so a zero row beside a
    huge limit cannot overflow.
    """
    return np.divide(
        limit, np.maximum(norms, 1e-300), out=np.ones_like(norms), where=norms > limit
    )


def agg_fedavg(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise arithmetic mean."""
    stacked = _stack(vectors)
    return stacked.sum(axis=0) / len(vectors)


def agg_median(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise lower median (middle element for odd counts)."""
    stacked = _stack(vectors)
    idx = (len(vectors) - 1) // 2
    return np.sort(stacked, axis=0)[idx]


def agg_trimmed_mean(vectors: Sequence[np.ndarray], beta: int) -> np.ndarray:
    """Drop the beta largest and beta smallest values per coordinate, then average."""
    stacked = _stack(vectors)
    n = len(vectors)
    if beta < 0:
        raise AggregationError("beta must be >= 0")
    if 2 * beta >= n:
        raise AggregationError(f"2*beta={2 * beta} must be < n={n}")
    if beta == 0:
        return agg_fedavg(vectors)
    kept = np.sort(stacked, axis=0)[beta : n - beta]
    return kept.sum(axis=0) / kept.shape[0]


def agg_krum(vectors: Sequence[np.ndarray], m: int) -> np.ndarray:
    """Select the vector with the smallest mean squared distance to its
    n-m-2 nearest peers; ties go to the lowest index."""
    stacked = _stack(vectors)
    n = len(vectors)
    num_neighbors = n - m - 2
    if num_neighbors < 1:
        raise AggregationError(f"krum needs n-m-2 >= 1, got n={n}, m={m}")
    sq_norms = np.einsum("ij,ij->i", stacked, stacked)
    sq_dist = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (stacked @ stacked.T)
    np.fill_diagonal(sq_dist, np.inf)
    sq_dist = np.maximum(sq_dist, 0.0)  # guard tiny negatives from cancellation
    nearest = np.sort(sq_dist, axis=1)[:, :num_neighbors]
    scores = nearest.mean(axis=1)
    return stacked[int(np.argmin(scores))].copy()


def agg_clip(vectors: Sequence[np.ndarray], bound: float) -> np.ndarray:
    """Scale each vector with l2 norm above the bound down to it, then average."""
    if bound <= 0:
        raise AggregationError("clip bound must be positive")
    stacked = _stack(vectors)
    norms = np.linalg.norm(stacked, axis=1)
    return (stacked * _shrink(norms, bound)[:, None]).sum(axis=0) / len(vectors)


def agg_hics(
    bank_entry: np.ndarray, vectors: Sequence[np.ndarray], z: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bank-accumulating sparsified aggregation.

    Adds the incoming sum to the bank, picks the z bank coordinates with
    the largest magnitude (ties toward the lower index), restricts every
    contribution to those coordinates, clips each restricted vector to the
    mean restricted norm, averages, and drains the emitted mass (times the
    contributor count) from the bank. Returns (output, updated bank).
    """
    stacked = _stack(vectors)
    d = stacked.shape[1]
    if not 1 <= z <= d:
        raise AggregationError(f"z must be in [1, {d}], got {z}")
    bank = bank_entry + stacked.sum(axis=0)
    selected = np.argsort(-np.abs(bank), kind="stable")[:z]

    sparse = np.zeros_like(stacked)
    sparse[:, selected] = stacked[:, selected]
    norms = np.linalg.norm(sparse, axis=1)
    output = (sparse * _shrink(norms, norms.mean())[:, None]).sum(axis=0) / len(vectors)

    bank[selected] -= output[selected] * len(vectors)
    return output, bank


def aggregate_item(
    spec: AggregatorSpec,
    item_id: int,
    rows: np.ndarray,
    warnings: list[str],
) -> np.ndarray:
    """Aggregate one item's (n, d) contribution rows under the spec's rule.

    The caller orders the rows (the round engine by contributor id), so
    every rule sees a deterministic order. If the rule's preconditions fail
    for this item's contributor count, the item falls back to the median and
    one message is appended to ``warnings``.
    """
    if len(rows) == 0:
        raise AggregationError(f"item {item_id}: no contributions")
    n = len(rows)
    try:
        if spec.rule == "fedavg":
            return agg_fedavg(rows)
        if spec.rule == "median":
            return agg_median(rows)
        if spec.rule == "trimmed_mean":
            beta = spec.trim_beta if spec.trim_beta is not None else max(1, n // 10)
            return agg_trimmed_mean(rows, beta)
        if spec.rule == "krum":
            return agg_krum(rows, spec.krum_m if spec.krum_m is not None else 0)
        if spec.rule == "clip":
            return agg_clip(rows, spec.clip_bound)
        if spec.rule == "hics":
            bank = spec.hics_state.get(item_id)
            if bank is None:
                bank = np.zeros_like(rows[0])
            output, spec.hics_state[item_id] = agg_hics(bank, rows, spec.hics_z)
            return output
    except AggregationError as exc:
        warnings.append(f"item {item_id}: {spec.rule} degenerate ({exc}); falling back to median")
        return agg_median(rows)
    raise ValueError(f"unknown aggregation rule {spec.rule!r}")
