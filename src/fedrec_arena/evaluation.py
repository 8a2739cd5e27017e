"""Hit-ratio / NDCG metrics, update-footprint statistics, and raw update export.

All computations are read-only over frozen profiles and embeddings. The
target hit ratio counts genuine users only: fake users belong to the
attacker, so scoring them would inflate the metric.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .model import ItemEmbeddings, UserProfile, recommend_topk


class UndefinedMetricError(ValueError):
    """Metric denominator is empty (e.g. every user interacted with the target)."""


@dataclass
class FootprintStats:
    mean: float
    std: float
    min: int
    max: int


@dataclass
class MetricsRecord:
    round: int
    hr_at: dict[int, float]  # held-out test-item hit ratio
    target_hr_at: dict[int, float]
    ndcg_at: dict[int, float]
    footprint: Optional[FootprintStats] = None


@dataclass
class UpdateDump:
    round: int
    item: int
    rows: list[tuple[int, str, np.ndarray]]  # (user_id, label, update vector)
    projection: np.ndarray  # (len(rows), 2)


def target_hit_ratio(
    profiles: Sequence[UserProfile],
    embeddings: ItemEmbeddings,
    target_item: int,
    k: int,
) -> float:
    """Fraction of users who never interacted with the target yet see it in
    their top-k recommendations."""
    eligible = [p for p in profiles if target_item not in p.interacted]
    if not eligible:
        raise UndefinedMetricError("no user is eligible for the target hit ratio")
    hits = sum(1 for p in eligible if target_item in recommend_topk(p, embeddings, k))
    return hits / len(eligible)


def _test_ranks(
    profiles: Sequence[UserProfile], embeddings: ItemEmbeddings
) -> list[int]:
    """1-based rank of each test user's held-out item among all non-train items.

    Ties resolve toward the smaller item id, matching recommend_topk.
    """
    ranks = []
    for p in profiles:
        if p.test_item is None:
            continue
        scores = embeddings.matrix @ p.user_embedding
        t = p.test_item
        train = np.fromiter(p.train_items, dtype=np.int64, count=len(p.train_items))
        better = (scores > scores[t]) | (
            (scores == scores[t]) & (np.arange(scores.size) < t)
        )
        if train.size:
            better[train] = False
        ranks.append(int(better.sum()) + 1)
    return ranks


def test_hit_ratio(
    profiles: Sequence[UserProfile], embeddings: ItemEmbeddings, k: int
) -> float:
    """Leave-one-out hit ratio: held-out item in the top-k among non-train items."""
    ranks = _test_ranks(profiles, embeddings)
    if not ranks:
        raise UndefinedMetricError("no user has a held-out test item")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def ndcg_at(
    profiles: Sequence[UserProfile], embeddings: ItemEmbeddings, k: int
) -> float:
    """Single-relevant-item NDCG: 1/log2(rank+1) when the held-out item is
    ranked within k, else 0; ideal gain is 1."""
    ranks = _test_ranks(profiles, embeddings)
    if not ranks:
        raise UndefinedMetricError("no user has a held-out test item")
    gains = [1.0 / np.log2(r + 1) if r <= k else 0.0 for r in ranks]
    return float(sum(gains) / len(gains))


def footprint_stats(counts: Mapping[int, int], user_ids: Iterable[int]) -> FootprintStats:
    values = np.array([counts.get(u, 0) for u in user_ids], dtype=np.float64)
    if values.size == 0:
        return FootprintStats(0.0, 0.0, 0, 0)
    return FootprintStats(
        float(values.mean()), float(values.std()), int(values.min()), int(values.max())
    )


def project_2d(rows: np.ndarray) -> np.ndarray:
    """Project rows onto their top-2 principal directions.

    Sign convention: each component's first nonzero loading is positive, so
    repeated calls on the same rows give identical coordinates.
    """
    rows = np.asarray(rows, dtype=np.float64)
    centered = rows - rows.mean(axis=0)
    n, d = centered.shape
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, ::-1][:, :2].copy()
    if components.shape[1] < 2:  # d == 1: pad with a zero direction
        components = np.hstack([components, np.zeros((d, 1))])
    for j in range(2):
        nonzero = np.nonzero(components[:, j])[0]
        if nonzero.size and components[nonzero[0], j] < 0:
            components[:, j] = -components[:, j]
    return centered @ components


def dump_target_updates(
    round_contributions: Sequence[tuple[int, np.ndarray]],
    target_item: int,
    labels: Mapping[int, str],
    round_index: int,
) -> UpdateDump:
    """Export every contributor's raw update for the target item, with a 2-D
    principal-component projection attached per row."""
    if not round_contributions:
        raise ValueError(f"target item {target_item} received no contributions")
    ordered = sorted(round_contributions, key=lambda c: c[0])
    rows = [(user, labels[user], vec.copy()) for user, vec in ordered]
    projection = project_2d(np.stack([vec for _, _, vec in rows]))
    return UpdateDump(round_index, target_item, rows, projection)
