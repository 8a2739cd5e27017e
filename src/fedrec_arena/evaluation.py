"""Hit-ratio / NDCG metrics, update-footprint statistics, and a 2-D projection of update rows.

All computations are read-only over the user table and item embeddings.
The target hit ratio counts genuine users only: fake users belong to the
attacker, so scoring them would inflate the metric. ``project_2d`` places
the dump round's target rows (``RoundLedger.target_rows``) in the plane.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ItemEmbeddings, UserTable


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
    footprint: FootprintStats


# (user, item) scores per block of users: 512 KB of float64, small enough that
# an eval's temporaries stay well below a round's peak memory.
_BLOCK_CELLS = 2**16


def rank_metrics(
    users: UserTable,
    genuine: int,
    embeddings: ItemEmbeddings,
    target_item: int,
    ks: Sequence[int],
) -> tuple[dict[int, float], dict[int, float], dict[int, float]]:
    """HR@k, target HR@k and NDCG@k for every k in ``ks`` from one ranking pass.

    Scores the users of rows 0..genuine-1. An item ranks ahead of another
    when it scores higher, or the same with a lower id. The held-out item
    ranks among the user's non-train items; at rank r it hits at k when
    r <= k, with NDCG gain 1/log2(r + 1). The target ranks among the
    non-interacted items of each user who never interacted with it, and hits
    at k when fewer than k of them rank ahead. One count per user serves all k.

    Preconditions, which ``Experiment`` checks at setup: some user has a
    held-out item, and some user never interacted with ``target_item``.
    """
    num_items = embeddings.num_items
    tested = users.test_items[:genuine] >= 0
    test_items = np.maximum(users.test_items[:genuine], 0)  # untested rows are never read
    eligible = ~users.interacted[:genuine, target_item]

    ids = np.arange(num_items)

    def ahead(scores: np.ndarray, item, masked: np.ndarray) -> np.ndarray:
        """Per row, how many unmasked items rank ahead of ``item``."""
        own = np.take_along_axis(scores, np.broadcast_to(item, (len(scores), 1)), axis=1)
        return (((scores > own) | ((scores == own) & (ids < item))) & ~masked).sum(axis=1)

    test_ahead, target_ahead = np.zeros((2, genuine), dtype=np.int64)
    block = max(1, _BLOCK_CELLS // num_items)
    for lo in range(0, genuine, block):
        part = slice(lo, min(lo + block, genuine))
        scores = users.embeddings[part] @ embeddings.matrix.T
        interacted = users.interacted[part]
        train = interacted.copy()  # every interaction but the held-out one
        train[np.arange(len(train)), test_items[part]] = False
        test_ahead[part] = ahead(scores, test_items[part, None], train)
        target_ahead[part] = ahead(scores, target_item, interacted)

    ranks, target_ahead = test_ahead[tested] + 1, target_ahead[eligible]
    rank_gains = 1.0 / np.log2(ranks + 1)
    hr_at, target_hr_at, ndcg_at = {}, {}, {}
    for k in ks:
        hr_at[k] = int((ranks <= k).sum()) / ranks.size
        target_hr_at[k] = int((target_ahead < k).sum()) / target_ahead.size
        # summed in row order: np.sum adds pairwise, and Python 3.12's sum() compensates
        gains = np.where(ranks <= k, rank_gains, 0.0)
        ndcg_at[k] = float(np.cumsum(gains)[-1] / gains.size)
    return hr_at, target_hr_at, ndcg_at


def footprint_stats(counts: np.ndarray) -> FootprintStats:
    """Mean, spread and range of the per-user counts of items ever uploaded for."""
    values = np.asarray(counts, dtype=np.float64)
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
