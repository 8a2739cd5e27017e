"""Matrix-factorization model and per-user local BPR training.

The global model is one embedding vector per item; each user additionally
holds a private embedding that never leaves the client. A local training
step is one full-batch gradient step on the pairwise ranking loss
L = -sum_i ln sigmoid(score(pos_i) - score(neg_i)), uploaded as one delta
row per touched item.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass
class ItemEmbeddings:
    round: int
    matrix: np.ndarray  # (num_items, dim)

    @property
    def num_items(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def copy(self) -> "ItemEmbeddings":
        return ItemEmbeddings(self.round, self.matrix.copy())


@dataclass
class UserProfile:
    user_id: int
    user_embedding: np.ndarray  # private, never uploaded
    interacted: set[int]  # full interaction set (train + held-out test)
    train_items: list[int]
    test_item: Optional[int] = None


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def predict_score(user_embedding: np.ndarray, item_embedding: np.ndarray) -> float:
    """Dot-product preference score."""
    if user_embedding.shape != item_embedding.shape:
        raise ValueError(
            f"dimension mismatch: {user_embedding.shape} vs {item_embedding.shape}"
        )
    return float(np.dot(user_embedding, item_embedding))


def bpr_loss(
    user_embedding: np.ndarray, embeddings: ItemEmbeddings, pairs: Sequence[tuple[int, int]]
) -> float:
    """-sum ln sigmoid(y_pos - y_neg), stabilized as softplus(-(y_pos - y_neg))."""
    if not pairs:
        return 0.0
    pos = np.fromiter((p for p, _ in pairs), dtype=np.int64, count=len(pairs))
    neg = np.fromiter((n for _, n in pairs), dtype=np.int64, count=len(pairs))
    margin = (embeddings.matrix[pos] - embeddings.matrix[neg]) @ user_embedding
    return float(np.logaddexp(0.0, -margin).sum())


def local_train(
    profile: UserProfile,
    embeddings: ItemEmbeddings,
    pairs: Sequence[tuple[int, int]],
    learning_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One full-batch gradient step; returns the upload as (items, deltas).

    ``pairs`` is an (n, 2) array of (positive, negative) items or a list of
    such tuples. Item deltas are -lr * dL/dv_i for every item appearing in
    the pairs, as rows of ``deltas`` in ascending item order; the user
    embedding moves by -lr * dL/du in place. Items whose accumulated delta
    is exactly zero are omitted (only nonzero entries are uploaded).
    """
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if len(pairs) == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, embeddings.dim))
    u = profile.user_embedding
    pair_arr = np.asarray(pairs, dtype=np.int64)
    pos, neg = pair_arr[:, 0], pair_arr[:, 1]
    diff = embeddings.matrix[pos] - embeddings.matrix[neg]
    margin = diff @ u
    # dL/dmargin = -sigmoid(-margin); positives gain +c*u, negatives -c*u
    c = _sigmoid(-margin)

    # every item's delta is (sum of its +-c coefficients) * u
    sums = np.bincount(pos, weights=c, minlength=embeddings.num_items)
    sums -= np.bincount(neg, weights=c, minlength=embeddings.num_items)
    touched = np.nonzero(sums)[0]
    deltas = (learning_rate * sums[touched])[:, None] * u
    nonzero_rows = np.any(deltas != 0.0, axis=1)

    profile.user_embedding = u + learning_rate * (diff.T @ c)
    return touched[nonzero_rows], deltas[nonzero_rows]

