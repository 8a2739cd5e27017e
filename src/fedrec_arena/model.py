"""Matrix-factorization model and local BPR training.

The global model is one embedding vector per item; each user additionally
holds a private embedding that never leaves the client. A local training
step is one full-batch gradient step on the user's pairwise ranking loss
L = -sum_i ln sigmoid(score(pos_i) - score(neg_i)), uploaded as one delta
row per touched item. Every participant of a round steps in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def train_step(
    users: np.ndarray,
    matrix: np.ndarray,
    owner: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    learning_rate: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One full-batch gradient step for every user at once.

    Pair r is (``pos[r]``, ``neg[r]``) of user row ``users[owner[r]]``, with
    ``owner`` ascending. Returns ``(items, who, scale, stepped)``: the upload
    table, one row per (item, user) in (item, user) order, whose row k is
    the delta ``scale[k] * users[who[k]]`` = -lr * dL/dv for item
    ``items[k]`` and user row ``who[k]``; and the user matrix after each
    user's step of -lr * dL/du from the old point. Rows whose delta is
    exactly zero are omitted (only nonzero entries are uploaded).
    """
    if owner.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0), users.copy()
    num_users = len(users)
    diff = matrix[pos]
    diff -= matrix[neg]
    margin = np.einsum("nd,nd->n", diff, users[owner])
    # dL/dmargin = -sigmoid(-margin); positives gain +c*u, negatives -c*u
    c = _sigmoid(-margin)

    # every (item, user) delta is (sum of its +-c coefficients) * u
    keys = np.concatenate((pos * num_users + owner, neg * num_users + owner))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    scale = learning_rate * np.add.reduceat(np.concatenate((c, -c))[order], starts)
    items, who = np.divmod(keys[starts], num_users)
    # a row scale * u is all zero exactly when scale * max|u| rounds to zero
    largest = np.abs(users).max(axis=1)[who]
    kept = (scale != 0.0) & (np.abs(scale) * largest != 0.0)

    diff *= c[:, None]
    firsts = np.flatnonzero(np.diff(owner, prepend=-1))
    stepped = users.copy()
    stepped[owner[firsts]] += learning_rate * np.add.reduceat(diff, firsts, axis=0)
    return items[kept], who[kept], scale[kept], stepped
