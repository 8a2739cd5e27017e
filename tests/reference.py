"""Per-user reference code that the engine's array paths are tested against.

``sample_pairs`` and ``local_train`` are the per-user sampling and training
path the round engine replaced with ``data.draw_round_pairs`` and
``model.train_step``; ``bpr_loss`` is the finite-difference oracle for the
gradient, and ``predict_score`` the dot-product score.
"""
from typing import Sequence

import numpy as np

from fedrec_arena.model import ItemEmbeddings, UserProfile, _sigmoid


class DegenerateUserError(ValueError):
    """User has no valid negative item to sample; skip them for the round."""


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


def sample_pairs(profile: UserProfile, num_items: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one uniform negative per train item, rejecting the user's own items.

    Returns an (n, 2) array of (positive, negative) items, one row per train
    item in order. Negatives avoid the full interaction set, which includes
    the held-out test item. Deterministic for a given rng state.
    """
    forbidden = np.zeros(num_items, dtype=bool)
    forbidden[list(profile.interacted)] = True
    if int(forbidden.sum()) >= num_items:
        raise DegenerateUserError(f"user {profile.user_id} has no candidate negatives")
    positives = np.asarray(profile.train_items, dtype=np.int64)
    negatives = np.empty(positives.size, dtype=np.int64)
    pending = np.arange(positives.size)
    while pending.size:
        draws = rng.integers(0, num_items, size=pending.size)
        ok = ~forbidden[draws]
        negatives[pending[ok]] = draws[ok]
        pending = pending[~ok]
    return np.column_stack((positives, negatives))


def local_train(
    profile: UserProfile,
    embeddings: ItemEmbeddings,
    pairs: Sequence[tuple[int, int]],
    learning_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One full-batch gradient step; returns the upload as (items, deltas).

    Item deltas are -lr * dL/dv_i for every item appearing in the pairs, as
    rows of ``deltas`` in ascending item order; the user embedding moves by
    -lr * dL/du in place. Items whose accumulated delta is exactly zero are
    omitted.
    """
    if len(pairs) == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, embeddings.dim))
    u = profile.user_embedding
    pair_arr = np.asarray(pairs, dtype=np.int64)
    pos, neg = pair_arr[:, 0], pair_arr[:, 1]
    diff = embeddings.matrix[pos] - embeddings.matrix[neg]
    margin = diff @ u
    # dL/dmargin = -sigmoid(-margin); positives gain +c*u, negatives -c*u
    c = _sigmoid(-margin)

    sums = np.bincount(pos, weights=c, minlength=embeddings.num_items)
    sums -= np.bincount(neg, weights=c, minlength=embeddings.num_items)
    touched = np.nonzero(sums)[0]
    deltas = (learning_rate * sums[touched])[:, None] * u
    nonzero_rows = np.any(deltas != 0.0, axis=1)

    profile.user_embedding = u + learning_rate * (diff.T @ c)
    return touched[nonzero_rows], deltas[nonzero_rows]
