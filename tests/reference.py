"""Per-user and per-item reference code that the engine's array paths are tested against.

``leave_one_out_split`` and ``generate_synthetic`` are the per-user split
(a walk into ``train_set``/``test_set`` dicts, taking each user's max (order
key, item)) and synthesis (one gemv, one Gumbel draw and a full stable sort
of the scores per user) that ``data`` replaced with array code: a split from
per-user maxima, without a sort, and synthesis in blocks of users with a
row-wise top-k; ``dataset``, ``interactions`` and ``as_dicts`` convert between the
array dataset and split and their tuple and dict forms.
``sample_pairs`` and ``local_train`` are the per-user sampling and training
path the round engine replaced with ``data.draw_round_pairs`` and
``model.train_step``; ``user_table`` puts such per-user profiles into the
engine's ``UserTable``, and ``user_inits`` draws their initial embeddings from
one numpy stream per user, which ``SeedStreams.user_inits`` draws in one array
pass; ``sigmoid`` is the two-branch logistic that
``model._sigmoid`` replaced, ``bpr_loss`` the finite-difference oracle for the
gradient, and ``predict_score`` the dot-product score. ``aggregate_item``
and the ``agg_*`` functions are the per-item aggregation path that
``aggregation.aggregate_round`` replaced; the HiCS bank is a dict of rows by
item id, passed in by the caller.
"""
from typing import Optional, Sequence

import math

import numpy as np

from fedrec_arena.aggregation import AggregatorSpec
from fedrec_arena.data import InteractionDataset, check_synthetic_shape
from fedrec_arena.federation import INIT_SCALE, _USER_INIT
from fedrec_arena.model import ItemEmbeddings, UserProfile, UserTable


class DegenerateUserError(ValueError):
    """User has no valid negative item to sample; skip them for the round."""


class AggregationError(ValueError):
    """Rule preconditions violated for the given inputs."""


# ------------------------------------------------------------- datasets

def dataset(num_users: int, num_items: int, rows) -> InteractionDataset:
    """The array dataset of ``(user, item, order)`` tuples, in list order."""
    users, items, orders = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
    return InteractionDataset(num_users, num_items, users, items, orders)


def interactions(ds: InteractionDataset) -> list[tuple[int, int, int]]:
    """The dataset's ``(user, item, order)`` tuples in ingestion order."""
    return list(zip(ds.users.tolist(), ds.items.tolist(), ds.orders.tolist()))


def as_dicts(split) -> tuple[dict[int, list[int]], dict[int, int]]:
    """An array split ``(owners, train_items, test_items)`` as the reference's dicts."""
    owners, train_items, test_items = split
    train_set: dict[int, list[int]] = {}
    for user, item in zip(owners.tolist(), train_items.tolist()):
        train_set.setdefault(user, []).append(item)
    test_set = {user: item for user, item in enumerate(test_items.tolist()) if item >= 0}
    return train_set, test_set


def leave_one_out_split(ds: InteractionDataset) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Per user, hold out the interaction with the max (order key, item); keep
    the rest in ingestion order. A single interaction stays in train."""
    by_user: dict[int, list[tuple[int, int]]] = {}
    for u, i, o in interactions(ds):
        by_user.setdefault(u, []).append((i, o))
    train_set: dict[int, list[int]] = {}
    test_set: dict[int, int] = {}
    for user, rows in by_user.items():
        if len(rows) < 2:
            train_set[user] = [i for i, _ in rows]
            continue
        held = max(rows, key=lambda r: (r[1], r[0]))
        train_set[user] = [i for i, _ in rows if i != held[0]]
        test_set[user] = held[0]
    return train_set, test_set


def generate_synthetic(
    n_users: int,
    n_items: int,
    latent_dim: int,
    interactions_per_user: int,
    popularity_skew: float,
    rng: np.random.Generator,
) -> list[tuple[int, int, int]]:
    """``data.generate_synthetic``'s interactions, each user's top-k taken by
    a full stable sort of their scores."""
    check_synthetic_shape(n_users, n_items, latent_dim, interactions_per_user)
    user_factors = rng.normal(0.0, 1.0, size=(n_users, latent_dim))
    item_factors = rng.normal(0.0, 1.0, size=(n_items, latent_dim))
    popularity_rank = rng.permutation(n_items)
    popularity_logit = -popularity_skew * 1.5 * np.log(popularity_rank + 1.0)
    affinity_scale = 1.2 / math.sqrt(latent_dim)
    rows: list[tuple[int, int, int]] = []
    for user in range(n_users):
        score = (
            affinity_scale * (item_factors @ user_factors[user])
            + popularity_logit
            + rng.gumbel(0.0, 1.0, size=n_items)
        )
        chosen = np.argsort(-score, kind="stable")[:interactions_per_user]
        rows.extend((user, int(item), seq) for seq, item in enumerate(chosen))
    return rows


# ------------------------------------------------------------- training

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


def user_table(profiles: Sequence[UserProfile], num_items: int, dim: int) -> UserTable:
    """The engine's user table with ``profiles`` as its rows, in list order.

    Each row's interaction mask is the profile's ``interacted`` set as given.
    """
    table = UserTable.build(
        np.array([p.user_embedding for p in profiles], dtype=float).reshape(len(profiles), dim),
        num_items,
        [row for row, p in enumerate(profiles) for _ in p.train_items],
        [item for p in profiles for item in p.train_items],
        [-1 if p.test_item is None else p.test_item for p in profiles],
    )
    table.interacted[:] = False
    for row, p in enumerate(profiles):
        table.interacted[row, list(p.interacted)] = True
    return table


def user_inits(seed: int, count: int, dim: int) -> np.ndarray:
    """Users 0..count-1's initial embeddings, each from its own keyed stream, one user at a time."""
    rows = [
        np.random.default_rng(np.random.SeedSequence([seed, _USER_INIT, u]))
        .uniform(-INIT_SCALE, INIT_SCALE, size=dim)
        for u in range(count)
    ]
    return np.reshape(rows, (count, dim))


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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic by branch: 1 / (1 + exp(-x)) where x >= 0, else exp(x) / (1 + exp(x))."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    c = sigmoid(-margin)

    sums = np.bincount(pos, weights=c, minlength=embeddings.num_items)
    sums -= np.bincount(neg, weights=c, minlength=embeddings.num_items)
    touched = np.nonzero(sums)[0]
    deltas = (learning_rate * sums[touched])[:, None] * u
    nonzero_rows = np.any(deltas != 0.0, axis=1)

    profile.user_embedding = u + learning_rate * (diff.T @ c)
    return touched[nonzero_rows], deltas[nonzero_rows]


# ------------------------------------------------------------- aggregation

# per item id, the accumulated not-yet-emitted update mass
GradientBank = dict[int, np.ndarray]


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
    hics_state: Optional[GradientBank] = None,
) -> np.ndarray:
    """Aggregate one item's (n, d) contribution rows under the spec's rule.

    The caller orders the rows (the round engine by contributor id), so
    every rule sees a deterministic order. If the rule's preconditions fail
    for this item's contributor count, the item falls back to the median and
    one message is appended to ``warnings``. HiCS reads and updates the
    item's entry of ``hics_state``.
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
            bank = hics_state.get(item_id)
            if bank is None:
                bank = np.zeros_like(rows[0])
            output, hics_state[item_id] = agg_hics(bank, rows, spec.hics_z)
            return output
    except AggregationError as exc:
        warnings.append(f"item {item_id}: {spec.rule} degenerate ({exc}); falling back to median")
        return agg_median(rows)
    raise ValueError(f"unknown aggregation rule {spec.rule!r}")
