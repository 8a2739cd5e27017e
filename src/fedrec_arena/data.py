"""Interaction datasets: file ingestion, synthesis, splitting, negative sampling.

All ids are dense integers starting at 0. Feedback is implicit: ratings in
input files are parsed and thrown away, only (user, item, order) survives.
A dataset is three parallel int64 arrays in ingestion order; ``leave_one_out_split``
turns it into the train rows by user and held-out items that ``UserTable.build`` reads,
finding each held-out row from per-user maxima, without a sort.
``generate_synthetic`` draws users in blocks of about ``_BLOCK_CELLS`` scores,
each block's top-k taken row-wise by ``top_k``; it gives the dataset a loop
over users would, bit for bit.
Negative sampling reads the run's ``UserTable``: its interaction mask and
each user's train items.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .model import UserTable

# synthesis scores per block of users: 1 MB of float64, so a block's few
# temporaries stay below the peak memory of a run's rounds
_BLOCK_CELLS = 2**17


class RatingsParseError(ValueError):
    """A rating file line that does not parse; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    """Input produced zero interactions."""


@dataclass
class InteractionDataset:
    """Interaction k is user ``users[k]`` on item ``items[k]`` with order key
    ``orders[k]`` (int64 arrays, ingestion order); no (user, item) pair repeats."""

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    orders: np.ndarray


_DELIMITERS = ("::", "\t", ",")


def _detect_delimiter(line: str) -> str:
    for delim in _DELIMITERS:
        if delim in line:
            return delim
    raise ValueError("no known delimiter ('::', tab, comma) found")


def parse_ratings(stream: Iterable[str]) -> InteractionDataset:
    """Parse a rating file into a densely re-indexed dataset.

    Each record is ``user<delim>item<delim>rating<delim>order_key``; the
    delimiter is auto-detected among '::', tab and comma on the first record.
    Ratings are discarded. Duplicate (user, item) pairs keep the earliest
    record. Raw ids are remapped to 0..n-1 in first-appearance order.
    """
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    rows: list[int] = []
    delimiter = None
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if delimiter is None:
            try:
                delimiter = _detect_delimiter(line)
            except ValueError as exc:
                raise RatingsParseError(line_no, str(exc)) from exc
        fields = line.split(delimiter)
        if len(fields) != 4:
            raise RatingsParseError(
                line_no, f"expected 4 fields separated by {delimiter!r}, got {len(fields)}"
            )
        raw_user, raw_item, _rating, raw_order = (f.strip() for f in fields)
        try:
            order_key = int(raw_order)
        except ValueError as exc:
            raise RatingsParseError(line_no, f"order key {raw_order!r} is not an integer") from exc
        user = user_ids.setdefault(raw_user, len(user_ids))
        item = item_ids.setdefault(raw_item, len(item_ids))
        if (user, item) in seen:
            continue
        seen.add((user, item))
        rows += (user, item, order_key)

    if not rows:
        raise EmptyDatasetError("rating input contains no records")
    users, items, orders = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
    return InteractionDataset(len(user_ids), len(item_ids), users, items, orders)


def leave_one_out_split(dataset: InteractionDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hold out each user's last interaction (max order key, ties to larger item id).

    Returns ``(owners, train_items, test_items)``, as ``UserTable.build`` reads them:
    the train rows by ascending user, each user's in ingestion order, and per user
    the held-out item or -1. A user's single interaction stays in train.
    Nothing is sorted to find the held-out row: one pass takes each user's
    largest order key, a second the largest item among the rows at that key.
    A (user, item) pair does not repeat, so that names exactly one row.
    """
    users, items, orders = dataset.users, dataset.items, dataset.orders
    last_order = np.full(dataset.num_users, np.iinfo(np.int64).min)
    np.maximum.at(last_order, users, orders)
    at_last = orders == last_order[users]
    last_item = np.full(dataset.num_users, -1, dtype=np.int64)
    np.maximum.at(last_item, users[at_last], items[at_last])
    counts = np.bincount(users, minlength=dataset.num_users)
    test_items = np.where(counts >= 2, last_item, -1)
    train = np.flatnonzero(items != test_items[users])
    train = train[np.argsort(users[train], kind="stable")]
    return users[train], items[train], test_items


def draw_round_pairs(
    users: UserTable, rows: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one uniform negative per train item of every user in ``rows``, from one stream.

    Returns ``(owner, pos, neg)``: pair r pairs the positive ``pos[r]`` with
    the negative ``neg[r]`` for user ``rows[owner[r]]``. Pairs run over
    ``rows`` in the given order and each user's train items in order, so
    ``owner`` ascends. A negative avoids its user's full interaction set,
    which includes the held-out test item: every pair draws once, then only
    the rejected pairs redraw, in pair order, until none is left. A user
    whose interactions cover every item has no candidate negative and draws
    no pairs. Deterministic for a given rng state.
    """
    interacted = users.interacted
    starts = users.offsets[rows]
    counts = np.where(interacted.all(axis=1)[rows], 0, users.offsets[rows + 1] - starts)
    owner = np.repeat(np.arange(rows.size), counts)
    # a pair's place among its user's train items, then its index in the flat array
    place = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pos = users.train_items[starts[owner] + place]
    user = rows[owner]
    neg = rng.integers(0, interacted.shape[1], size=owner.size)
    pending = np.flatnonzero(interacted[user, neg])
    while pending.size:
        draws = rng.integers(0, interacted.shape[1], size=pending.size)
        neg[pending] = draws
        pending = pending[interacted[user[pending], draws]]
    return owner, pos, neg


def check_synthetic_shape(n_users: int, n_items: int, latent_dim: int, per_user: int) -> None:
    """Reject a synthetic shape that generate_synthetic cannot draw."""
    if latent_dim < 1:
        raise ValueError("dataset.latent_dim must be >= 1")
    if per_user < 2:
        raise ValueError("dataset.interactions_per_user must be >= 2")
    if n_items <= per_user:
        raise ValueError("dataset.items must exceed dataset.interactions_per_user")
    if n_users < 1:
        raise ValueError("dataset.users must be >= 1")


def generate_synthetic(
    n_users: int,
    n_items: int,
    latent_dim: int,
    interactions_per_user: int,
    popularity_skew: float,
    rng: np.random.Generator,
) -> InteractionDataset:
    """Generate a low-rank implicit-feedback dataset with power-law popularity.

    Users and items get random latent factors; each user's interaction list is
    a Gumbel-perturbed top-k of ``affinity + popularity``, i.e. a sequential
    sample without replacement proportional to
    exp(affinity) * (popularity_rank + 1) ** -popularity_skew.
    The per-user sampling sequence is the order key. The shape is one that
    ``check_synthetic_shape`` accepts, as ``DatasetConfig`` has checked.
    Users are drawn in blocks of about ``_BLOCK_CELLS`` scores: one stack of
    per-user gemvs, one Gumbel draw and one row-wise ``top_k`` a block. A
    stacked gemv gives each user's affinities bit for bit, and the draw reads
    the stream in the order user-by-user draws would, so the dataset is the
    one a loop over users gives.
    """
    user_factors = rng.normal(0.0, 1.0, size=(n_users, latent_dim))
    item_factors = rng.normal(0.0, 1.0, size=(n_items, latent_dim))
    popularity_rank = rng.permutation(n_items)  # rank 0 = most popular
    # the 1.5 sharpening compensates the affinity + Gumbel dilution so the
    # realized interaction counts follow ~(rank+1)^-popularity_skew
    popularity_logit = -popularity_skew * 1.5 * np.log(popularity_rank + 1.0)
    affinity_scale = 1.2 / math.sqrt(latent_dim)

    chosen = np.empty((n_users, interactions_per_user), dtype=np.int64)
    block = max(1, _BLOCK_CELLS // n_items)
    for lo in range(0, n_users, block):
        hi = min(lo + block, n_users)
        # a stack of gemvs, not one gemm: a gemm's sums can differ in the last bit
        score = (item_factors @ user_factors[lo:hi, :, None])[..., 0]
        score *= affinity_scale
        score += popularity_logit
        score += rng.gumbel(0.0, 1.0, size=score.shape)
        chosen[lo:hi] = top_k(score, interactions_per_user)
    users, orders = np.indices(chosen.shape).reshape(2, -1)
    return InteractionDataset(n_users, n_items, users, chosen.ravel(), orders)


def top_k(score: np.ndarray, k: int) -> np.ndarray:
    """Row by row, ``np.argsort(-row, kind="stable")[:k]`` of a 1-D score or
    of each row of a 2-D one (then a (rows, k) array).

    ``np.partition`` finds each row's cut, its k-th largest score, and only the
    entries at or above the cut are sorted, by (-score, id). Ties at the cut go
    to the lower ids: where some row has more than k entries at or above its
    cut, a cumsum over each row's entries at the cut keeps its lowest ids.
    """
    rows = np.atleast_2d(score)
    n = rows.shape[1]
    cut = np.partition(rows, n - k, axis=1)[:, n - k, None]
    kept = rows >= cut
    if np.count_nonzero(kept) > k * len(rows):
        at_cut = rows == cut
        room = k - np.count_nonzero(rows > cut, axis=1)
        kept &= ~at_cut | (np.cumsum(at_cut, axis=1) <= room[:, None])
    flat = np.flatnonzero(kept).reshape(-1, k)  # k a row, each row's ids ascending
    order = np.argsort(-rows.ravel()[flat], axis=1, kind="stable")
    chosen = np.take_along_axis(flat, order, axis=1) % n
    return chosen if score.ndim == 2 else chosen[0]


def dump_dataset(dataset: InteractionDataset, fp: IO[str]) -> None:
    """Write the line-oriented serialization: header then ``u<TAB>i<TAB>order``."""
    fp.write(f"users={dataset.num_users} items={dataset.num_items}\n")
    rows = zip(dataset.users.tolist(), dataset.items.tolist(), dataset.orders.tolist())
    fp.writelines(f"{u}\t{i}\t{o}\n" for u, i, o in rows)


def load_dataset(fp: IO[str]) -> InteractionDataset:
    """Read back the serialization written by dump_dataset; a repeated
    (user, item) pair is rejected at its line."""
    header = fp.readline().strip()
    try:
        users_part, items_part = header.split()
        num_users = int(users_part.removeprefix("users="))
        num_items = int(items_part.removeprefix("items="))
    except ValueError as exc:
        raise RatingsParseError(1, f"bad dataset header {header!r}") from exc
    seen: set[tuple[int, int]] = set()
    rows: list[int] = []
    for line_no, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        try:
            u, i, o = (int(x) for x in line.split("\t"))
        except ValueError as exc:
            raise RatingsParseError(line_no, f"bad interaction line {line.strip()!r}") from exc
        if not (0 <= u < num_users and 0 <= i < num_items):
            raise RatingsParseError(line_no, f"user {u} or item {i} outside the header's range")
        if (u, i) in seen:
            raise RatingsParseError(line_no, f"user {u} already interacted with item {i}")
        seen.add((u, i))
        rows += (u, i, o)
    if not rows:
        raise EmptyDatasetError("dataset file contains no interactions")
    users, items, orders = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
    return InteractionDataset(num_users, num_items, users, items, orders)
