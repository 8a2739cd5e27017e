"""Interaction datasets: file ingestion, synthesis, splitting, negative sampling.

All ids are dense integers starting at 0. Feedback is implicit: ratings in
input files are parsed and thrown away, only (user, item, order) survives.
Negative sampling reads the run's ``UserTable``: its interaction mask and
each user's train items.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable, Optional

import numpy as np

from .model import UserTable


class RatingsParseError(ValueError):
    """A rating file line that does not parse; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    """Input produced zero interactions."""


@dataclass
class InteractionDataset:
    num_users: int
    num_items: int
    # (user_id, item_id, order_key) in ingestion order
    interactions: list[tuple[int, int, int]]
    # populated by leave_one_out_split
    train_set: dict[int, list[int]] = field(default_factory=dict)
    test_set: dict[int, int] = field(default_factory=dict)

    def interactions_by_user(self) -> dict[int, list[tuple[int, int]]]:
        """Per-user [(item, order_key), ...] in ingestion order."""
        by_user: dict[int, list[tuple[int, int]]] = {}
        for u, i, o in self.interactions:
            by_user.setdefault(u, []).append((i, o))
        return by_user

    def train_counts(self) -> np.ndarray:
        """Number of train interactions per item (requires a split)."""
        items = np.fromiter(chain.from_iterable(self.train_set.values()), np.int64)
        return np.bincount(items, minlength=self.num_items)


_DELIMITERS = ("::", "\t", ",")


def _detect_delimiter(line: str) -> str:
    for delim in _DELIMITERS:
        if delim in line:
            return delim
    raise ValueError("no known delimiter ('::', tab, comma) found")


def parse_ratings(stream: Iterable[str], delimiter: Optional[str] = None) -> InteractionDataset:
    """Parse a rating file into a densely re-indexed dataset.

    Each record is ``user<delim>item<delim>rating<delim>order_key``; the
    delimiter is auto-detected among '::', tab and comma unless given.
    Ratings are discarded. Duplicate (user, item) pairs keep the earliest
    record. Raw ids are remapped to 0..n-1 in first-appearance order.
    """
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    interactions: list[tuple[int, int, int]] = []

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
        interactions.append((user, item, order_key))

    if not interactions:
        raise EmptyDatasetError("rating input contains no records")
    return InteractionDataset(len(user_ids), len(item_ids), interactions)


def leave_one_out_split(dataset: InteractionDataset) -> InteractionDataset:
    """Hold out each user's last interaction (max order key, ties to larger item id).

    Users with a single interaction keep it in train and get no test item.
    Mutates and returns the dataset.
    """
    dataset.train_set = {}
    dataset.test_set = {}
    for user, rows in dataset.interactions_by_user().items():
        if len(rows) < 2:
            dataset.train_set[user] = [i for i, _ in rows]
            continue
        held = max(rows, key=lambda r: (r[1], r[0]))
        dataset.train_set[user] = [i for i, _ in rows if i != held[0]]
        dataset.test_set[user] = held[0]
    return dataset


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


def check_synthetic_shape(n_users: int, n_items: int, interactions_per_user: int) -> None:
    """Reject a synthetic shape that generate_synthetic cannot draw."""
    if interactions_per_user < 2:
        raise ValueError("interactions_per_user must be >= 2")
    if n_items <= interactions_per_user:
        raise ValueError("n_items must exceed interactions_per_user")
    if n_users < 1:
        raise ValueError("n_users must be >= 1")


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
    The per-user sampling sequence is the order key.
    """
    check_synthetic_shape(n_users, n_items, interactions_per_user)

    user_factors = rng.normal(0.0, 1.0, size=(n_users, latent_dim))
    item_factors = rng.normal(0.0, 1.0, size=(n_items, latent_dim))
    popularity_rank = rng.permutation(n_items)  # rank 0 = most popular
    # the 1.5 sharpening compensates the affinity + Gumbel dilution so the
    # realized interaction counts follow ~(rank+1)^-popularity_skew
    popularity_logit = -popularity_skew * 1.5 * np.log(popularity_rank + 1.0)
    affinity_scale = 1.2 / math.sqrt(latent_dim)

    interactions: list[tuple[int, int, int]] = []
    for user in range(n_users):
        score = (
            affinity_scale * (item_factors @ user_factors[user])
            + popularity_logit
            + rng.gumbel(0.0, 1.0, size=n_items)
        )
        chosen = np.argsort(-score, kind="stable")[:interactions_per_user]
        interactions.extend((user, int(item), seq) for seq, item in enumerate(chosen))
    return InteractionDataset(n_users, n_items, interactions)


def dump_dataset(dataset: InteractionDataset, fp: IO[str]) -> None:
    """Write the line-oriented serialization: header then ``u<TAB>i<TAB>order``."""
    fp.write(f"users={dataset.num_users} items={dataset.num_items}\n")
    for u, i, o in dataset.interactions:
        fp.write(f"{u}\t{i}\t{o}\n")


def load_dataset(fp: IO[str]) -> InteractionDataset:
    """Read back the serialization written by dump_dataset."""
    header = fp.readline().strip()
    try:
        users_part, items_part = header.split()
        num_users = int(users_part.removeprefix("users="))
        num_items = int(items_part.removeprefix("items="))
    except ValueError as exc:
        raise RatingsParseError(1, f"bad dataset header {header!r}") from exc
    interactions = []
    for line_no, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        try:
            u, i, o = (int(x) for x in line.split("\t"))
        except ValueError as exc:
            raise RatingsParseError(line_no, f"bad interaction line {line.strip()!r}") from exc
        if not (0 <= u < num_users and 0 <= i < num_items):
            raise RatingsParseError(line_no, f"user {u} or item {i} outside the header's range")
        interactions.append((u, i, o))
    if not interactions:
        raise EmptyDatasetError("dataset file contains no interactions")
    return InteractionDataset(num_users, num_items, interactions)
