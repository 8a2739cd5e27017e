"""Matrix-factorization model, the user table and local BPR training.

The global model is one embedding vector per item; each user additionally
holds a private embedding that never leaves the client. A run keeps every
user in one ``UserTable``, one row per user id. A local training step is one
full-batch gradient step on the user's pairwise ranking loss
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


@dataclass
class UserProfile:  # one user of a finished run, in ExperimentResult.profiles
    user_id: int
    user_embedding: np.ndarray  # private, never uploaded
    interacted: set[int]  # full interaction set (train + held-out test)
    train_items: list[int]
    test_item: Optional[int] = None


@dataclass
class UserTable:
    """Every user of a run, row u for user id u: genuine users, then baseline fakes.

    User u's train items, in order, are ``train_items[offsets[u]:offsets[u + 1]]``.
    """

    embeddings: np.ndarray  # (users, dim): private, never uploaded
    interacted: np.ndarray  # (users, items) bool: train items and the held-out item
    offsets: np.ndarray  # (users + 1,)
    train_items: np.ndarray  # every user's train items, row after row
    test_items: np.ndarray  # (users,): the held-out item, or -1 when there is none

    @classmethod
    def build(cls, embeddings, num_items: int, owners, train_items, test_items):
        """The table of ``len(test_items)`` users: train row r is user ``owners[r]``
        (ascending) on ``train_items[r]``; user u's held-out item is ``test_items[u]`` or -1."""
        flat, tests = np.asarray(train_items, np.int64), np.asarray(test_items, np.int64)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=tests.size))))
        interacted = np.zeros((tests.size, num_items), dtype=bool)
        interacted[owners, flat] = True
        tested = np.flatnonzero(tests >= 0)
        interacted[tested, tests[tested]] = True
        return cls(embeddings, interacted, offsets, flat, tests)

    def __len__(self) -> int:
        return len(self.embeddings)

    def profiles(self, count: int) -> list[UserProfile]:
        """Rows 0..count-1 as result records."""
        return [
            UserProfile(
                u, self.embeddings[u].copy(), set(np.flatnonzero(self.interacted[u]).tolist()),
                self.train_items[self.offsets[u] : self.offsets[u + 1]].tolist(),
                None if self.test_items[u] < 0 else int(self.test_items[u]),
            )
            for u in range(count)
        ]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(np.minimum(x, -x))  # exp(-|x|), never overflowing; a NaN keeps its bits
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """The index of each run's first entry in ``keys``, where equal keys are adjacent."""
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return np.flatnonzero(starts)


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
    table, one row per (item, user) in (item, user) order, whose row k is the
    delta ``scale[k] * users[who[k]]`` = -lr * dL/dv for item ``items[k]`` and
    user row ``who[k]``, its +-c terms summed in pair order; and the user matrix
    after each user's step of -lr * dL/du from the old point. Rows whose delta
    is exactly zero are omitted (only nonzero entries are uploaded). Each
    returned array owns its data; ``items`` and ``who`` are int32 unless
    users * items reaches 2**31, then int64.
    """
    num_users = len(users)
    # dL/dmargin = -sigmoid(-margin); positives gain +c*u, negatives -c*u
    c, stepped = np.empty(owner.size), users.copy()
    # blocks of whole users, ~256 kB of (pair, d) temporaries each: peak memory stays put
    firsts = _run_starts(owner)
    cuts = firsts[_run_starts(firsts // max(1, 2**15 // users.shape[1]))]
    for lo, hi in zip(cuts.tolist(), cuts[1:].tolist() + [owner.size]):
        diff = matrix[pos[lo:hi]] - matrix[neg[lo:hi]]
        c[lo:hi] = _sigmoid(-np.einsum("nd,nd->n", diff, users[owner[lo:hi]]))
        diff *= c[lo:hi, None]
        heads = _run_starts(owner[lo:hi])
        stepped[owner[lo + heads]] += learning_rate * np.add.reduceat(diff, heads, axis=0)
    # term 2r is pair r's positive, 2r + 1 its negative. A stable sort by item
    # alone (radix for keys of <= 16 bits) keeps owner ascending: (item, user)
    # order, each key's terms in pair order. The sort runs on the narrowest
    # type that holds an item id, the (item, user) key on int32 unless
    # users * items reaches 2**31. Arrays go once read, for peak memory
    keys = np.empty(2 * owner.size, np.min_scalar_type(len(matrix) - 1))
    keys[0::2], keys[1::2] = pos, neg
    order = np.argsort(keys, kind="stable")
    terms = np.empty(keys.size)
    terms[0::2], terms[1::2] = c, -c
    del c
    terms = terms[order]
    wide = np.int32 if num_users * len(matrix) < 2**31 else np.int64
    keys = np.multiply(keys[order], num_users, dtype=wide)
    order >>= 1
    keys += owner.astype(wide)[order]
    del order
    starts = _run_starts(keys)
    scale = np.add.reduceat(terms, starts)
    scale *= learning_rate
    keys = keys[starts]
    del terms, starts
    # a row scale * u is all zero exactly when scale * max|u| rounds to zero
    kept = (scale != 0.0) & (scale * np.abs(users).max(axis=1)[keys % num_users] != 0.0)
    items, who = np.divmod(keys[kept], num_users)
    return items, who, scale[kept], stepped
