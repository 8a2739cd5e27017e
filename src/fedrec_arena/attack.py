"""Fake-user attacks that promote one chosen item.

The crafted attack knows nothing but the item embeddings broadcast by the
server. At its start round it snapshots the broadcast, estimates which items
are popular (smallest inner product with the mean item vector), averages
their embeddings into a target vector, and scales that target up. From then
on every fake user uploads the delta that would land the target item exactly
on the scaled target, plus "filler" deltas on the items that drifted furthest
from the snapshot. A filler delta echoes the item's own drift, which keeps
the same items winning the drift ranking round after round, so the attacker
touches a small, stable set of items over the whole run. ``AttackRuntime``
holds the snapshot and the scaled target, and builds every fake's upload for
a round as one block of rows.

The three baseline attacks instead fabricate users (target item plus filler
interactions) that join the user table and run the ordinary local-training
path; they are granted popularity knowledge by construction.

The helpers take their sizes as checked, before round 1: ``AttackConfig``
refuses a kind, size or target type that no run takes, and ``ExperimentConfig``
a start round or ``k``, filler count or target that does not fit the run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import ItemEmbeddings

BASELINE_KINDS = ("random", "popular", "bandwagon")
ATTACK_KINDS = ("none",) + BASELINE_KINDS + ("poisonfrs",)

BANDWAGON_POPULAR_SHARE = 0.10


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "none"
    fake_fraction: float = 0.0
    start_round: int = 50
    filler_count: int = 59
    scale: float = 10.0  # lambda: target-embedding amplification
    popular_count: int = 5  # k: items averaged into the target
    noise_std: float = 0.0
    target_item: Optional[int] = None  # None: least-interacted train item

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack.kind {self.kind!r}")
        # written so that NaN fails each check too
        if not 0 <= self.fake_fraction < math.inf:
            raise ValueError(f"attack.fake_fraction must lie in [0, inf), got {self.fake_fraction}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"attack.lambda must lie in (0, inf), got {self.scale}")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"attack.noise_std must lie in [0, inf), got {self.noise_std}")
        target = self.target_item
        if isinstance(target, bool) or not isinstance(target, (int, np.integer, type(None))):
            raise ValueError(f"attack.target_item must be an integer item id, got {target!r}")

    @property
    def attacking(self) -> bool:
        return self.kind != "none" and self.fake_fraction > 0

    def num_fakes(self, num_genuine: int) -> int:
        if not self.attacking:
            return 0
        return max(1, math.ceil(self.fake_fraction * num_genuine))


def estimate_popular(snapshot: np.ndarray, k: int) -> list[int]:
    """The k items whose embedding has the smallest inner product with the
    mean item embedding (ties toward the lower id), sorted by id.

    Rationale: most items are unpopular, so the mean embedding points at
    unpopularity; popular items are the ones most unlike it.
    """
    centroid = snapshot.mean(axis=0)
    alignment = snapshot @ centroid
    chosen = np.argsort(alignment, kind="stable")[:k]
    return sorted(int(i) for i in chosen)


def build_target(
    snapshot: np.ndarray, popular_set: Sequence[int], scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the popular items' vectors (the minimizer of the mean squared
    distance to them) and its scaled-up version."""
    base = snapshot[sorted(popular_set)].mean(axis=0)
    return base, scale * base


def select_fillers(
    snapshot: np.ndarray, current: np.ndarray, f: int, target_item: int
) -> list[int]:
    """The f items that drifted furthest from the snapshot, excluding the
    target item; ties toward the lower id."""
    deviation = np.linalg.norm(snapshot - current, axis=1)
    order = np.argsort(-deviation, kind="stable")
    return order[order != target_item][:f].tolist()


def make_baseline_fakes(
    kind: str,
    train_counts: np.ndarray,
    filler_count: int,
    target_item: int,
    rng: np.random.Generator,
    dim: int,
    count: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Fake users whose interactions are the target item plus fillers.

    random: fillers drawn uniformly without replacement.
    popular: the filler_count most train-interacted items (``train_counts``).
    bandwagon: ceil(10%) most-popular items, the rest uniform random.

    Returns the fakes' ``(count, dim)`` initial embeddings and train items, one
    row of ``filler_count + 1`` each, the target first. They become the user
    table's last rows and run the regular local-training path.
    """
    pool = np.delete(np.arange(train_counts.size), target_item)
    by_popularity = pool[np.argsort(-train_counts[pool], kind="stable")]

    vectors, item_rows = [], []
    for _ in range(count):
        if kind == "popular":
            fillers = by_popularity[:filler_count]
        elif kind == "random":
            fillers = rng.choice(pool, size=filler_count, replace=False)
        else:  # bandwagon
            num_popular = math.ceil(BANDWAGON_POPULAR_SHARE * filler_count)
            remaining = pool[~np.isin(pool, by_popularity[:num_popular])]
            extra = rng.choice(remaining, size=filler_count - num_popular, replace=False)
            fillers = np.concatenate((by_popularity[:num_popular], extra))
        item_rows.append(np.concatenate(([target_item], fillers)))
        vectors.append(rng.uniform(-0.05, 0.05, size=dim))
    items = np.array(item_rows, dtype=np.int64).reshape(count, filler_count + 1)
    return np.array(vectors).reshape(count, dim), items


class AttackRuntime:
    """Round-by-round driver for whichever attack the experiment runs.

    Baseline fakes are user-table rows that join local training from the
    start round on; the crafted attack snapshots the round-s broadcast and
    emits one upload per fake per round from then on.
    """

    def __init__(self, config: AttackConfig, num_genuine: int, target_item: int):
        self.config = config
        self.num_genuine = num_genuine
        self.target_item = target_item
        self.num_fakes = config.num_fakes(num_genuine)
        self.fake_ids = list(range(num_genuine, num_genuine + self.num_fakes))
        self.snapshot: Optional[np.ndarray] = None  # item embeddings at the start round
        self.scaled_target: Optional[np.ndarray] = None

    def active(self, round_index: int) -> bool:
        return self.num_fakes > 0 and round_index >= self.config.start_round

    def crafting(self, round_index: int) -> bool:
        """Whether the crafted attack uploads this round."""
        return self.config.kind == "poisonfrs" and self.active(round_index)

    def baseline_fakes(self, train_counts: np.ndarray, dim: int, rng):
        """The baseline fakes' embeddings and train items; none for other attacks."""
        if self.config.kind not in BASELINE_KINDS or self.num_fakes == 0:
            return np.empty((0, dim)), np.empty((0, 0), dtype=np.int64)
        config = self.config
        return make_baseline_fakes(
            config.kind, train_counts, config.filler_count, self.target_item, rng, dim,
            self.num_fakes,
        )

    def observe_broadcast(self, embeddings: ItemEmbeddings) -> None:
        """Snapshot the model and fix the target when the start round's broadcast arrives."""
        if self.crafting(embeddings.round) and self.snapshot is None:
            self.snapshot = embeddings.matrix.copy()
            popular = estimate_popular(self.snapshot, self.config.popular_count)
            _, self.scaled_target = build_target(self.snapshot, popular, self.config.scale)

    def crafted_updates(
        self, embeddings: ItemEmbeddings, streams
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every fake's upload this round as one block (int32 fake ids, items, deltas).

        Target delta: scaled_target - current target embedding (lands the
        item on the target under plain averaging of fakes alone). Filler delta
        for a drifted item: current - snapshot, re-asserting the drift that
        got the item selected. Exact-zero deltas are dropped. The rows run
        fake by fake, each the target then the fillers by drift; with
        noise_std > 0 each fake adds Gaussian noise from the run's
        ``streams.fake_noise(round, fake)``, the only stream read. No state changes.
        """
        if not self.crafting(embeddings.round):
            return np.empty(0, np.int32), np.empty(0, np.int64), np.empty((0, embeddings.dim))
        assert self.snapshot is not None
        current = embeddings.matrix
        fillers = select_fillers(self.snapshot, current, self.config.filler_count, self.target_item)
        items = np.array([self.target_item, *fillers], dtype=np.int64)
        deltas = np.vstack((
            self.scaled_target - current[self.target_item],
            current[items[1:]] - self.snapshot[items[1:]],
        ))
        kept = np.any(deltas != 0.0, axis=1)
        items, deltas = items[kept], deltas[kept]  # the same for every fake
        fake_ids = np.repeat(np.array(self.fake_ids, dtype=np.int32), items.size)
        deltas = np.tile(deltas, (self.num_fakes, 1))
        if self.config.noise_std > 0:
            shape = (items.size, embeddings.dim)
            deltas += np.concatenate([
                streams.fake_noise(embeddings.round, fake).normal(0.0, self.config.noise_std, shape)
                for fake in self.fake_ids
            ])
        return fake_ids, np.tile(items, self.num_fakes), deltas
