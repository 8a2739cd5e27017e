"""Fake-user attacks that promote one chosen item.

The crafted attack knows nothing but the item embeddings broadcast by the
server. At its start round it snapshots the broadcast, estimates which items
are popular (smallest inner product with the mean item vector), averages
their embeddings into a target vector, and scales that target up. From then
on every fake user uploads the delta that would land the target item exactly
on the scaled target, plus "filler" deltas on the items that drifted furthest
from the snapshot. A filler delta echoes the item's own drift, which keeps
the same items winning the drift ranking round after round, so the attacker
touches a small, stable set of items over the whole run.

The three baseline attacks instead fabricate user profiles (target item plus
filler interactions) that run the ordinary local-training path; they are
granted popularity knowledge by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import InteractionDataset
from .model import ItemEmbeddings, UserProfile

BASELINE_KINDS = ("random", "popular", "bandwagon")
ATTACK_KINDS = ("none",) + BASELINE_KINDS + ("poisonfrs",)

BANDWAGON_POPULAR_SHARE = 0.10


@dataclass
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
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.fake_fraction < 0:
            raise ValueError("fake_fraction must be >= 0")

    def num_fakes(self, num_genuine: int) -> int:
        if self.kind == "none" or self.fake_fraction == 0:
            return 0
        return max(1, math.ceil(self.fake_fraction * num_genuine))


@dataclass
class PoisonState:
    start_round: int
    snapshot: np.ndarray  # item embeddings at the start round
    popular_set: list[int]
    scaled_target: np.ndarray
    filler_count: int
    target_item: int
    noise_std: float = 0.0


def estimate_popular(snapshot: np.ndarray, k: int) -> list[int]:
    """The k items whose embedding has the smallest inner product with the
    mean item embedding (ties toward the lower id), sorted by id.

    Rationale: most items are unpopular, so the mean embedding points at
    unpopularity; popular items are the ones most unlike it.
    """
    if not 1 <= k <= snapshot.shape[0]:
        raise ValueError(f"k must be in [1, {snapshot.shape[0]}]")
    centroid = snapshot.mean(axis=0)
    alignment = snapshot @ centroid
    chosen = np.argsort(alignment, kind="stable")[:k]
    return sorted(int(i) for i in chosen)


def build_target(
    snapshot: np.ndarray, popular_set: Sequence[int], scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the popular items' vectors (the minimizer of the mean squared
    distance to them) and its scaled-up version."""
    if len(popular_set) == 0:
        raise ValueError("popular_set must be nonempty")
    if scale <= 0:
        raise ValueError("scale must be positive")
    base = snapshot[sorted(popular_set)].mean(axis=0)
    return base, scale * base


def select_fillers(
    snapshot: np.ndarray, current: np.ndarray, f: int, target_item: int
) -> list[int]:
    """The f items that drifted furthest from the snapshot, excluding the
    target item; ties toward the lower id."""
    if f < 0 or f >= snapshot.shape[0]:
        raise ValueError(f"f must be in [0, {snapshot.shape[0] - 1}]")
    deviation = np.linalg.norm(snapshot - current, axis=1)
    order = np.argsort(-deviation, kind="stable")
    fillers = [int(i) for i in order if i != target_item]
    return fillers[:f]


def build_poison_state(
    embeddings: ItemEmbeddings, config: AttackConfig, target_item: int
) -> PoisonState:
    """Snapshot the broadcast at the attack's start round and fix the target."""
    snapshot = embeddings.matrix.copy()
    popular = estimate_popular(snapshot, config.popular_count)
    _, scaled = build_target(snapshot, popular, config.scale)
    return PoisonState(
        start_round=embeddings.round,
        snapshot=snapshot,
        popular_set=popular,
        scaled_target=scaled,
        filler_count=config.filler_count,
        target_item=target_item,
        noise_std=config.noise_std,
    )


def craft_poisonfrs_update(
    state: PoisonState, current: ItemEmbeddings, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One fake user's upload for the current round, as (items, deltas).

    Target delta: scaled_target - current target embedding (lands the item
    on the target under plain averaging of fakes alone). Filler delta for a
    drifted item: current - snapshot, re-asserting the drift that got the
    item selected, which stabilizes the filler set across rounds and keeps
    the fake's total item footprint small. Rows are the target, then the
    fillers by drift. Exact-zero deltas are dropped; Gaussian noise of
    noise_std is then added independently per entry coordinate when
    configured.
    """
    if current.round < state.start_round:
        raise ValueError("attack not active before its start round")
    fillers = select_fillers(
        state.snapshot, current.matrix, state.filler_count, state.target_item
    )
    items = np.array([state.target_item, *fillers], dtype=np.int64)
    deltas = np.vstack((
        state.scaled_target - current.matrix[state.target_item],
        current.matrix[items[1:]] - state.snapshot[items[1:]],
    ))
    kept = np.any(deltas != 0.0, axis=1)
    items, deltas = items[kept], deltas[kept]
    if state.noise_std > 0:
        deltas = deltas + rng.normal(0.0, state.noise_std, size=deltas.shape)
    return items, deltas


def _popularity_order(dataset: InteractionDataset) -> list[int]:
    counts = dataset.train_counts()
    return [int(i) for i in np.lexsort((np.arange(dataset.num_items), -counts))]


def make_baseline_fakes(
    kind: str,
    dataset: InteractionDataset,
    filler_count: int,
    target_item: int,
    rng: np.random.Generator,
    dim: int,
    start_id: Optional[int] = None,
    count: int = 1,
) -> list[UserProfile]:
    """Fake profiles whose interactions are the target item plus fillers.

    random: fillers drawn uniformly without replacement.
    popular: the filler_count most train-interacted items.
    bandwagon: ceil(10%) most-popular items, the rest uniform random.

    The profiles run the regular local-training path afterwards.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if filler_count >= dataset.num_items:
        raise ValueError("filler_count must be smaller than the item count")
    first_id = dataset.num_users if start_id is None else start_id
    by_popularity = [i for i in _popularity_order(dataset) if i != target_item]
    pool = np.array([i for i in range(dataset.num_items) if i != target_item])

    profiles = []
    for fake_id in range(first_id, first_id + count):
        if kind == "popular":
            fillers = by_popularity[:filler_count]
        elif kind == "random":
            fillers = [int(i) for i in rng.choice(pool, size=filler_count, replace=False)]
        else:  # bandwagon
            num_popular = math.ceil(BANDWAGON_POPULAR_SHARE * filler_count)
            fillers = by_popularity[:num_popular]
            remaining = np.array([i for i in pool if i not in set(fillers)])
            extra = filler_count - num_popular
            fillers = fillers + [
                int(i) for i in rng.choice(remaining, size=extra, replace=False)
            ]
        items = [target_item] + fillers
        profiles.append(
            UserProfile(
                user_id=fake_id,
                user_embedding=rng.uniform(-0.05, 0.05, size=dim),
                interacted=set(items),
                train_items=items,
            )
        )
    return profiles


class AttackRuntime:
    """Round-by-round driver for whichever attack the experiment runs.

    Baseline fakes exist as profiles that join local training from the start
    round on; the crafted attack builds its state from the round-s broadcast
    and emits one update per fake per round from then on.
    """

    def __init__(self, config: AttackConfig, num_genuine: int, target_item: int):
        self.config = config
        self.num_genuine = num_genuine
        self.target_item = target_item
        self.num_fakes = config.num_fakes(num_genuine)
        self.fake_ids = list(range(num_genuine, num_genuine + self.num_fakes))
        self.state: Optional[PoisonState] = None
        self.baseline_profiles: list[UserProfile] = []

    def active(self, round_index: int) -> bool:
        return self.num_fakes > 0 and round_index >= self.config.start_round

    def prepare_baselines(self, dataset: InteractionDataset, dim: int, rng) -> None:
        if self.config.kind in BASELINE_KINDS and self.num_fakes > 0:
            self.baseline_profiles = make_baseline_fakes(
                self.config.kind,
                dataset,
                self.config.filler_count,
                self.target_item,
                rng,
                dim,
                start_id=self.num_genuine,
                count=self.num_fakes,
            )

    def observe_broadcast(self, embeddings: ItemEmbeddings) -> None:
        """Snapshot the model when the start round's broadcast arrives."""
        if (
            self.config.kind == "poisonfrs"
            and self.num_fakes > 0
            and self.state is None
            and embeddings.round >= self.config.start_round
        ):
            self.state = build_poison_state(embeddings, self.config, self.target_item)

    def crafted_updates(
        self, embeddings: ItemEmbeddings, noise_rngs: Sequence[np.random.Generator]
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """One (fake id, items, deltas) upload per fake this round."""
        if self.config.kind != "poisonfrs" or not self.active(embeddings.round):
            return []
        assert self.state is not None
        return [
            (fake_id, *craft_poisonfrs_update(self.state, embeddings, rng))
            for fake_id, rng in zip(self.fake_ids, noise_rngs)
        ]
