"""Round engine: broadcast, local training, per-item aggregation, timeline.

Each round's uploads form one contribution table: parallel arrays of
contributor ids, item ids and delta rows, sorted by (item, contributor), so
every item's contributions are one contiguous block of rows.

Determinism contract: every random draw comes from a substream keyed by
(master seed, purpose tag, round, actor id), so results are bit-identical
for a fixed seed no matter how users are scheduled or how many worker
threads run.
"""
from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import evaluation
from .aggregation import AggregatorSpec, aggregate_item, log as aggregation_log
from .attack import AttackConfig, AttackRuntime
from .data import (
    DegenerateUserError,
    InteractionDataset,
    generate_synthetic,
    leave_one_out_split,
    load_dataset,
    parse_ratings,
    sample_pairs,
)
from .model import ItemEmbeddings, UserProfile, local_train

log = logging.getLogger("fedrec_arena.federation")

INIT_SCALE = 0.05  # embeddings start i.i.d. uniform on [-INIT_SCALE, INIT_SCALE]

# substream purpose tags
_ITEM_INIT, _USER_INIT, _PAIRS, _FAKE_NOISE, _BASELINE, _SYNTH, _PARTICIPATION = range(7)


class SeedStreams:
    """Spawns independent, reproducible RNG substreams from one master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed

    def _stream(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.master_seed, *key]))

    def item_init(self) -> np.random.Generator:
        return self._stream(_ITEM_INIT)

    def user_init(self, user_id: int) -> np.random.Generator:
        return self._stream(_USER_INIT, user_id)

    def pairs(self, round_index: int, user_id: int) -> np.random.Generator:
        return self._stream(_PAIRS, round_index, user_id)

    def fake_noise(self, round_index: int, fake_id: int) -> np.random.Generator:
        return self._stream(_FAKE_NOISE, round_index, fake_id)

    def baseline(self) -> np.random.Generator:
        return self._stream(_BASELINE)

    def synth(self) -> np.random.Generator:
        return self._stream(_SYNTH)

    def participation(self, round_index: int) -> np.random.Generator:
        return self._stream(_PARTICIPATION, round_index)


@dataclass
class DatasetConfig:
    kind: str = "synthetic"  # synthetic | file
    # synthetic parameters
    users: int = 200
    items: int = 100
    latent_dim: int = 8
    interactions_per_user: int = 20
    popularity_skew: float = 1.0
    # file parameters
    path: Optional[str] = None
    format: Optional[str] = None  # explicit delimiter for raw rating files

    def __post_init__(self):
        if self.kind not in ("synthetic", "file"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("dataset kind 'file' requires a path")


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    dim: int = 32
    learning_rate: float = 0.05
    rounds: int = 300
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    attack: AttackConfig = field(default_factory=AttackConfig)
    eval_every: int = 10
    topk: tuple[int, ...] = (5, 10)
    seed: int = 0
    participation: float = 1.0
    threads: int = 1
    dump_round: Optional[int] = None

    def validate(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not 0 < self.participation <= 1:
            raise ValueError("participation must be in (0, 1]")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if any(k < 1 for k in self.topk):
            raise ValueError("every topk entry must be >= 1")
        if self.dump_round is not None and not 1 <= self.dump_round <= self.rounds:
            raise ValueError("dump_round must lie in [1, rounds]")
        if self.aggregator.rule == "hics" and not 1 <= self.aggregator.hics_z <= self.dim:
            raise ValueError(f"aggregator hics_z must lie in [1, dim={self.dim}]")
        if self.attack.kind != "none" and self.attack.fake_fraction > 0:
            if not 1 <= self.attack.start_round <= self.rounds:
                raise ValueError("attack start_round must lie in [1, rounds]")


@dataclass
class RoundLedger:
    round: int
    # the round's contribution index, sorted by (item, contributor): row r
    # says contributor users[r] uploaded a delta for item items[r]
    users: np.ndarray
    items: np.ndarray
    warnings: list[str]  # one per item that fell back to the median
    # (contributor, delta) for the target item, kept only at the dump round
    target_contributions: Optional[list[tuple[int, np.ndarray]]] = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    target_item: int
    num_genuine: int
    num_fakes: int
    metrics: list[evaluation.MetricsRecord]
    ledgers: list[RoundLedger]
    final_embeddings: ItemEmbeddings
    profiles: list[UserProfile]
    dumps: list[evaluation.UpdateDump]
    wall_time: float
    warnings_count: int


def resolve_dataset(config: DatasetConfig, streams: SeedStreams) -> InteractionDataset:
    if config.kind == "synthetic":
        return generate_synthetic(
            config.users,
            config.items,
            config.latent_dim,
            config.interactions_per_user,
            config.popularity_skew,
            streams.synth(),
        )
    with open(config.path, "r", encoding="utf-8") as fp:
        first = fp.readline()
        fp.seek(0)
        if first.startswith("users="):
            return load_dataset(fp)
        return parse_ratings(fp, delimiter=config.format)


def default_target_item(dataset: InteractionDataset) -> int:
    """The least train-interacted item, ties toward the lowest id."""
    counts = dataset.train_counts()
    return int(np.lexsort((np.arange(dataset.num_items), counts))[0])


def build_profiles(dataset: InteractionDataset, dim: int, streams: SeedStreams) -> list[UserProfile]:
    profiles = []
    for user in range(dataset.num_users):
        train = dataset.train_set.get(user, [])
        test = dataset.test_set.get(user)
        interacted = set(train)
        if test is not None:
            interacted.add(test)
        profiles.append(
            UserProfile(
                user_id=user,
                user_embedding=streams.user_init(user).uniform(-INIT_SCALE, INIT_SCALE, size=dim),
                interacted=interacted,
                train_items=list(train),
                test_item=test,
            )
        )
    return profiles


def init_embeddings(num_items: int, dim: int, streams: SeedStreams) -> ItemEmbeddings:
    matrix = streams.item_init().uniform(-INIT_SCALE, INIT_SCALE, size=(num_items, dim))
    return ItemEmbeddings(round=1, matrix=matrix)


def run_round(
    embeddings: ItemEmbeddings,
    genuine_profiles: list[UserProfile],
    attack: AttackRuntime,
    spec: AggregatorSpec,
    streams: SeedStreams,
    learning_rate: float = 0.05,
    participation: float = 1.0,
    threads: int = 1,
    capture_target: bool = False,
) -> tuple[ItemEmbeddings, RoundLedger]:
    """One global round: local training, fake uploads, per-item aggregation.

    Items nobody touched carry over bit-identically.
    """
    round_index = embeddings.round

    participants = list(genuine_profiles)
    if attack.active(round_index):
        participants.extend(attack.baseline_profiles)
    if participation < 1.0 and participants:
        keep = max(1, int(round(participation * len(participants))))
        chosen = streams.participation(round_index).choice(
            len(participants), size=keep, replace=False
        )
        participants = [participants[i] for i in sorted(chosen)]

    def step(profile: UserProfile) -> tuple[int, np.ndarray, np.ndarray]:
        rng = streams.pairs(round_index, profile.user_id)
        try:
            pairs = sample_pairs(profile, embeddings.num_items, rng)
        except DegenerateUserError:
            return profile.user_id, np.empty(0, dtype=np.int64), np.empty((0, embeddings.dim))
        return (profile.user_id, *local_train(profile, embeddings, pairs, learning_rate))

    if threads > 1 and len(participants) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            uploads = list(pool.map(step, participants))
    else:
        uploads = [step(p) for p in participants]
    noise_rngs = [
        streams.fake_noise(round_index, fake_id) for fake_id in attack.fake_ids
    ]
    uploads.extend(attack.crafted_updates(embeddings, noise_rngs))

    # int32 ids halve the index every ledger keeps
    users = np.repeat(
        np.array([user for user, _, _ in uploads], dtype=np.int32),
        [len(i) for _, i, _ in uploads],
    )
    items = np.concatenate(
        [np.empty(0, dtype=np.int32)] + [i for _, i, _ in uploads], dtype=np.int32
    )
    vecs = np.concatenate([np.empty((0, embeddings.dim))] + [v for _, _, v in uploads])
    order = np.lexsort((users, items))
    users, items, vecs = users[order], items[order], vecs[order]

    warnings: list[str] = []
    fallbacks: list[int] = []
    matrix = embeddings.matrix.copy()
    # where each item's block of rows starts, then the end of the last one
    bounds = np.append(np.flatnonzero(np.diff(items, prepend=-1)), items.size).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        item = int(items[lo])
        before = len(warnings)
        matrix[item] = matrix[item] + aggregate_item(spec, item, vecs[lo:hi], warnings)
        if len(warnings) > before:
            fallbacks.append(item)
    if fallbacks:
        aggregation_log.warning(
            "round %d: %s degenerate on %d items, fell back to median: %s",
            round_index, spec.rule, len(fallbacks), fallbacks,
        )

    target_contributions = None
    if capture_target:
        lo, hi = np.searchsorted(items, [attack.target_item, attack.target_item + 1])
        target_contributions = list(zip(users[lo:hi].tolist(), vecs[lo:hi].copy()))
    ledger = RoundLedger(round_index, users, items, warnings, target_contributions)
    return ItemEmbeddings(round_index + 1, matrix), ledger


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Drive the full timeline and collect the metric series.

    Fully deterministic given the config; thread count never changes results.
    """
    started = time.perf_counter()
    config.validate()
    streams = SeedStreams(config.seed)

    dataset = resolve_dataset(config.dataset, streams)
    leave_one_out_split(dataset)
    profiles = build_profiles(dataset, config.dim, streams)
    embeddings = init_embeddings(dataset.num_items, config.dim, streams)

    target_item = (
        config.attack.target_item
        if config.attack.target_item is not None
        else default_target_item(dataset)
    )
    if not 0 <= target_item < dataset.num_items:
        raise ValueError(f"target item {target_item} out of range")
    attack = AttackRuntime(config.attack, dataset.num_users, target_item)
    attack.prepare_baselines(dataset, config.dim, streams.baseline())

    # Work on a private aggregator copy: the bank must start empty every run,
    # and an unset krum_m defaults to the true fake count (harness knowledge).
    spec = replace(
        config.aggregator,
        krum_m=(
            config.aggregator.krum_m
            if config.aggregator.krum_m is not None
            else attack.num_fakes
        ),
        hics_state={},
    )

    genuine_ids = [p.user_id for p in profiles]
    # (genuine + fake users, items): whether the user ever uploaded for the item
    footprints = np.zeros((dataset.num_users + attack.num_fakes, dataset.num_items), dtype=bool)
    metrics: list[evaluation.MetricsRecord] = []
    ledgers: list[RoundLedger] = []
    dumps: list[evaluation.UpdateDump] = []
    labels = {u: "genuine" for u in genuine_ids}
    labels.update({f: "fake" for f in attack.fake_ids})

    for round_index in range(1, config.rounds + 1):
        embeddings.round = round_index
        attack.observe_broadcast(embeddings)
        capture = config.dump_round == round_index
        embeddings, ledger = run_round(
            embeddings,
            profiles,
            attack,
            spec,
            streams,
            learning_rate=config.learning_rate,
            participation=config.participation,
            threads=config.threads,
            capture_target=capture,
        )
        ledgers.append(ledger)
        footprints[ledger.users, ledger.items] = True
        if not np.isfinite(embeddings.matrix).all():
            raise FloatingPointError(f"round {round_index}: item embeddings are not finite")

        if capture:
            if ledger.target_contributions:
                dumps.append(
                    evaluation.dump_target_updates(
                        ledger.target_contributions, target_item, labels, round_index
                    )
                )
            else:
                log.warning("round %d: target item received no contributions, nothing to dump", round_index)

        if round_index % config.eval_every == 0 or round_index == config.rounds:
            if not all(np.isfinite(p.user_embedding).all() for p in profiles):
                raise FloatingPointError(f"round {round_index}: user embeddings are not finite")
            counts = dict(enumerate(footprints.sum(axis=1).tolist()))
            record = evaluation.MetricsRecord(
                round=round_index,
                hr_at={k: evaluation.test_hit_ratio(profiles, embeddings, k) for k in config.topk},
                target_hr_at={
                    k: evaluation.target_hit_ratio(profiles, embeddings, target_item, k)
                    for k in config.topk
                },
                ndcg_at={k: evaluation.ndcg_at(profiles, embeddings, k) for k in config.topk},
                footprint=evaluation.footprint_stats(counts, genuine_ids),
            )
            metrics.append(record)

    return ExperimentResult(
        config=config,
        target_item=target_item,
        num_genuine=dataset.num_users,
        num_fakes=attack.num_fakes,
        metrics=metrics,
        ledgers=ledgers,
        final_embeddings=embeddings,
        profiles=profiles,
        dumps=dumps,
        wall_time=time.perf_counter() - started,
        warnings_count=sum(len(l.warnings) for l in ledgers),
    )
