"""Round engine: broadcast, local training, aggregation, timeline.

A run keeps its users in one ``UserTable``. A round trains every participant
row at once, in place: one draw of every negative, one gradient pass. Its
uploads form one rank-1 contribution table: parallel arrays of item ids,
source rows and scales, in upload order (the trained rows in (item,
contributor) order, then the crafted rows, fake by fake), so each item's
contributors ascend. Row k is ``scale[k] * sources[who[k]]`` and is built
only inside ``aggregation.aggregate_round``, which groups the rows by item
itself and aggregates every touched item in one call.

A run keeps no round's table: every round marks one (users, items) footprint
matrix in place, and its ``RoundLedger`` keeps the target item's contributors
and the items that fell back to the median. The ledger of the dump round
(``ExperimentConfig.dump_round``) also keeps the contributors' target rows,
which is all that ``cli`` exports to ``target_updates.csv``.

A run is refused one way, before round 1. Each config dataclass is frozen and
checks its own fields when it is built, among them the synthetic shape
(``DatasetConfig``), the target's type (``AttackConfig``) and hics_z >= 1
(``AggregatorSpec``); ``ExperimentConfig`` checks what crosses sections: hics_z
<= dim under hics, the start round and a synthetic item count. Building an
``Experiment`` is setup, which checks what needs the data once: that the dataset
file opens and parses and fits the attack, that some user has a held-out item
and that some user never interacted with the target. Each such refusal is a
``ConfigError``; ``Experiment.run`` then runs the rounds.

Determinism contract: every random draw comes from a substream keyed by
(master seed, purpose tag, round[, actor id]). A round's negatives come from
one stream consumed in user-id order, each user's train items in order, so
results are bit-identical for a fixed seed. Each genuine user's initial
embedding has its own stream, keyed by user id; ``SeedStreams.user_inits``
draws every user's stream in one array pass, with the same bits as one numpy
generator per user.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import evaluation
from .aggregation import AggregatorSpec, aggregate_round, log as aggregation_log
from .attack import AttackConfig, AttackRuntime
from .data import (
    InteractionDataset,
    check_synthetic_shape,
    draw_round_pairs,
    generate_synthetic,
    leave_one_out_split,
    load_dataset,
    parse_ratings,
)
from .model import ItemEmbeddings, UserProfile, UserTable, train_step

INIT_SCALE = 0.05  # embeddings start i.i.d. uniform on [-INIT_SCALE, INIT_SCALE]

# substream purpose tags
_ITEM_INIT, _USER_INIT, _PAIRS, _FAKE_NOISE, _BASELINE, _SYNTH, _PARTICIPATION = range(7)


class ConfigError(ValueError):
    """A config, or the data it names, that cannot run; the message names its key."""


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, as uint64 limbs, and its low limb's 32-bit halves
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_HI, _MULT_LO = _PCG_MULT >> 64, _PCG_MULT & 2**64 - 1
_MULT_LO_0, _MULT_LO_1 = _PCG_MULT & _MASK32, _PCG_MULT >> 32 & _MASK32


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for many entropies at once.

    ``entropy`` lists the assembled entropy's uint32 words, each an array with
    one entry per stream; the result is the four uint64 words, likewise.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # entropy beyond the pool mixes into every pool word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        words.append((value ^ value >> 16).astype(np.uint64))
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]  # little-endian pairs


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step, ``state * _PCG_MULT + inc``, on (hi, lo) uint64 limbs."""
    # the high limb of lo * _MULT_LO, from the products of their 32-bit halves
    lo0, lo1 = lo & _MASK32, lo >> 32
    cross0, cross1 = lo0 * _MULT_LO_1, lo1 * _MULT_LO_0
    mid = (lo0 * _MULT_LO_0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    high = lo1 * _MULT_LO_1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    new_lo = lo * _MULT_LO + inc_lo
    return high + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo), new_lo


def _uint32_words(n: int) -> list[int]:
    """A non-negative int's 32-bit words, lowest first, as SeedSequence splits it."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class SeedStreams:
    """Spawns independent, reproducible RNG substreams from one master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed

    def _stream(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.master_seed, *key]))

    def item_init(self) -> np.random.Generator:
        return self._stream(_ITEM_INIT)

    def user_inits(self, count: int, dim: int) -> np.ndarray:
        """(count, dim) initial user embeddings, row u drawn from user u's own stream.

        Row u is ``self._stream(_USER_INIT, u).uniform(-INIT_SCALE, INIT_SCALE,
        dim)`` bit for bit, drawn for every user at once: SeedSequence's pool
        mixing and state words as uint32 array passes over the user-id word,
        then PCG64's seeding and its 128-bit LCG steps with XSL-RR output on
        uint64 limbs, and ``low + (high - low) * ((x >> 11) * 2**-53)`` per draw.
        """
        key = [*_uint32_words(int(self.master_seed)), _USER_INIT]
        entropy = [np.full(count, word, dtype=np.uint32) for word in key]
        seed_hi, seed_lo, seq_hi, seq_lo = _seed_state([*entropy, np.arange(count, dtype=np.uint32)])
        inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1  # (seq << 1) | 1
        # seeding: the zero state steps to inc, takes the seed in, and steps again
        lo = inc_lo + seed_lo
        hi, lo = _pcg64_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
        unit = np.empty((count, dim))
        for j in range(dim):
            hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> 58  # XSL-RR: fold the halves, rotate right by the top 6 bits
            unit[:, j] = (x >> rot | x << (-rot & 63)) >> 11
        # low + (high - low) * unit, in place: each temporary the size of the
        # table would be one more setup allocation for the rounds' heap to sit above
        low, high = -INIT_SCALE, INIT_SCALE
        unit *= 2.0**-53
        unit *= high - low
        unit += low
        return unit

    def negatives(self, round_index: int) -> np.random.Generator:
        return self._stream(_PAIRS, round_index)

    def fake_noise(self, round_index: int, fake_id: int) -> np.random.Generator:
        return self._stream(_FAKE_NOISE, round_index, fake_id)

    def baseline(self) -> np.random.Generator:
        return self._stream(_BASELINE)

    def synth(self) -> np.random.Generator:
        return self._stream(_SYNTH)

    def participation(self, round_index: int) -> np.random.Generator:
        return self._stream(_PARTICIPATION, round_index)


@dataclass(frozen=True)
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

    def __post_init__(self):
        if self.kind not in ("synthetic", "file"):
            raise ValueError(f"unknown dataset.kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("dataset.kind 'file' requires a dataset.path")
        if not math.isfinite(self.popularity_skew):
            raise ValueError(f"dataset.popularity_skew must be finite, got {self.popularity_skew}")
        if self.kind == "synthetic":
            check_synthetic_shape(self.users, self.items, self.latent_dim, self.interactions_per_user)


@dataclass(frozen=True)
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
    # Only 1 is valid: a round trains every participant in one array pass.
    # The field stays because perfbench/workloads.py still passes threads=1.
    threads: int = 1
    dump_round: Optional[int] = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("federation.rounds must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("model.learning_rate must lie in (0, inf)")
        if self.eval_every < 1:
            raise ValueError("eval.every must be >= 1")
        if not 0 < self.participation <= 1:
            raise ValueError("federation.participation must be in (0, 1]")
        if self.dim < 1:
            raise ValueError("model.dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.threads != 1:
            raise ValueError("threads must be 1: a round trains every participant in one pass")
        if any(k < 1 for k in self.topk):
            raise ValueError("every eval.topk entry must be >= 1")
        if self.dump_round is not None and not 1 <= self.dump_round <= self.rounds:
            raise ValueError("eval.dump_round must lie in [1, federation.rounds]")
        if self.aggregator.rule == "hics" and self.aggregator.hics_z > self.dim:
            raise ValueError(f"aggregator.hics_z must be <= model.dim={self.dim} under hics")
        if self.attack.attacking and not 1 <= self.attack.start_round <= self.rounds:
            raise ValueError("attack.start_round must lie in [1, federation.rounds]")
        if self.dataset.kind == "synthetic":
            self.check_item_count(self.dataset.items)

    def check_item_count(self, num_items: int) -> None:
        """Reject a target item or attack size that does not fit ``num_items`` items."""
        target = self.attack.target_item
        if target is not None and not 0 <= target < num_items:
            raise ConfigError(f"attack.target_item {target} must lie in [0, items={num_items})")
        if not self.attack.attacking:
            return
        if not 0 <= self.attack.filler_count < num_items:
            raise ConfigError(f"attack.filler_count must lie in [0, items={num_items})")
        if self.attack.kind == "poisonfrs" and not 1 <= self.attack.popular_count <= num_items:
            raise ConfigError(f"attack.popular_count must lie in [1, items={num_items}]")


@dataclass
class RoundLedger:
    round: int
    fallbacks: np.ndarray  # int32 ids of the items that fell back to the median
    target_users: np.ndarray  # int32 target contributor ids, ascending; fakes from num_genuine
    target_rows: Optional[np.ndarray] = None  # their target deltas, kept at the dump round only


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    target_item: int
    num_genuine: int
    num_fakes: int
    metrics: list[evaluation.MetricsRecord]
    ledgers: list[RoundLedger]
    # (genuine + fakes, items): whether the user ever uploaded for the item
    footprints: np.ndarray
    final_embeddings: ItemEmbeddings
    profiles: list[UserProfile]
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
    try:
        with open(config.path, "r", encoding="utf-8") as fp:
            first = fp.readline()
            fp.seek(0)
            return load_dataset(fp) if first.startswith("users=") else parse_ratings(fp)
    except (OSError, ValueError) as exc:  # a parse error carries its line number
        raise ConfigError(f"dataset.path: {exc}") from exc


def build_user_table(
    split, num_items: int, dim: int, streams: SeedStreams, fake_embeddings, fake_items
) -> UserTable:
    """Every user of the run: the split's genuine users, then one fake per ``fake_items`` row."""
    owners, train_items, test_items = split
    fakes = np.arange(test_items.size, test_items.size + len(fake_items))
    return UserTable.build(
        np.concatenate((streams.user_inits(test_items.size, dim), fake_embeddings)),
        num_items,
        np.concatenate((owners, np.repeat(fakes, fake_items.shape[1]))),
        np.concatenate((train_items, fake_items.ravel())),
        np.concatenate((test_items, np.full(fakes.size, -1))),
    )


def init_embeddings(num_items: int, dim: int, streams: SeedStreams) -> ItemEmbeddings:
    matrix = streams.item_init().uniform(-INIT_SCALE, INIT_SCALE, size=(num_items, dim))
    return ItemEmbeddings(round=1, matrix=matrix)


def run_round(
    embeddings: ItemEmbeddings,
    users: UserTable,
    attack: AttackRuntime,
    spec: AggregatorSpec,
    streams: SeedStreams,
    learning_rate: float,
    participation: float,
    bank: np.ndarray,
    footprints: np.ndarray,
    capture_target: bool = False,
) -> tuple[ItemEmbeddings, RoundLedger]:
    """One global round: local training, fake uploads, aggregation.

    Participants are table rows in id order: the genuine users, and the
    baseline fakes from the attack's start round on. Items nobody touched
    carry over bit-identically. ``bank`` (the HiCS bank, one row per item) and
    ``footprints`` (users, items) are carried between rounds and updated in place.
    """
    round_index = embeddings.round
    # the next model outlives the round: copied before the round's temporaries,
    # it does not end up above them on the heap, which can then shrink as they go
    matrix = embeddings.matrix.copy()

    count = len(users) if attack.active(round_index) else attack.num_genuine
    rows = np.arange(count)
    if participation < 1.0 and count:
        keep = max(1, int(round(participation * count)))
        rows = np.sort(streams.participation(round_index).choice(count, size=keep, replace=False))

    owner, pos, neg = draw_round_pairs(users, rows, streams.negatives(round_index))
    # crafting changes no state, so sources is built once, before training: the
    # participants' old embeddings, then the crafted rows. Mode "clip" gathers
    # in place, "raise" into a temporary first; rows holds valid row ids.
    fake_ids, fake_items, fake_deltas = attack.crafted_updates(embeddings, streams)
    sources = np.empty((rows.size + len(fake_deltas), embeddings.dim))
    np.take(users.embeddings, rows, axis=0, out=sources[:rows.size], mode="clip")
    sources[rows.size:] = fake_deltas
    items, who, scale, stepped = train_step(
        sources[:rows.size], embeddings.matrix, owner, pos, neg, learning_rate
    )
    del owner, pos, neg  # O(pairs) arrays that no later step reads
    users.embeddings[rows] = stepped

    # Row k of the table is scale[k] * sources[who[k]], never built here; the
    # crafted rows are at scale 1. train_step's columns own their data and
    # nothing views them, so they are resized in place, not concatenated into
    # new columns, and keep their dtypes.
    trained = items.size
    for column in (items, who, scale):
        column.resize(trained + fake_items.size, refcheck=False)
    items[trained:] = fake_items
    who[trained:] = np.arange(rows.size, len(sources))
    scale[trained:] = 1.0
    contributors = np.concatenate((rows, fake_ids), dtype=np.int32)[who]
    footprints[contributors, items] = True

    touched, deltas, fallbacks = aggregate_round(spec, items, who, scale, sources, bank)
    matrix[touched] += deltas
    if fallbacks.size:
        aggregation_log.warning(
            "round %d: %s degenerate on %d items, fell back to median: %s",
            round_index, spec.rule, fallbacks.size, fallbacks.tolist(),
        )

    # ascending: training emits (item, user) order and the crafted rows come last
    hits = np.flatnonzero(items == attack.target_item)
    target_rows = sources[who[hits]] * scale[hits, None] if capture_target else None
    ledger = RoundLedger(round_index, fallbacks, contributors[hits], target_rows)
    return ItemEmbeddings(round_index + 1, matrix), ledger


class Experiment:
    """One run: building it is the setup, which raises ConfigError on data it cannot run."""

    def __init__(self, config: ExperimentConfig):
        self.started = time.perf_counter()
        self.config = config
        self.streams = streams = SeedStreams(config.seed)

        dataset = resolve_dataset(config.dataset, streams)
        if config.dataset.kind == "file":  # a synthetic item count was checked with the config
            config.check_item_count(dataset.num_items)
        split = leave_one_out_split(dataset)
        if (split[2] < 0).all():
            raise ConfigError("dataset: no user has a held-out item (each has under 2 interactions)")
        self.embeddings = init_embeddings(dataset.num_items, config.dim, streams)

        train_counts = np.bincount(split[1], minlength=dataset.num_items)
        target_item = config.attack.target_item
        if target_item is None:  # the least train-interacted item, ties toward the lowest id
            target_item = int(np.argmin(train_counts))
        self.attack = AttackRuntime(config.attack, dataset.num_users, target_item)
        fakes = self.attack.baseline_fakes(train_counts, config.dim, streams.baseline())
        self.users = build_user_table(split, dataset.num_items, config.dim, streams, *fakes)
        if self.users.interacted[: dataset.num_users, target_item].all():
            raise ConfigError(f"attack.target_item: every user has interacted with item {target_item}")

    def run(self) -> ExperimentResult:
        """Run every round on ``users`` and ``embeddings`` in place, so an Experiment runs once."""
        config, attack, users = self.config, self.attack, self.users
        num_genuine, target_item = attack.num_genuine, attack.target_item
        spec = config.aggregator  # an unset krum_m defaults to the true fake count
        if spec.krum_m is None:
            spec = replace(spec, krum_m=attack.num_fakes)
        bank = np.zeros_like(self.embeddings.matrix)  # HiCS carry-over, empty every run

        footprints = np.zeros((num_genuine + attack.num_fakes, self.embeddings.num_items), dtype=bool)
        metrics: list[evaluation.MetricsRecord] = []
        ledgers: list[RoundLedger] = []

        for round_index in range(1, config.rounds + 1):
            attack.observe_broadcast(self.embeddings)
            self.embeddings, ledger = run_round(
                self.embeddings, users, attack, spec, self.streams, config.learning_rate,
                config.participation, bank, footprints, config.dump_round == round_index,
            )
            ledgers.append(ledger)
            if not np.isfinite(self.embeddings.matrix).all():
                raise FloatingPointError(f"round {round_index}: item embeddings are not finite")

            if round_index % config.eval_every == 0 or round_index == config.rounds:
                if not np.isfinite(users.embeddings[:num_genuine]).all():
                    raise FloatingPointError(f"round {round_index}: user embeddings are not finite")
                ranked = evaluation.rank_metrics(
                    users, num_genuine, self.embeddings, target_item, config.topk
                )
                footprint = evaluation.footprint_stats(footprints[:num_genuine].sum(axis=1))
                metrics.append(evaluation.MetricsRecord(round_index, *ranked, footprint))

        return ExperimentResult(
            config=config,
            target_item=target_item,
            num_genuine=num_genuine,
            num_fakes=attack.num_fakes,
            metrics=metrics,
            ledgers=ledgers,
            footprints=footprints,
            final_embeddings=self.embeddings,
            profiles=users.profiles(num_genuine),
            wall_time=time.perf_counter() - self.started,
            warnings_count=sum(l.fallbacks.size for l in ledgers),
        )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """``Experiment(config).run()``: data it cannot run is a ConfigError at setup."""
    return Experiment(config).run()
