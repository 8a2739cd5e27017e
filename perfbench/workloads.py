"""The benchmark's workloads: the engine runs each one makes and what each run must show.

Every rule uses the acceptance suite's parameters and the attack is the
suite's ``poisonfrs()``: 1% fakes, 10 fillers, lambda = 10, 5 popular items.
Timelines are shorter than the suite's 150 rounds wherever the checked
property already holds earlier, so that a whole workload fits in one
measured pass; README.md gives the reasons and the shapes left out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from checks import AttackPeak, CleanCeiling, TargetRises, UtilityFloor

FAKE_FRACTION = 0.01
DIM = 32
TOPK = (5, 10)


@dataclass(frozen=True)
class Run:
    """One engine run: shape, rule, timeline and the properties its result must have."""

    name: str
    users: int
    items: int
    per_user: int
    rule: str
    attacked: bool
    rounds: int
    start: int  # attack start; a clean run is scored over the same window
    eval_every: int
    properties: tuple = ()

    @property
    def num_fakes(self) -> int:
        return math.ceil(FAKE_FRACTION * self.users) if self.attacked else 0

    @property
    def updates(self) -> int:
        """Participant updates the round engine processes: every genuine user
        each round, plus every fake each attacked round."""
        return self.users * self.rounds + self.num_fakes * (self.rounds - self.start + 1)

    def config(self, seed: int):
        # imported here: run.py reads the workloads without the engine on its path
        from fedrec_arena import AggregatorSpec, AttackConfig, DatasetConfig, ExperimentConfig

        rules = {
            "fedavg": AggregatorSpec(rule="fedavg"),
            "median": AggregatorSpec(rule="median"),
            "trimmed_mean": AggregatorSpec(rule="trimmed_mean", trim_beta=1),
            "clip": AggregatorSpec(rule="clip", clip_bound=3.0),
            "krum": AggregatorSpec(rule="krum"),  # krum_m defaults to the fake count
            "hics": AggregatorSpec(rule="hics", hics_z=8),
        }
        attack = (
            AttackConfig(
                kind="poisonfrs", fake_fraction=FAKE_FRACTION, start_round=self.start,
                filler_count=10, scale=10.0, popular_count=5,
            )
            if self.attacked
            else AttackConfig(kind="none")
        )
        return ExperimentConfig(
            dataset=DatasetConfig(
                kind="synthetic", users=self.users, items=self.items,
                interactions_per_user=self.per_user, latent_dim=8, popularity_skew=1.0,
            ),
            dim=DIM,
            learning_rate=0.05,
            rounds=self.rounds,
            aggregator=rules[self.rule],
            attack=attack,
            eval_every=self.eval_every,
            topk=TOPK,
            seed=seed,
            threads=1,
        )


DESK = dict(users=200, items=100, per_user=20)
SPARSE = dict(users=500, items=505, per_user=5)
LARGE = dict(users=2000, items=1000, per_user=50)

WORKLOADS: dict[str, tuple[Run, ...]] = {
    # The acceptance suite's shape. Per-user layers dominate; Krum is the
    # costliest rule here, with ~72 contributions per aggregated item.
    "desk": (
        # Criterion 10 needs the full 150 rounds: at 100 rounds seed 2 reads
        # HR@10 0.370 against a floor of 0.3704.
        Run("fedavg-clean", **DESK, rule="fedavg", attacked=False, rounds=150, start=50,
            eval_every=10, properties=(CleanCeiling(0.02), UtilityFloor(3.0))),
        Run("fedavg-attacked", **DESK, rule="fedavg", attacked=True, rounds=70, start=50,
            eval_every=10, properties=(AttackPeak(0.80, within=50),)),
        Run("trimmed_mean-attacked", **DESK, rule="trimmed_mean", attacked=True, rounds=70,
            start=50, eval_every=10, properties=(AttackPeak(0.60),)),
        Run("clip-attacked", **DESK, rule="clip", attacked=True, rounds=70, start=50,
            eval_every=10, properties=(AttackPeak(0.60),)),
        # Krum holds at this shape (~45 genuine target contributions against
        # 2 fakes), so only the generic checks apply.
        Run("krum-attacked", **DESK, rule="krum", attacked=True, rounds=70, start=50,
            eval_every=10),
    ),
    # Criterion 2's shape: ~500 items a round each get a handful of contributions,
    # so per-item call overhead is the cost, and Krum falls back to the
    # median (one logged WARNING each) on most items every round.
    "sparse": (
        Run("krum-clean", **SPARSE, rule="krum", attacked=False, rounds=60, start=40,
            eval_every=10, properties=(CleanCeiling(0.02),)),
        Run("krum-attacked", **SPARSE, rule="krum", attacked=True, rounds=60, start=40,
            eval_every=10, properties=(AttackPeak(0.60),)),
        Run("hics-attacked", **SPARSE, rule="hics", attacked=True, rounds=60, start=40,
            eval_every=10, properties=(AttackPeak(0.60),)),
    ),
    # Well beyond desk scale: evaluation is a large share, and per-item
    # contributor counts are wide, so a rule that pads shows in peak memory.
    "large": (
        Run("fedavg-attacked", **LARGE, rule="fedavg", attacked=True, rounds=4, start=3,
            eval_every=2, properties=(TargetRises(),)),
        Run("median-attacked", **LARGE, rule="median", attacked=True, rounds=4, start=3,
            eval_every=2),
    ),
}


def find_run(workload: str, name: str) -> Run:
    for run in WORKLOADS[workload]:
        if run.name == name:
            return run
    raise KeyError(f"workload {workload!r} has no run {name!r}")
