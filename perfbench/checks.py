"""Checks every engine run must pass, computed apart from the engine's own code.

``check_run`` returns a list of failures, empty when the run is correct:

- the final item and user embeddings are finite;
- the fake count is ceil(0.01 * users) for an attacked run and 0 for a clean one;
- the final HR@K, NDCG@K and target HR@K equal a recomputation from the
  final embeddings and profiles: one users x items score matmul, masked as
  each metric defines, ties going toward the lower item id. HR and target
  HR must match exactly, NDCG within ``NDCG_TOLERANCE``;
- the properties the run's workload lists for it.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

TARGET_K = 5
NDCG_TOLERANCE = 1e-12


def _window(result, start: int, within: Optional[int] = None) -> dict[int, float]:
    """Target HR@5 by eval round, over rounds at or after ``start`` (and at
    most ``within`` rounds after it)."""
    end = math.inf if within is None else start + within
    return {
        m.round: m.target_hr_at[TARGET_K] for m in result.metrics if start <= m.round <= end
    }


@dataclass(frozen=True)
class AttackPeak:
    """Target HR@5 peaks at or above ``floor`` at or after the attack start."""

    floor: float
    within: Optional[int] = None

    def __call__(self, result, run) -> Optional[str]:
        series = _window(result, run.start, self.within)
        peak = max(series.values(), default=0.0)
        if peak >= self.floor:
            return None
        span = "" if self.within is None else f" within {self.within} rounds of"
        return f"target HR@{TARGET_K} peaks at {peak:.4f}{span} the start (round {run.start}), below {self.floor}"


@dataclass(frozen=True)
class CleanCeiling:
    """Without an attack, target HR@5 stays at or below ``ceiling`` over the
    same rounds an attacked run is scored on."""

    ceiling: float

    def __call__(self, result, run) -> Optional[str]:
        high = max(_window(result, run.start).values(), default=0.0)
        if high <= self.ceiling:
            return None
        return f"clean target HR@{TARGET_K} reaches {high:.4f} at or after round {run.start}, above {self.ceiling}"


@dataclass(frozen=True)
class UtilityFloor:
    """Final HR@10 is at least ``factor`` times random guessing among the
    items a user has not trained on."""

    factor: float

    def __call__(self, result, run) -> Optional[str]:
        mean_train = float(np.mean([len(p.train_items) for p in result.profiles]))
        floor = self.factor * 10.0 / (run.items - mean_train)
        final = result.metrics[-1].hr_at[10]
        if final >= floor:
            return None
        return f"final HR@10 {final:.4f} is below {self.factor}x random guessing ({floor:.4f})"


@dataclass(frozen=True)
class TargetRises:
    """Target HR@5 at the final eval exceeds the last eval before the attack starts."""

    def __call__(self, result, run) -> Optional[str]:
        before = [m.target_hr_at[TARGET_K] for m in result.metrics if m.round < run.start]
        if not before:
            return f"no eval before the attack start (round {run.start})"
        final = result.metrics[-1].target_hr_at[TARGET_K]
        if final > before[-1]:
            return None
        return f"target HR@{TARGET_K} went from {before[-1]:.4f} before the start to {final:.4f} at the end"


def recompute(result) -> dict[str, dict[int, float]]:
    """Final HR@K, NDCG@K and target HR@K from one score matmul."""
    items = result.final_embeddings.matrix
    profiles = result.profiles
    users = np.stack([p.user_embedding for p in profiles])
    scores = users @ items.T
    num_items = items.shape[0]
    ids = np.arange(num_items)

    train = np.zeros(scores.shape, dtype=bool)
    interacted = np.zeros(scores.shape, dtype=bool)
    for row, p in enumerate(profiles):
        train[row, list(p.train_items)] = True
        interacted[row, list(p.interacted)] = True

    def ahead_of(rows: np.ndarray, item: np.ndarray, masked: np.ndarray) -> np.ndarray:
        """Per row, how many unmasked items outrank ``item`` (ties to the lower id)."""
        own = scores[rows, item][:, None]
        better = (scores[rows] > own) | ((scores[rows] == own) & (ids < item[:, None]))
        return (better & ~masked[rows]).sum(axis=1)

    tested = np.array([row for row, p in enumerate(profiles) if p.test_item is not None])
    test_items = np.array([profiles[row].test_item for row in tested])
    ranks = ahead_of(tested, test_items, train) + 1

    target = result.target_item
    eligible = np.nonzero(~interacted[:, target])[0]
    target_ahead = ahead_of(eligible, np.full(eligible.size, target), interacted)

    ks = sorted(result.metrics[-1].hr_at)
    return {
        "hr": {k: float(np.mean(ranks <= k)) for k in ks},
        "ndcg": {k: float(np.mean(np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0))) for k in ks},
        "target_hr": {k: float(np.mean(target_ahead < k)) for k in ks},
    }


def check_run(result, run) -> list[str]:
    """Every way the run's result fails its checks; empty when it passes."""
    items = result.final_embeddings.matrix
    users = np.stack([p.user_embedding for p in result.profiles])
    if not np.isfinite(items).all() or not np.isfinite(users).all():
        return ["final item or user embeddings are not finite"]

    errors = []
    if result.num_fakes != run.num_fakes:
        errors.append(f"{result.num_fakes} fakes, expected {run.num_fakes}")

    final = result.metrics[-1]
    if final.round != run.rounds:
        errors.append(f"last eval at round {final.round}, expected {run.rounds}")
    expected = recompute(result)
    reported = {"hr": final.hr_at, "ndcg": final.ndcg_at, "target_hr": final.target_hr_at}
    for name, by_k in expected.items():
        for k, value in by_k.items():
            got = reported[name].get(k)
            off = math.inf if got is None else abs(got - value)
            if off > (NDCG_TOLERANCE if name == "ndcg" else 0.0):
                errors.append(f"final {name}@{k} reads {got}, recomputed {value}")

    for prop in run.properties:
        failure = prop(result, run)
        if failure:
            errors.append(failure)
    return errors


def digest(result) -> str:
    """Hash of the run's metric series and final item and user embeddings."""
    h = hashlib.sha256()
    for m in result.metrics:
        h.update(np.array([m.round], dtype=np.int64).tobytes())
        for series in (m.hr_at, m.target_hr_at, m.ndcg_at):
            h.update(np.array(sorted(series.items()), dtype=np.float64).tobytes())
        if m.footprint is not None:
            fp = m.footprint
            h.update(np.array([fp.mean, fp.std, fp.min, fp.max], dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(result.final_embeddings.matrix).tobytes())
    for p in result.profiles:
        h.update(np.ascontiguousarray(p.user_embedding).tobytes())
    return h.hexdigest()[:16]
