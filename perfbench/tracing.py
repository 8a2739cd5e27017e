"""Timing hooks around the engine's calls into its layers.

Each hook replaces a name where the engine looks it up (a module global or
a class attribute), adds the time spent in the call and the call count to a
``Spans`` record, and calls the original. ``restore`` puts every original
back. A hook whose target no longer exists is listed in ``Spans.missing``
and skipped, so the untraced measurement never depends on it.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Optional

# Every span and end-to-end time is CPU time of the run process. The engine
# runs with one thread and one BLAS thread, so on an idle machine this is its
# wall time; on a shared host it leaves out the time the process waits for a
# core (including host steal), which made wall times spread by more than
# their median from one run to the next.
CLOCK = time.process_time

# (owner module, owner class or None, attribute, span name, counter name, count)
# The counter, when given, adds count(args, result) per call.
LAYER_HOOKS: tuple = (
    ("fedrec_arena.federation", None, "generate_synthetic", "data.generate_synthetic", None, None),
    ("fedrec_arena.federation", None, "sample_pairs", "data.sample_pairs", None, None),
    ("fedrec_arena.federation", "SeedStreams", "pairs", "federation.seed_streams", None, None),
    ("fedrec_arena.federation", None, "local_train", "model.local_train",
     "model.item_deltas", lambda args, out: len(out[1])),
    ("fedrec_arena.federation", None, "aggregate_item", "aggregation.aggregate_item",
     "aggregation.contributions", lambda args, out: len(args[2])),
    ("fedrec_arena.federation", "AttackRuntime", "crafted_updates", "attack.crafted_updates",
     "attack.fake_uploads", lambda args, out: len(out)),
    ("fedrec_arena.evaluation", None, "target_hit_ratio", "evaluation.target_hr", None, None),
    ("fedrec_arena.evaluation", None, "test_hit_ratio", "evaluation.test_ranks", None, None),
    ("fedrec_arena.evaluation", None, "ndcg_at", "evaluation.test_ranks", None, None),
    ("fedrec_arena.evaluation", None, "recommend_topk", "model.recommend_topk", None, None),
)

# Spans that run only inside run_round; the rest of run_round is its self time.
ROUND_CHILDREN = (
    "data.sample_pairs",
    "federation.seed_streams",
    "model.local_train",
    "aggregation.aggregate_item",
    "attack.crafted_updates",
)


class Spans:
    """Accumulated seconds, calls and counts per span name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.first_call: dict[str, float] = {}
        self.missing: list[str] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attribute: str,
        span: str,
        counter: Optional[str] = None,
        count: Optional[Callable] = None,
    ) -> None:
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        clock = CLOCK

        def timed(*args, **kwargs):
            began = clock()
            self.first_call.setdefault(span, began)
            try:
                out = original(*args, **kwargs)
            finally:
                self.seconds[span] += clock() - began
                self.calls[span] += 1
            if counter is not None:
                self.counts[counter] += count(args, out)
            return out

        setattr(owner, attribute, timed)
        self._originals.append((owner, attribute, original))

    def restore(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


def install(traced: bool) -> Spans:
    """Hook run_round always, and every layer when ``traced``."""
    spans = Spans()
    federation = importlib.import_module("fedrec_arena.federation")
    spans.wrap(federation, "run_round", "federation.run_round")
    if spans.missing:
        raise RuntimeError("fedrec_arena.federation.run_round is gone; the end-to-end metrics need it")
    if traced:
        for module, cls, attribute, span, counter, count in LAYER_HOOKS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
                if owner is None:
                    spans.missing.append(f"{module}.{cls}")
                    continue
            spans.wrap(owner, attribute, span, counter, count)
    return spans
