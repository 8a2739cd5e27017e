"""Each check in checks.py rejects a result that breaks it.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository root.
"""
from dataclasses import replace

import numpy as np
import pytest

from fedrec_arena import ItemEmbeddings, run_experiment

from checks import AttackPeak, CleanCeiling, TargetRises, UtilityFloor, check_run
from workloads import find_run

RUN = find_run("desk", "fedavg-attacked")


@pytest.fixture(scope="module")
def result():
    return run_experiment(RUN.config(0))


@pytest.fixture(scope="module")
def without_fakes():
    """The attacked fedavg config with fake_fraction 0."""
    config = RUN.config(0)
    return run_experiment(replace(config, attack=replace(config.attack, fake_fraction=0.0)))


def with_final(result, field: str, k: int, value: float):
    last = result.metrics[-1]
    values = {**getattr(last, field), k: value}
    return replace(result, metrics=result.metrics[:-1] + [replace(last, **{field: values})])


def test_unmodified_result_passes(result):
    assert check_run(result, RUN) == []


@pytest.mark.parametrize(
    "field, name, k, nudge",
    [
        ("hr_at", "hr", 10, 1 / 200),
        ("ndcg_at", "ndcg", 5, 1e-9),
        ("target_hr_at", "target_hr", 5, -1 / 200),
    ],
)
def test_perturbed_final_metric_is_rejected(result, field, name, k, nudge):
    perturbed = with_final(result, field, k, getattr(result.metrics[-1], field)[k] + nudge)
    errors = check_run(perturbed, RUN)
    assert len(errors) == 1 and errors[0].startswith(f"final {name}@{k} reads"), errors


@pytest.mark.parametrize("where", ["item", "user"])
def test_nan_embedding_is_rejected(result, where):
    if where == "item":
        matrix = result.final_embeddings.matrix.copy()
        matrix[3, 0] = np.nan
        broken = replace(result, final_embeddings=ItemEmbeddings(result.final_embeddings.round, matrix))
    else:
        profiles = list(result.profiles)
        embedding = profiles[7].user_embedding.copy()
        embedding[1] = np.nan
        profiles[7] = replace(profiles[7], user_embedding=embedding)
        broken = replace(result, profiles=profiles)
    assert check_run(broken, RUN) == ["final item or user embeddings are not finite"]


def test_attacked_config_without_fakes_is_rejected(without_fakes):
    errors = check_run(without_fakes, RUN)
    assert "0 fakes, expected 2" in errors
    assert any("peaks at" in e for e in errors), errors


def test_each_property_can_fail(result, without_fakes):
    assert AttackPeak(0.80, within=50)(without_fakes, RUN)
    assert TargetRises()(without_fakes, RUN)
    assert CleanCeiling(0.02)(result, RUN)
    assert UtilityFloor(3.0)(with_final(result, "hr_at", 10, 0.0), RUN)
    for prop in (AttackPeak(0.80, within=50), TargetRises()):
        assert prop(result, RUN) is None
    assert CleanCeiling(0.02)(without_fakes, RUN) is None
