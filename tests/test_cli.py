import json
import logging
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fedrec_arena import (
    AggregatorSpec, AttackConfig, DatasetConfig, ExperimentConfig, run_experiment,
)
from fedrec_arena.cli import ConfigError, build_experiment, main, resolve_config
from fedrec_arena.evaluation import project_2d

MINIMAL = {
    "dataset": {"users": 30, "items": 25, "interactions_per_user": 5, "latent_dim": 3},
    "federation": {"rounds": 10},
    "eval": {"every": 3, "topk": [5]},
    "seed": 4,
}


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def read_metric_rows(out_dir):
    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "round,metric,k,value"
    return [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------- config handling

def test_defaults_fill_in_and_echo():
    resolved = resolve_config({})
    assert resolved["model"]["learning_rate"] == 0.05
    assert resolved["attack"]["lambda"] == 10.0
    assert resolved["attack"]["popular_count"] == 5
    assert resolved["attack"]["start_round"] == 50
    assert resolved["attack"]["filler_count"] == 59
    assert resolved["federation"]["rounds"] == 300
    assert resolved["seed"] == 0


def test_unknown_key_names_field_path():
    with pytest.raises(ConfigError, match=r"attack\.lambda_typo"):
        resolve_config({"attack": {"lambda_typo": 3}})
    with pytest.raises(ConfigError, match="spelling"):
        resolve_config({"spelling": {}})
    with pytest.raises(ConfigError, match="threads"):
        resolve_config({"threads": 1})


def test_dataset_format_is_an_unknown_key():
    with pytest.raises(ConfigError, match=r"dataset\.format: unknown key"):
        resolve_config({"dataset": {"format": None}})


# every key set away from its default; kind "file" skips the synthetic shape checks
EVERY_KEY = {
    "dataset": {"kind": "file", "users": 31, "items": 26, "latent_dim": 4,
                "interactions_per_user": 6, "popularity_skew": 0.5, "path": "ratings.tsv"},
    "model": {"dim": 16, "learning_rate": 0.1},
    "federation": {"rounds": 40, "participation": 0.5},
    "aggregator": {"rule": "hics", "trim_beta": 2, "krum_m": 3, "clip_bound": 2.5, "hics_z": 4},
    "attack": {"kind": "poisonfrs", "fake_fraction": 0.2, "start_round": 7, "filler_count": 3,
               "lambda": 4.0, "popular_count": 2, "noise_std": 0.1, "target_item": 5},
    "eval": {"every": 4, "topk": [3, 7], "dump_round": 9},
    "seed": 11,
}


def dotted_keys(document):
    keys = set()
    for key, value in document.items():
        keys |= {f"{key}.{sub}" for sub in value} if isinstance(value, dict) else {key}
    return keys


def test_every_key_reaches_the_config():
    expected = ExperimentConfig(
        dataset=DatasetConfig(kind="file", users=31, items=26, latent_dim=4,
                              interactions_per_user=6, popularity_skew=0.5, path="ratings.tsv"),
        dim=16, learning_rate=0.1, rounds=40, participation=0.5,
        aggregator=AggregatorSpec(rule="hics", trim_beta=2, krum_m=3, clip_bound=2.5, hics_z=4),
        attack=AttackConfig(kind="poisonfrs", fake_fraction=0.2, start_round=7, filler_count=3,
                            scale=4.0, popular_count=2, noise_std=0.1, target_item=5),
        eval_every=4, topk=(3, 7), dump_round=9, seed=11,
    )
    assert build_experiment(resolve_config(EVERY_KEY)) == expected
    # the document names every key, and each differs from its field's default
    assert dotted_keys(EVERY_KEY) == dotted_keys(resolve_config({}))
    default = ExperimentConfig()
    for section in ("dataset", "aggregator", "attack"):
        for f in fields(getattr(default, section)):
            given, unset = (getattr(getattr(c, section), f.name) for c in (expected, default))
            assert given != unset, f"{section}.{f.name}"
    for f in fields(default):
        if f.name not in ("dataset", "aggregator", "attack", "threads"):
            assert getattr(expected, f.name) != getattr(default, f.name), f.name


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("dataset", "users", 30.9), ("dataset", "items", "20"), ("federation", "rounds", True),
        ("eval", "topk", [5.5]), (None, "seed", 1.5), ("model", "learning_rate", "0.1"),
        ("aggregator", "trim_beta", False), ("attack", "target_item", 2.0), ("dataset", "kind", 1),
        ("eval", "topk", 5), ("dataset", "path", 5),
    ],
)
def test_run_wrong_json_type_exits_2(tmp_path, capsys, section, key, value):
    document = json.loads(json.dumps(MINIMAL))
    if section:
        document.setdefault(section, {})[key] = value
    else:
        document[key] = value
    config = write_config(tmp_path, document)
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    path = f"{section}.{key}" if section else key
    assert f"error: {path}: expected " in capsys.readouterr().err
    assert not out.exists()


def test_run_integer_for_a_float_field_runs_as_the_float(tmp_path):
    outs = []
    for bound in (3, 3.0):
        config = write_config(tmp_path, dict(MINIMAL, aggregator={"rule": "clip", "clip_bound": bound}))
        outs.append(tmp_path / f"o{bound!r}")
        assert main(["run", "--config", str(config), "--out", str(outs[-1])]) == 0
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        # ids set apart from the message, so that rewording a message keeps its case's id
        pytest.param("attack", "lambda", 0, "attack.lambda", id="attack-lambda-0-attack lambda"),
        pytest.param("attack", "lambda", -1, "attack.lambda", id="attack-lambda--1-attack lambda"),
        pytest.param("attack", "noise_std", -0.5, "attack.noise_std",
                     id="attack-noise_std--0.5-attack noise_std"),
        ("model", "learning_rate", math.nan, "learning_rate"),
        pytest.param("attack", "fake_fraction", math.nan, "attack.fake_fraction",
                     id="attack-fake_fraction-nan-attack fake_fraction"),
        pytest.param("dataset", "popularity_skew", math.nan, "dataset.popularity_skew",
                     id="dataset-popularity_skew-nan-dataset popularity_skew"),
        pytest.param("attack", "lambda", math.nan, "attack.lambda",
                     id="attack-lambda-nan-attack lambda"),
        pytest.param("attack", "noise_std", math.nan, "attack.noise_std",
                     id="attack-noise_std-nan-attack noise_std"),
        pytest.param("aggregator", "clip_bound", math.nan, "aggregator.clip_bound",
                     id="aggregator-clip_bound-nan-aggregator clip_bound"),
        ("federation", "participation", math.nan, "participation"),
        pytest.param("dataset", "latent_dim", 0, "dataset.latent_dim must be >= 1",
                     id="dataset-latent_dim-0-latent_dim must be >= 1"),
        ("model", "learning_rate", math.inf, "model.learning_rate"),
        pytest.param("attack", "lambda", math.inf, "attack.lambda",
                     id="attack-lambda-inf-attack lambda"),
        pytest.param("attack", "noise_std", math.inf, "attack.noise_std",
                     id="attack-noise_std-inf-attack noise_std"),
        ("federation", "rounds", 0, "federation.rounds must be >= 1"),
        ("eval", "every", 0, "eval.every must be >= 1"),
        ("federation", "participation", 1.5, "federation.participation must be"),
        ("model", "dim", 0, "model.dim must be >= 1"),
        ("eval", "topk", [0], "eval.topk entry"),
        ("eval", "dump_round", 11, "eval.dump_round must lie in [1, federation.rounds]"),
        (None, "seed", -1, "seed must be >= 0"),
    ],
)
def test_run_value_that_cannot_run_exits_2(tmp_path, capsys, section, key, value, message):
    attack = {"kind": "poisonfrs", "fake_fraction": 0.1, "start_round": 5, "filler_count": 2}
    document = dict(MINIMAL, attack=attack)
    if section is None:  # a top-level key
        document[key] = value
    else:
        document[section] = {**document.get(section, {}), key: value}
    config = write_config(tmp_path, document)  # json writes nan as NaN, which json reads back
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_minimal_config_row_count(tmp_path):
    config = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    rows = read_metric_rows(out)
    target_rows = [r for r in rows if r[1] == "target_hr" and r[2] == "5"]
    assert len(target_rows) == math.ceil(10 / 3)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["model"]["learning_rate"] == 0.05
    assert summary["config"]["seed"] == 4
    assert summary["final_metrics"]["round"] == 10


def test_run_unknown_aggregator_exits_2(tmp_path, capsys):
    bad = dict(MINIMAL, aggregator={"rule": "majority_vote"})
    config = write_config(tmp_path, bad)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "aggregator.rule" in capsys.readouterr().err


def test_run_hics_z_above_dim_exits_2(tmp_path, capsys):
    bad = dict(MINIMAL, model={"dim": 4}, aggregator={"rule": "hics", "hics_z": 8})
    config = write_config(tmp_path, bad)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "hics_z" in capsys.readouterr().err


@pytest.mark.parametrize(
    "aggregator, field",
    [
        ({"rule": "clip", "clip_bound": 0}, "clip_bound"),
        ({"rule": "trimmed_mean", "trim_beta": -1}, "trim_beta"),
        ({"rule": "krum", "krum_m": -2}, "krum_m"),
        ({"rule": "median", "hics_z": 0}, "hics_z"),
    ],
    ids=["clip_bound", "trim_beta", "krum_m", "hics_z"],
)
def test_run_aggregator_parameter_failing_every_count_exits_2(tmp_path, capsys, aggregator, field):
    config = write_config(tmp_path, dict(MINIMAL, aggregator=aggregator))
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: aggregator.{field} " in capsys.readouterr().err
    assert not out.exists()


def test_run_items_not_above_interactions_per_user_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"dataset": {"items": 10, "interactions_per_user": 20}})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "interactions_per_user" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_non_finite_model_exits_1_without_metrics(tmp_path, capsys):
    # lambda 1e308 overflows the item embeddings three rounds after the attack starts
    document = {
        "dataset": {"users": 200, "items": 100, "interactions_per_user": 20, "latent_dim": 8},
        "federation": {"rounds": 60},
        "attack": {"kind": "poisonfrs", "fake_fraction": 0.01, "start_round": 50,
                   "filler_count": 10, "lambda": 1e308},
        "seed": 0,
    }
    config = write_config(tmp_path, document)
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "round 53: item embeddings are not finite" in err
    assert not (out / "metrics.csv").exists()
    assert not (out / "summary.json").exists()


def test_run_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_run_missing_dataset_file_exits_2(tmp_path, capsys):
    document = dict(MINIMAL, dataset={"kind": "file", "path": str(tmp_path / "nope.tsv")})
    config = write_config(tmp_path, document)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "error: dataset.path: " in capsys.readouterr().err


@pytest.fixture
def no_round(monkeypatch):
    from fedrec_arena import federation

    def fail(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(federation, "run_round", fail)


def test_run_file_dataset_checks_attack_size_before_round_1(tmp_path, capsys, no_round):
    data = tmp_path / "data.tsv"
    data.write_text("users=2 items=3\n0\t0\t0\n0\t1\t1\n1\t1\t0\n1\t2\t1\n")
    attack = {"kind": "poisonfrs", "fake_fraction": 0.5, "start_round": 5, "filler_count": 3}
    document = dict(MINIMAL, dataset={"kind": "file", "path": str(data)}, attack=attack)
    config = write_config(tmp_path, document)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "filler_count" in err and "a round ran" not in err


# a 4 x 5 file where each user holds out an item and items 3 and 4 are eligible targets
FIVE_ITEMS = "users=4 items=5\n" + "".join(
    f"{u}\t{i}\t{o}\n" for u, items in enumerate([(0, 1), (1, 2), (2, 0, 3), (0, 4)])
    for o, i in enumerate(items)
)


@pytest.mark.parametrize(
    "data, attack, message",
    [
        (FIVE_ITEMS, {"filler_count": 5}, "attack.filler_count must lie in [0, items=5)"),
        (FIVE_ITEMS, {"kind": "random", "filler_count": 5},
         "attack.filler_count must lie in [0, items=5)"),
        (FIVE_ITEMS, {"popular_count": 6}, "attack.popular_count must lie in [1, items=5]"),
        (FIVE_ITEMS, {"target_item": 5}, "attack.target_item 5 must lie in [0, items=5)"),
        ("users=2 items=3\n0\t0\t0\n1\t2\t0\n", {}, "dataset: no user has a held-out item"),
        ("users=2 items=3\n0\t1\t0\n0\t0\t1\n1\t0\t0\n1\t2\t1\n", {"target_item": 0},
         "attack.target_item: every user has interacted with item 0"),
        (None, {}, "dataset.path: [Errno 2]"),
        ("users=2 items=3\n0\t0\t0\n0\t1\n", {}, "dataset.path: line 3: bad interaction line"),
    ],
    ids=["filler_count", "baseline_filler_count", "popular_count", "target_item", "one_interaction_each",
         "every_user_has_the_target", "missing_file", "malformed_line"],
)
def test_run_file_dataset_that_cannot_run_exits_2_before_round_1(
    tmp_path, capsys, no_round, data, attack, message
):
    path = tmp_path / "data.tsv"
    if data is not None:
        path.write_text(data)
    attack = {"kind": "poisonfrs", "fake_fraction": 0.5, "start_round": 2, "filler_count": 2,
              "popular_count": 2, **attack}
    config = write_config(tmp_path, dict(MINIMAL, dataset={"kind": "file", "path": str(path)},
                                         attack=attack))
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_run_out_under_a_file_exits_1_before_round_1(tmp_path, capsys, no_round):
    config = write_config(tmp_path, MINIMAL)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["run", "--config", str(config), "--out", str(blocker / "o")]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: run failed: ")
    assert "a round ran" not in err
    assert blocker.read_text() == ""


def test_run_unwritable_out_prints_one_error_line_and_no_traceback(tmp_path, capsys, caplog):
    config = write_config(tmp_path, MINIMAL)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "o"  # its parent is a file
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run failed: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR or r.exc_info]
    assert blocker.read_text() == "" and not out.exists()


def test_summary_echo_reproduces_metrics_bytes(tmp_path):
    config = write_config(tmp_path, MINIMAL)
    out1 = tmp_path / "first"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    echoed = json.loads((out1 / "summary.json").read_text())["config"]
    config2 = write_config(tmp_path, echoed, name="echoed.json")
    out2 = tmp_path / "second"
    assert main(["run", "--config", str(config2), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_seed_override_changes_results(tmp_path):
    config = write_config(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "metrics.csv").read_text() != (out2 / "metrics.csv").read_text()
    assert json.loads((out2 / "summary.json").read_text())["config"]["seed"] == 99


def test_dump_updates_writes_rows(tmp_path):
    document = dict(MINIMAL)
    document["attack"] = {
        "kind": "poisonfrs", "fake_fraction": 0.1, "start_round": 5, "filler_count": 2,
    }
    config = write_config(tmp_path, document)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--dump-updates", "7"]) == 0
    lines = (out / "target_updates.csv").read_text().strip().splitlines()
    assert lines[0].startswith("round,item,user,label,proj_x,proj_y,v0")
    assert any(",fake," in line for line in lines[1:])


def dumped_run(tmp_path, document, dump_round):
    """``run --dump-updates dump_round`` on ``document``, and the same run's result."""
    config = write_config(tmp_path, document)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--dump-updates", str(dump_round)]) == 0
    resolved = resolve_config(document)
    resolved["eval"]["dump_round"] = dump_round
    return out, run_experiment(build_experiment(resolved))


def test_dump_csv_is_the_dump_round_ledger(tmp_path):
    document = dict(MINIMAL, federation={"rounds": 10, "participation": 0.6}, attack={
        "kind": "poisonfrs", "fake_fraction": 0.1, "start_round": 5, "filler_count": 2,
        "noise_std": 0.3,
    })
    out, result = dumped_run(tmp_path, document, 7)
    ledger = result.ledgers[6]
    assert ledger.round == 7
    lines = (out / "target_updates.csv").read_text().strip().splitlines()
    assert lines[0] == "round,item,user,label,proj_x,proj_y," + ",".join(
        f"v{i}" for i in range(result.config.dim))
    rows = [line.split(",") for line in lines[1:]]
    assert {(r[0], r[1]) for r in rows} == {("7", str(result.target_item))}
    users = [int(r[2]) for r in rows]
    assert users == ledger.target_users.tolist() == sorted(set(users))
    labels = [r[3] for r in rows]
    assert labels == ["fake" if u >= result.num_genuine else "genuine" for u in users]
    assert {"fake", "genuine"} <= set(labels)
    values = np.array([[float(x) for x in r[6:]] for r in rows])
    assert np.array_equal(values, ledger.target_rows)
    projection = np.array([[float(x) for x in r[4:6]] for r in rows])
    assert np.array_equal(projection, project_2d(ledger.target_rows))


def test_dump_round_without_target_contributions_writes_no_file(tmp_path, caplog):
    document = dict(MINIMAL, federation={"rounds": 10, "participation": 0.1})
    out, result = dumped_run(tmp_path, document, 2)
    assert result.ledgers[1].target_users.size == 0  # the premise: nobody uploaded for it
    assert not (out / "target_updates.csv").exists()
    assert (out / "metrics.csv").exists() and (out / "summary.json").exists()
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["round 2: target item received no contributions, nothing to dump"]


# ------------------------------------------------------------- synth

def test_synth_writes_expected_line_count(tmp_path):
    out = tmp_path / "ds.tsv"
    code = main(["synth", "--users", "50", "--items", "40", "--latent-dim", "4",
                 "--per-user", "6", "--skew", "1.0", "--seed", "7", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "users=50 items=40"
    assert len(lines) == 1 + 50 * 6


def test_synth_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["synth", "--users", "20", "--items", "30", "--per-user", "4",
            "--seed", "3", "--output"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_zero_users_exits_2(tmp_path, capsys):
    new = tmp_path / "new"
    assert main(["synth", "--users", "0", "--items", "10", "--per-user", "5", "--output",
                 str(new / "x.tsv")]) == 2
    assert capsys.readouterr().err == "error: dataset.users must be >= 1\n"
    assert not new.exists()


def test_synth_negative_seed_exits_2(tmp_path, capsys):
    new = tmp_path / "new"
    assert main(["synth", "--users", "10", "--items", "10", "--per-user", "5", "--seed", "-1",
                 "--output", str(new / "x.tsv")]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not new.exists()


def test_synth_zero_latent_dim_exits_2(tmp_path, capsys):
    out = tmp_path / "x.tsv"
    assert main(["synth", "--users", "10", "--items", "10", "--per-user", "5",
                 "--latent-dim", "0", "--output", str(out)]) == 2
    assert "dataset.latent_dim must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("skew", ["inf", "nan"])
def test_synth_non_finite_skew_exits_2(tmp_path, capsys, skew):
    out = tmp_path / "x.tsv"
    assert main(["synth", "--users", "10", "--items", "10", "--per-user", "5",
                 f"--skew={skew}", "--output", str(out)]) == 2
    assert "dataset.popularity_skew must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_synth_unwritable_output_exits_1_with_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x.tsv"  # its directory is a file
    assert main(["synth", "--users", "10", "--items", "10", "--per-user", "5",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synth failed: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert blocker.read_text() == "" and not out.exists()


def test_run_on_synth_file_dataset(tmp_path):
    ds_path = tmp_path / "ds.tsv"
    assert main(["synth", "--users", "25", "--items", "20", "--per-user", "5",
                 "--seed", "2", "--output", str(ds_path)]) == 0
    document = {
        "dataset": {"kind": "file", "path": str(ds_path)},
        "federation": {"rounds": 4},
        "eval": {"every": 2, "topk": [3]},
    }
    config = write_config(tmp_path, document)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()


def test_run_on_synth_file_equals_the_synthetic_run_at_its_seed(tmp_path):
    """``synth --seed s`` then a file run is the synthetic run at seed s:
    the file round trip and the split see the same interactions."""
    ds_path = tmp_path / "ds.tsv"
    assert main(["synth", "--users", "40", "--items", "30", "--per-user", "6",
                 "--latent-dim", "8", "--skew", "1.0", "--seed", "5",
                 "--output", str(ds_path)]) == 0
    config = ExperimentConfig(
        dataset=DatasetConfig(users=40, items=30, interactions_per_user=6, latent_dim=8),
        dim=8, rounds=12, eval_every=4, topk=(3,), seed=5,
        aggregator=AggregatorSpec(rule="median"),
        attack=AttackConfig(kind="bandwagon", fake_fraction=0.1, start_round=3, filler_count=4),
    )
    synthetic = run_experiment(config)
    file_dataset = DatasetConfig(kind="file", path=str(ds_path))
    from_file = run_experiment(replace(config, dataset=file_dataset))
    assert from_file.target_item == synthetic.target_item
    assert from_file.metrics == synthetic.metrics
    assert np.array_equal(from_file.final_embeddings.matrix, synthetic.final_embeddings.matrix)
    assert len(from_file.profiles) == len(synthetic.profiles) == 40
    for a, b in zip(from_file.profiles, synthetic.profiles):
        assert np.array_equal(a.user_embedding, b.user_embedding)


# ------------------------------------------------------------- aggcheck

def test_aggcheck_median(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    path.write_text("1\n2\n100\n")
    assert main(["aggcheck", "median", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_aggcheck_trimmed_mean(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    path.write_text("1\n2\n3\n100\n")
    assert main(["aggcheck", "trimmed_mean", str(path), "--beta", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2.5"


def test_aggcheck_krum_returns_an_input_row(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    path.write_text("1,0\n1.1,0\n50,50\n")
    assert main(["aggcheck", "krum", str(path), "--m", "0"]) == 0
    assert capsys.readouterr().out.strip() in {"1,0", "1.1,0", "50,50"}


def test_aggcheck_ragged_rows_exit_2(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    path.write_text("1,2\n3\n")
    assert main(["aggcheck", "median", str(path)]) == 2
    assert "ragged" in capsys.readouterr().err


def test_aggcheck_degenerate_rule_logs_its_median_fallback(tmp_path, capsys, caplog):
    path = tmp_path / "vectors.txt"
    path.write_text("1,0\n1.1,0\n50,50\n")
    assert main(["aggcheck", "krum", str(path), "--m", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1.1,0"
    assert [r.getMessage() for r in caplog.records] == [
        "item 0: krum degenerate (krum needs n-m-2 >= 1, got n=3, m=5); falling back to median"
    ]


@pytest.mark.parametrize(
    "flags, field",
    [(["clip", "--bound", "0"], "clip_bound"), (["trimmed_mean", "--beta", "-1"], "trim_beta"),
     (["krum", "--m", "-2"], "krum_m"), (["hics", "--z", "0"], "hics_z")],
    ids=["clip_bound", "trim_beta", "krum_m", "hics_z"],
)
def test_aggcheck_parameter_failing_every_count_exits_2(tmp_path, capsys, flags, field):
    path = tmp_path / "vectors.txt"
    path.write_text("1,0\n1.1,0\n50,50\n2,2\n3,3\n4,4\n")
    assert main(["aggcheck", flags[0], str(path), *flags[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: aggregator.{field} ")
    assert captured.err.count("\n") == 1, captured.err


def test_aggcheck_hics_z_above_the_vector_length_keeps_every_coordinate(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    path.write_text("1,-2,0.5\n3,0.25,-1\n-0.5,4,2\n")
    printed = []
    for z in ("3", "4", "9"):
        assert main(["aggcheck", "hics", str(path), "--z", z]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        printed.append(captured.out)
    assert printed[1] == printed[0] and printed[2] == printed[0]
