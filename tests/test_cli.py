import json
import math

import pytest

from fedrec_arena.cli import ConfigError, main, resolve_config

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


def test_run_missing_dataset_file_exits_1(tmp_path, capsys):
    document = dict(MINIMAL, dataset={"kind": "file", "path": str(tmp_path / "nope.tsv")})
    config = write_config(tmp_path, document)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "run failed" in capsys.readouterr().err


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


def test_synth_zero_users_exits_2(tmp_path):
    assert main(["synth", "--users", "0", "--items", "10", "--output",
                 str(tmp_path / "x.tsv")]) == 2


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
