import json
import re
from pathlib import Path

import numpy as np
import pytest

from corelearn.cli import (
    ConfigError,
    config_hash,
    load_config,
    main,
    run_experiment,
    validate_config,
)
from corelearn.datasets import DatasetError, Schema, load_dataset


def _write_config(tmp_path, **overrides):
    cfg = {
        "seed": 7,
        "dataset": {"synth": {"task": "linear", "n": 80, "d": 2, "noise": 0.2}},
        "queries": {"n_starts": 2, "steps_per_start": 14, "split": [20, 5, 5]},
        "learner": {"epochs": 3, "batch_size": 5, "learning_rate": 0.02,
                    "lambda": 1.0},
        "sweep": {"sizes": [5], "methods": ["learned", "uniform"], "trials": 1},
        "output": {"dir": str(tmp_path / "out")},
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# -- dataset loading ----------------------------------------------------


def test_load_simple_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,3\n4,5,6\n")
    ds = load_dataset(p, Schema(features=["0", "1"], label="2"))
    assert ds.points.shape == (2, 2)
    assert np.allclose(ds.points[0], [1.0, 2.0])
    assert ds.labels[0] == 3.0
    assert ds.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_load_with_header_and_binary_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,y\n1,2,0\n3,4,1\n")
    ds = load_dataset(p, Schema(features=["a", "b"], label="y",
                                has_header=True, binary_label=True))
    assert set(ds.labels) == {-1.0, 1.0}


def test_load_nan_cell_names_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\nnan,3\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(p, Schema(features=["0"], label="1"))


def test_load_non_numeric_cell(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,x\n")
    with pytest.raises(DatasetError, match="non-numeric"):
        load_dataset(p, Schema(features=["0"], label="1"))


def test_load_missing_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DatasetError, match="missing column"):
        load_dataset(p, Schema(features=["a"], label="c", has_header=True))


def test_load_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DatasetError):
        load_dataset(p, Schema(features=["0"], label="1"))


def test_standardization(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,0\n3,0\n5,0\n")
    ds = load_dataset(p, Schema(features=["0"], label="1", standardize=True))
    assert ds.points.mean() == pytest.approx(0.0, abs=1e-12)
    assert ds.points.std() == pytest.approx(1.0, abs=1e-12)


# -- config ------------------------------------------------------------


def test_config_roundtrip_is_identity(tmp_path):
    path = _write_config(tmp_path)
    cfg = load_config(path)
    path2 = tmp_path / "config2.json"
    path2.write_text(json.dumps(cfg))
    cfg2 = load_config(path2)
    assert cfg == cfg2
    assert config_hash(cfg) == config_hash(cfg2)


def test_config_rejects_unknown_sections(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"wat": 1}))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("section, key", [
    ("learner", "lamda"), ("dataset", "pth"), ("queries", "splits"),
    ("sweep", "trial"), ("output", "directory")])
def test_config_rejects_unknown_nested_keys(tmp_path, section, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({section: {key: 99}}))
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        load_config(path)
    assert main(["bounds", "--eps", "0.1", "--delta", "0.05",
                 "--estimate-M", "--config", str(path)]) == 1


def test_config_rejects_unknown_synth_key(tmp_path):
    path = _write_config(tmp_path, dataset={"synth": {"task": "linear",
                                                      "noize": 0.1}})
    with pytest.raises(ConfigError, match=r"dataset\.synth\.noize"):
        load_config(path)


@pytest.mark.parametrize("schema, match", [
    ({"features": ["0"], "label": "1", "standardise": True},
     r"dataset\.schema\.standardise"),
    ({"features": ["0"]}, r"dataset\.schema\.label"),
    (["0", "1"], r"dataset\.schema must be an object"),
])
def test_config_rejects_malformed_schema(tmp_path, capsys, schema, match):
    data = tmp_path / "data.csv"
    data.write_text("1.0,2.0\n3.0,4.0\n5.0,7.0\n")
    path = _write_config(tmp_path, dataset={"path": str(data), "schema": schema})
    out = tmp_path / "pool.csv"
    assert main(["gen-queries", "--config", str(path), "--out", str(out)]) == 1
    assert re.search(match, capsys.readouterr().err)


def test_config_schema_loads_csv_dataset(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("1.0,2.0\n3.0,4.0\n5.0,7.0\n")
    path = _write_config(tmp_path, dataset={
        "path": str(data), "schema": {"features": ["0"], "label": "1"}})
    out = tmp_path / "pool.csv"
    assert main(["gen-queries", "--config", str(path), "--out", str(out)]) == 0
    assert np.loadtxt(out, delimiter=",", ndmin=2).shape == (2 * 14 + 2, 1)


def test_config_rejects_bad_method():
    cfg = json.loads(json.dumps({
        "seed": 0,
        "dataset": {"path": None, "synth": {"task": "linear", "n": 10, "d": 2},
                    "schema": None, "intercept": False},
        "queries": {"split": [1, 0, 0]},
        "learner": {"epochs": 1, "batch_size": 1, "learning_rate": 0.1},
        "sweep": {"sizes": [1], "methods": ["magic"], "trials": 1},
        "output": {"dir": "x"},
    }))
    from corelearn.cli import DEFAULT_CONFIG, _merge
    with pytest.raises(ConfigError):
        validate_config(_merge(DEFAULT_CONFIG, cfg))


# -- experiment runner --------------------------------------------------


def test_experiment_smoke_and_artifacts(tmp_path):
    path = _write_config(tmp_path)
    assert run_experiment(path) == 0
    out = tmp_path / "out"
    for name in ("trials.csv", "aggregated.csv", "train_reports.json",
                 "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(manifest["config"])
    agg = (out / "aggregated.csv").read_text().splitlines()
    assert len(agg) == 3  # header + 2 method rows


def test_experiment_byte_identical_reruns(tmp_path):
    path = _write_config(tmp_path)
    run_experiment(path, out_dir=tmp_path / "a")
    run_experiment(path, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "aggregated.csv").read_bytes() == \
        (tmp_path / "b" / "aggregated.csv").read_bytes()
    assert (tmp_path / "a" / "trials.csv").read_text().splitlines()[0] == \
        "size,method,trial,err_opt,err_avg,filtered_queries,wall_time_s,ok,error"
    assert (tmp_path / "a" / "train_reports.json").read_bytes() == \
        (tmp_path / "b" / "train_reports.json").read_bytes()

    def untimed(run):
        rows = (tmp_path / run / "trials.csv").read_text().splitlines()
        col = rows[0].split(",").index("wall_time_s")
        return [r.split(",")[:col] + r.split(",")[col + 1:] for r in rows]

    assert untimed("a") == untimed("b")


def test_experiment_reproducible_from_manifest(tmp_path):
    path = _write_config(tmp_path)
    run_experiment(path, out_dir=tmp_path / "a")
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest["config"]))
    run_experiment(replay, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "aggregated.csv").read_bytes() == \
        (tmp_path / "b" / "aggregated.csv").read_bytes()


# -- CLI surface --------------------------------------------------------


def test_cli_bounds_command(capsys):
    assert main(["bounds", "--eps", "0.1", "--delta", "0.05", "--M", "1"]) == 0
    out = capsys.readouterr().out
    assert "k1=738" in out and "k2=893" in out


def test_cli_bounds_validation_error(capsys):
    assert main(["bounds", "--eps", "0.1", "--delta", "1.5", "--M", "1"]) == 1


def test_cli_learn_and_eval(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["learn", "--config", str(path), "--size", "4"]) == 0
    coreset = tmp_path / "out" / "coreset_learned_4.csv"
    assert coreset.exists()
    assert main(["eval", "--config", str(path), "--coreset", str(coreset)]) == 0
    assert "err_avg=" in capsys.readouterr().out


def test_cli_baseline(tmp_path):
    path = _write_config(tmp_path)
    assert main(["baseline", "--config", str(path), "--method", "uniform",
                 "--size", "4"]) == 0
    assert (tmp_path / "out" / "coreset_uniform_4.csv").exists()


def test_cli_gen_queries(tmp_path):
    path = _write_config(tmp_path)
    out = tmp_path / "pool.csv"
    assert main(["gen-queries", "--config", str(path), "--out", str(out)]) == 0
    pool = np.loadtxt(out, delimiter=",", ndmin=2)
    assert pool.shape == (2 * 14 + 2, 2)


def test_cli_verify(tmp_path, capsys):
    path = _write_config(tmp_path)
    code = main(["verify", "--config", str(path), "--universe-size", "5",
                 "--trials", "300"])
    out = capsys.readouterr().out
    assert "claim1" in out
    assert code == 0


def test_cli_verify_rejects_trials_below_one(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["verify", "--config", str(path), "--trials", "0"]) == 1
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv, match", [
    (["learn", "--size", "0"], "coreset_size must be >= 1"),
    (["baseline", "--method", "uniform", "--size", "0"], "m=0"),
    (["verify", "--universe-size", "0"], "--universe-size"),
])
def test_cli_rejects_sizes_below_one(tmp_path, capsys, argv, match):
    path = _write_config(tmp_path)
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 1
    assert match in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["experiment", "--config", str(path)]) == 1


@pytest.mark.parametrize("cell, match", [("-5", "negative weight"),
                                         ("nan", "non-finite")])
def test_cli_eval_rejects_bad_coreset(tmp_path, capsys, cell, match):
    path = _write_config(tmp_path)
    coreset = tmp_path / "bad.csv"
    coreset.write_text(f"x0,x1,weight,label\n0.1,0.2,0.5,1.0\n0.3,0.4,{cell},0.0\n")
    assert main(["eval", "--config", str(path), "--coreset", str(coreset)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and match in err
