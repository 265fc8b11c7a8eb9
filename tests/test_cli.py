import copy
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
from corelearn import ContractError, Coreset
from corelearn.cli import _load_coreset, _save_coreset
from corelearn.datasets import DatasetError, Schema, load_dataset, make_synthetic
from corelearn.learner import TrainConfig
from corelearn.queries import save_pool_csv


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


@pytest.mark.parametrize("fields, match", [
    ({"features": "01", "label": "2"}, "features must be a non-empty list"),
    ({"features": [], "label": "2"}, "features must be a non-empty list"),
    ({"features": [0], "label": "2"}, "features must be a non-empty list"),
    ({"features": ["0"], "label": 2}, "label must be a column name"),
    ({"features": ["0"], "label": "1", "weight": 2},
     "weight must be a column name or null"),
    ({"features": ["0"], "label": "-1"}, "label column '-1' must be a column index"),
    ({"features": ["a"], "label": "1"}, "features column 'a' must be a column index"),
    ({"features": ["0"], "label": "1", "weight": "w"},
     "weight column 'w' must be a column index"),
    ({"features": ["0"], "label": "1", "has_header": 1},
     "has_header must be True or False, got 1"),
    ({"features": ["0"], "label": "1", "standardize": "no"},
     "standardize must be True or False, got 'no'"),
    ({"features": ["0"], "label": "1", "binary_label": None},
     "binary_label must be True or False, got None"),
], ids=["features-str", "features-empty", "features-int", "label-int",
        "weight-int", "label-negative", "features-name", "weight-name",
        "has_header-int", "standardize-str", "binary_label-none"])
def test_schema_rejects_bad_column_names(fields, match):
    with pytest.raises(DatasetError, match=match):
        Schema(**fields)

@pytest.mark.parametrize("schema", [
    dict(features=["a"], label="y"), dict(features=["b"], label="a"),
    dict(features=["b"], label="y", weight="a")], ids=["feature", "label", "weight"])
def test_load_rejects_a_repeated_header_name(tmp_path, schema):
    p = tmp_path / "d.csv"
    p.write_text("a,a,b,y\n1,2,3,4\n5,6,7,8\n")
    with pytest.raises(DatasetError, match=r"d\.csv: column 'a' occurs 2 times"):
        load_dataset(p, Schema(**schema, has_header=True))
    # a repeated name the schema does not use is no error
    ds = load_dataset(p, Schema(features=["b"], label="y", has_header=True))
    assert ds.points[:, 0].tolist() == [3.0, 7.0]


def test_cli_rejects_a_repeated_header_name(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,a,y\n1,2,3\n4,5,6\n7,8,9\n")
    schema = {"features": ["a"], "label": "y", "has_header": True}
    path = _write_config(tmp_path, dataset={"path": str(data), "schema": schema})
    assert main(["experiment", "--config", str(path)]) == 1
    assert "data.csv: column 'a' occurs 2 times" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_schema_with_header_takes_any_column_names(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("-1,a b,w\n1,2,1\n3,4,3\n")
    ds = load_dataset(p, Schema(features=["-1"], label="a b", weight="w",
                                has_header=True))
    assert ds.weights.tolist() == [0.25, 0.75]


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
    ({"features": "01", "label": "1"}, "features must be a non-empty list"),
    ({"features": ["0"], "label": "-1"}, "label column '-1'"),
    ({"features": ["a"], "label": "1"}, "features column 'a'"),
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


@pytest.mark.parametrize("weights, match", [
    ("0,-0.0,0", "data.csv: weights are all zero"),
    ("1,-2,1", "data.csv: line 2: column '2': negative weight -2.0"),
], ids=["all-zero", "negative"])
def test_cli_rejects_bad_dataset_weights(tmp_path, capsys, weights, match):
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{i}.0,{i + 1}.0,{w}\n"
                            for i, w in enumerate(weights.split(","))))
    schema = {"features": ["0"], "label": "1", "weight": "2"}
    path = _write_config(tmp_path, dataset={"path": str(data), "schema": schema})
    assert main(["experiment", "--config", str(path)]) == 1
    assert match in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", [
    "dataset.intercept", "learner.learn_weights", "dataset.schema.has_header",
    "dataset.schema.standardize", "dataset.schema.binary_label"])
def test_config_rejects_string_booleans(tmp_path, capsys, key):
    data = tmp_path / "data.csv"
    data.write_text("1.0,0\n3.0,1\n5.0,1\n")
    schema = {"features": ["0"], "label": "1"}
    cfg = {"dataset": {"path": str(data), "schema": schema}, "learner": {}}
    *parents, name = key.split(".")
    section = cfg
    for part in parents:
        section = section[part]
    section[name] = "false"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "pool.csv"
    assert main(["gen-queries", "--config", str(path), "--out", str(out)]) == 1
    assert f"{key} must be true or false, got 'false'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("learner, match", [
    ({"lambda": -1.0}, "lambda must be finite and >= 0, got -1.0"),
    ({"algorithm": "magic"}, "unknown algorithm 'magic'"),
    ({"epochs": 0}, "epochs must be >= 1"),
    ({"batch_size": 0}, "batch_size must be >= 1"),
    ({"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
], ids=["lambda", "algorithm", "epochs", "batch_size", "learning_rate"])
def test_config_rejects_learner_values_at_load(tmp_path, monkeypatch, capsys,
                                               learner, match):
    path = _write_config(tmp_path, learner=learner)
    with pytest.raises(ConfigError, match=f"learner: .*{match}"):
        load_config(path)

    def no_data_work(*args, **kwargs):
        raise AssertionError("dataset built before the config was checked")

    monkeypatch.setattr("corelearn.cli.resolve_dataset", no_data_work)
    assert main(["experiment", "--config", str(path)]) == 1
    assert match in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SCHEMA = {"features": ["0"], "label": "1"}


@pytest.mark.parametrize("override, match", [
    ({"sweep": {"sizes": [5], "methods": ["uniform"], "trials": "2"}},
     "sweep.trials must be an integer, got '2'"),
    ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
    ({"dataset": {"synth": {"task": "linear", "n": 0, "d": 2}}},
     "dataset.synth: n must be >= 1, got 0"),
    ({"learner": {"epochs": 2.5}}, "learner.epochs must be an integer, got 2.5"),
    ({"learner": {"epochs": "ten"}},
     "learner.epochs must be an integer, got 'ten'"),
    ({"queries": {"n_starts": "3", "split": [20, 5, 5]}},
     "queries.n_starts must be an integer, got '3'"),
    ({"queries": {"n_starts": 2, "split": [20, 5.0, 5]}},
     "queries: split size 1 must be an integer, got 5.0"),
    ({"learner": {"lambda": True}}, "learner.lambda must be a number, got True"),
    ({"output": {"dir": None}}, "output.dir must be a string, got None"),
    ({"dataset": {"path": True, "schema": _SCHEMA}},
     "dataset.path must be a string, got True"),
    ({"dataset": {"path": 0, "schema": _SCHEMA}},
     "dataset.path must be a string, got 0"),
    ({"dataset": {"path": ["d.csv"], "schema": _SCHEMA}},
     "dataset.path must be a string, got ['d.csv']"),
    ({"dataset": {"path": "d.csv", "schema": "0,1"}},
     "dataset.schema must be an object, got '0,1'"),
    ({"dataset": {"synth": 5}}, "dataset.synth must be an object, got 5"),
    ({"dataset": {"path": "d.csv", "schema": {**_SCHEMA, "weight": 2}}},
     "dataset.schema.weight must be a string, got 2"),
    ({"learner": {"learning_rate": float("nan")}},
     "learner.learning_rate must be a finite number, got nan"),
    ({"learner": {"lambda": float("inf")}},
     "learner.lambda must be a finite number, got inf"),
], ids=["trials-str", "seed-str", "synth-n-zero", "epochs-float", "epochs-type",
        "n_starts-str", "split-float", "lambda-bool", "dir-null", "path-bool",
        "path-int", "path-list", "schema-str", "synth-int", "weight-int",
        "learning_rate-nan", "lambda-inf"])
def test_config_rejects_wrong_types(tmp_path, monkeypatch, capsys, override,
                                    match):
    path = _write_config(tmp_path, **override)

    def no_pool(*args, **kwargs):
        raise AssertionError("query pool built before the config was checked")

    monkeypatch.setattr("corelearn.queries.trajectory_queries", no_pool)
    assert main(["experiment", "--config", str(path)]) == 1
    assert match in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, old_default", [
    ("init_strategy", "subsample"), ("learn_labels", True),
    ("early_stop_on_validation", True)])
def test_config_rejects_removed_learner_keys(tmp_path, monkeypatch, capsys,
                                             key, old_default):
    """The learner has one policy: a key that chose another is unknown."""
    path = _write_config(tmp_path, learner={key: old_default})

    def no_pool(*args, **kwargs):
        raise AssertionError("query pool built before the config was checked")

    monkeypatch.setattr("corelearn.queries.trajectory_queries", no_pool)
    assert main(["experiment", "--config", str(path)]) == 1
    assert f"unknown config key learner.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(TypeError):
        TrainConfig(**{key: old_default})


_SWEEP = {"sizes": [5], "methods": ["uniform"], "trials": 1}


@pytest.mark.parametrize("section, value, match", [
    ("sweep", {**_SWEEP, "trials": 0}, "sweep: n_trials must be >= 1, got 0"),
    ("sweep", {**_SWEEP, "sizes": []},
     "sweep: sizes and methods must be non-empty sequences"),
    ("sweep", {**_SWEEP, "methods": []},
     "sweep: sizes and methods must be non-empty sequences"),
    ("sweep", {**_SWEEP, "methods": ["uniform", "magic"]},
     "sweep: unknown sweep methods: ['magic']"),
    ("sweep", {**_SWEEP, "sizes": [5, 5]},
     "sweep: sizes and methods must not repeat, got [5]"),
    ("sweep", {**_SWEEP, "methods": ["uniform", "leverage", "uniform"]},
     "sweep: sizes and methods must not repeat, got ['uniform']"),
    ("queries", {"split": [20, 5]},
     "queries: split sizes must be three counts, got [20, 5]"),
    ("queries", {"split": [20, -1, 5]},
     "queries: split size 1 must be >= 0, got -1"),
], ids=["trials-zero", "sizes-empty", "methods-empty", "method-unknown",
        "sizes-repeat", "methods-repeat", "split-two", "split-negative"])
def test_config_values_go_through_the_library_rules(tmp_path, monkeypatch,
                                                    capsys, section, value,
                                                    match):
    """validate_config asks sweep_cells and split_sizes, the rules sweep and
    split_queries keep, and names the section their error came from."""
    path = _write_config(tmp_path, **{section: value})

    def no_data_work(*args, **kwargs):
        raise AssertionError("dataset built before the config was checked")

    monkeypatch.setattr("corelearn.cli.resolve_dataset", no_data_work)
    assert main(["experiment", "--config", str(path)]) == 1
    assert match in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_number_keys_take_integers(tmp_path):
    path = _write_config(tmp_path, learner={"learning_rate": 1, "lambda": 0},
                         queries={"gd_lr": 1, "split": [20, 5, 5]})
    cfg = load_config(path)
    assert cfg["learner"]["learning_rate"] == 1 and cfg["queries"]["gd_lr"] == 1


def test_experiment_rejects_every_size_below_one(tmp_path, capsys):
    path = _write_config(tmp_path, sweep={"sizes": [5, 0],
                                          "methods": ["uniform"], "trials": 1})
    assert main(["experiment", "--config", str(path)]) == 1
    assert "sweep: size must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trials.csv").exists()


@pytest.mark.parametrize("n, d, match", [(0, 2, "n must be >= 1, got 0"),
                                          (5, 0, "d must be >= 1, got 0"),
                                          (-1, 2, "n must be >= 1, got -1")],
                         ids=["0-2", "5-0", "-1-2"])
def test_make_synthetic_rejects_empty_shapes(n, d, match):
    with pytest.raises(ContractError, match=match):
        make_synthetic("linear", n, d)


def test_experiment_failed_dataset_leaves_no_output_dir(tmp_path, capsys):
    path = _write_config(tmp_path, dataset={
        "path": str(tmp_path / "missing.csv"),
        "schema": {"features": ["0"], "label": "1"}})
    assert main(["experiment", "--config", str(path)]) == 1
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_config_hash_leaves_out_the_output_dir(tmp_path):
    path = _write_config(tmp_path)
    run_experiment(path, out_dir=tmp_path / "a")
    run_experiment(path, out_dir=tmp_path / "b")
    a, b = (json.loads((tmp_path / run / "manifest.json").read_text())
            for run in ("a", "b"))
    assert a["config_sha256"] == b["config_sha256"]
    assert a["config"]["output"]["dir"] == str(tmp_path / "a")
    assert b["config"]["output"]["dir"] == str(tmp_path / "b")
    changed = load_config(path)
    changed["seed"] += 1
    assert config_hash(changed) != a["config_sha256"]


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


@pytest.mark.parametrize("eps, M, match", [
    ("nan", "1", "eps must be finite"), ("inf", "1", "eps must be finite"),
    ("0.1", "nan", "M must be finite"), ("0.1", "inf", "M must be finite")],
    ids=["eps-nan", "eps-inf", "M-nan", "M-inf"])
def test_cli_bounds_rejects_non_finite(capsys, eps, M, match):
    assert main(["bounds", "--eps", eps, "--delta", "0.05", "--M", M]) == 1
    assert match in capsys.readouterr().err


def test_cli_learn_and_eval(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["learn", "--config", str(path), "--size", "4"]) == 0
    coreset = tmp_path / "out" / "coreset_learned_4.csv"
    assert coreset.exists()
    assert main(["eval", "--config", str(path), "--coreset", str(coreset)]) == 0
    assert "err_avg=" in capsys.readouterr().out


def test_cli_baseline(tmp_path, monkeypatch):
    path = _write_config(tmp_path)

    def no_pool(*args, **kwargs):
        raise AssertionError("baseline built a query pool it never reads")

    monkeypatch.setattr("corelearn.queries.trajectory_queries", no_pool)
    assert main(["baseline", "--config", str(path), "--method", "uniform",
                 "--size", "4"]) == 0
    assert (tmp_path / "out" / "coreset_uniform_4.csv").exists()


# a pool of 2 * (20 + 1) = 42 queries, and a split that asks for 110
_BIG_SPLIT = {"dataset": {"synth": {"task": "linear", "n": 200, "d": 2}},
              "queries": {"n_starts": 2, "steps_per_start": 20,
                          "split": [100, 5, 5]}}


@pytest.mark.parametrize("argv", [
    ["gen-queries", "--out", "{tmp}/pool.csv"],
    ["bounds", "--estimate-M", "--eps", "0.1", "--delta", "0.05"],
    ["verify", "--universe-size", "5", "--trials", "50"],
], ids=["gen-queries", "bounds", "verify"])
def test_pool_subcommands_ignore_the_split(tmp_path, argv):
    path = _write_config(tmp_path, **_BIG_SPLIT)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 0


@pytest.mark.parametrize("argv", [["experiment"], ["learn", "--size", "5"],
                                  ["eval", "--coreset", "{tmp}/c.csv"]],
                         ids=["experiment", "learn", "eval"])
def test_split_subcommands_reject_a_split_above_the_pool(tmp_path, capsys,
                                                         argv):
    path = _write_config(tmp_path, **_BIG_SPLIT)
    (tmp_path / "c.csv").write_text("x0,x1,weight,label\n0.1,0.2,1.0,1.0\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 1
    assert "requested 110 queries from a pool of 42" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["experiment"],
                                  ["eval", "--coreset", "{tmp}/c.csv"]],
                         ids=["experiment", "eval"])
def test_a_test_split_with_no_queries_is_a_usage_error(tmp_path, capsys, argv):
    """No metric is defined over no test queries: exit 1 before any cell,
    and the experiment writes no directory."""
    path = _write_config(tmp_path, queries={
        "n_starts": 2, "steps_per_start": 14, "split": [20, 5, 0]})
    (tmp_path / "c.csv").write_text("x0,x1,weight,label\n0.1,0.2,1.0,1.0\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 1
    assert capsys.readouterr().err == "error: Q_test holds no queries\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--coreset", "{tmp}/c.csv"],
    ["gen-queries", "--out", "{tmp}/pool.csv"],
    ["verify"],
], ids=["eval", "gen-queries", "verify"])
def test_subcommands_that_write_no_directory_reject_out_dir(tmp_path, capsys,
                                                            argv):
    path = _write_config(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as usage:
        main([argv[0], "--config", str(path), *argv[1:],
              "--out-dir", str(tmp_path / "x")])
    assert usage.value.code == 2
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_cli_verify_rejects_universe_above_pool(tmp_path, capsys):
    path = _write_config(tmp_path)  # a pool of 2 * (14 + 1) = 30 queries
    assert main(["verify", "--config", str(path), "--universe-size", "31",
                 "--trials", "10"]) == 1
    err = capsys.readouterr().err
    assert "31" in err and "pool size 30" in err


@pytest.mark.parametrize("flags, match", [
    (["--delta", "1.5"], "--delta must be in (0, 1), got 1.5"),
    (["--delta", "nan"], "--delta must be in (0, 1), got nan"),
    (["--eps-frac", "-1"], "--eps-frac must be finite and > 0, got -1.0"),
    (["--eps-frac", "nan"], "--eps-frac must be finite and > 0, got nan"),
], ids=["delta-above-one", "delta-nan", "eps-frac-negative", "eps-frac-nan"])
def test_cli_verify_checks_its_flags_before_the_pool(tmp_path, monkeypatch,
                                                     capsys, flags, match):
    path = _write_config(tmp_path)

    def no_pool(*args, **kwargs):
        raise AssertionError("query pool built before the flags were checked")

    monkeypatch.setattr("corelearn.queries.trajectory_queries", no_pool)
    assert main(["verify", "--config", str(path), *flags]) == 1
    assert match in capsys.readouterr().err


def test_cli_bounds_checks_delta_before_the_pool(tmp_path, monkeypatch, capsys):
    path = _write_config(tmp_path)

    def no_pool(*args, **kwargs):
        raise AssertionError("query pool built before the flags were checked")

    monkeypatch.setattr("corelearn.queries.trajectory_queries", no_pool)
    assert main(["bounds", "--eps", "0.1", "--delta", "1.5", "--estimate-M",
                 "--config", str(path)]) == 1
    assert "delta must be in (0, 1), got 1.5" in capsys.readouterr().err


def test_cli_verify_rejects_trials_below_one(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["verify", "--config", str(path), "--trials", "0"]) == 1
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv, match", [
    (["learn", "--size", "0"], "coreset_size must be >= 1"),
    (["baseline", "--method", "uniform", "--size", "0"], "m must be >= 1, got 0"),
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


def test_cli_eval_rejects_zero_weight_coreset(tmp_path, capsys):
    path = _write_config(tmp_path)
    coreset = tmp_path / "zero.csv"
    coreset.write_text("x0,x1,weight,label\n0.1,0.2,0.0,1.0\n0.3,0.4,0.0,0.0\n")
    assert main(["eval", "--config", str(path), "--coreset", str(coreset)]) == 1
    captured = capsys.readouterr()
    assert "err_opt=" not in captured.out
    assert "all zero" in captured.err


def test_cli_eval_rejects_a_coreset_of_another_dimension(tmp_path, monkeypatch,
                                                        capsys):
    """A coreset of 3 features on 2-feature data is a usage error naming
    the coreset and both dimensions, not a query width, found before the
    query pool is built."""
    def no_pool(*args, **kwargs):
        raise RuntimeError("query pool built before the coreset was checked")

    monkeypatch.setattr("corelearn.queries.trajectory_queries", no_pool)
    path = _write_config(tmp_path)
    coreset = tmp_path / "wide.csv"
    coreset.write_text("x0,x1,x2,weight,label\n0.1,0.2,0.3,0.5,1.0\n")
    assert main(["eval", "--config", str(path), "--coreset", str(coreset)]) == 1
    captured = capsys.readouterr()
    assert "err_opt=" not in captured.out
    assert captured.err == (
        "error: coreset points have dimension 3, the data's have 2\n")


def test_cli_eval_reads_coreset_before_the_data(tmp_path, monkeypatch, capsys):
    path = _write_config(tmp_path)
    coreset = tmp_path / "bad.csv"
    coreset.write_text("x0,x1,weight,label\n0.1,0.2,-1.0,1.0\n")

    def no_pool(*args, **kwargs):
        raise RuntimeError("query pool built before the coreset was read")

    monkeypatch.setattr("corelearn.queries.trajectory_queries", no_pool)
    assert main(["eval", "--config", str(path), "--coreset", str(coreset)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "negative weight" in err


def test_cli_bounds_estimates_M_from_config(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["bounds", "--eps", "0.1", "--delta", "0.05", "--estimate-M",
                 "--config", str(path), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "M_hat=" in out and "k1=" in out and "k2=" in out


@pytest.mark.parametrize("cell, match", [("-5", "negative weight"),
                                         ("nan", "non-finite")])
def test_cli_eval_rejects_bad_coreset(tmp_path, capsys, cell, match):
    path = _write_config(tmp_path)
    coreset = tmp_path / "bad.csv"
    coreset.write_text(f"x0,x1,weight,label\n0.1,0.2,0.5,1.0\n0.3,0.4,{cell},0.0\n")
    assert main(["eval", "--config", str(path), "--coreset", str(coreset)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and match in err


def test_coreset_and_pool_csv_bytes(tmp_path):
    # floats are written as the repr of a Python float, so they read back
    # bit for bit; a coreset has a header, a pool has none
    coreset = Coreset([[0.1, -2.0], [1.0 / 3.0, 1e-300]], [0.25, 0.75],
                      [1.0, -1.5])
    _save_coreset(coreset, tmp_path / "coreset.csv")
    assert (tmp_path / "coreset.csv").read_bytes() == (
        b"x0,x1,weight,label\n"
        b"0.1,-2.0,0.25,1.0\n"
        b"0.3333333333333333,1e-300,0.75,-1.5\n")
    save_pool_csv(np.array([[0.1, -2.0, 3.0], [1.0 / 3.0, 1e-300, 5e20]]),
                  tmp_path / "pool.csv")
    assert (tmp_path / "pool.csv").read_bytes() == (
        b"0.1,-2.0,3.0\n"
        b"0.3333333333333333,1e-300,5e+20\n")


@pytest.mark.parametrize("text, match", [
    ("x0,weight,label\n0.1,0.5,1.0,9.9\n",
     "line 2: 4 cells under a header of 3 names"),
    ("x0,weight,label\n0.1,0.5,1.0\n0.2,0.5\n",
     "line 3: 2 cells under a header of 3 names"),
    ("weight,label\n0.5,1.0\n",
     "header must name the features, the weight and the label, got "
     "['weight', 'label']"),
    ("", "header must name the features, the weight and the label, got []"),
    ("x0,weight,label\n0.1,nan,1.0\n",
     "line 2: column 'weight': non-finite value 'nan'"),
    ("x0,weight,label\n0.1,0.5,1.0\n0.2,-0.5,1.0\n",
     "line 3: column 'weight': negative weight -0.5"),
    ("x0,weight,label\n0.1,0.0,1.0\n0.2,0.0,-1.0\n", "weights are all zero"),
    ("x0,weight,label\n", "no data rows"),
    ("x0,x0,weight,label\n0.1,0.2,0.5,1.0\n",
     "column 'x0' occurs 2 times in the header"),
    ("x0,weight,label\n# a comment\n0.1,0.5,1.0\n",
     "line 2: 1 cells under a header of 3 names"),
], ids=["wide-row", "short-row", "two-names", "empty", "nan-weight",
        "negative-weight", "zero-weights", "no-rows", "repeated-name",
        "comment-line"])
def test_load_coreset_rejects_bad_files(tmp_path, text, match):
    """A coreset file is read by the dataset reader: its errors name the
    file, and the line and column where there is one."""
    path = tmp_path / "c.csv"
    path.write_text(text)
    with pytest.raises(DatasetError) as info:
        _load_coreset(path)
    assert str(info.value).startswith(f"{path}: ")
    assert match in str(info.value)


def test_coreset_csv_round_trip_is_bit_for_bit(tmp_path):
    """_load_coreset reads back what _save_coreset wrote, bit for bit, in
    any column names, blank lines and spaces around the cells aside."""
    tiny = np.nextafter(0.0, 1.0)
    coreset = Coreset([[0.1, -0.0, 1.0 / 3.0], [1e-300, tiny, 1.7976931348623157e308],
                       [-2.5, 5e20, np.pi]],
                      [0.25, 0.0, tiny], [1.0, -1.5, 1e-17])
    path = tmp_path / "coreset.csv"
    _save_coreset(coreset, path)
    back = _load_coreset(path)
    for name in ("points", "weights", "labels"):
        assert getattr(back, name).tobytes() == getattr(coreset, name).tobytes()
    path.write_text("a, b ,c,w,y\n\n" + "\n".join(
        " , ".join(line.split(",")) for line in path.read_text().splitlines()[1:]))
    again = _load_coreset(path)
    for name in ("points", "weights", "labels"):
        assert getattr(again, name).tobytes() == getattr(coreset, name).tobytes()


def test_resolve_dataset_names_the_synth_block():
    """A synth size the rules reject is a config error naming the block,
    also where it slips past the config's types."""
    from corelearn.cli import DEFAULT_CONFIG, resolve_dataset
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["dataset"]["synth"]["n"] = 2.5
    with pytest.raises(ConfigError, match=r"^dataset\.synth: n must be an integer, "
                                          r"got 2\.5$"):
        resolve_dataset(cfg)
