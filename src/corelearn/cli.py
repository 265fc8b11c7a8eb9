"""Command-line entry points and the experiment runner.

One JSON config file fully determines one experiment; all randomness is
derived from a single root seed through named streams, so re-running the
same config at the same BLAS thread count reproduces every output byte for
byte (wall-clock columns live only in the per-trial CSV).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, baselines, evaluate, learner, queries, theory
from .core import (ContractError, Coreset, MeasurableQuerySpace,
                   WeightedLabeledSet, check_coreset, check_count,
                   check_probability, check_real)
from .datasets import (SYNTHETIC_TASKS, DatasetError, Schema, load_dataset,
                       make_synthetic, parse_rows, read_rows, write_csv)
from .evaluate import METHOD_LEARNED, METHOD_LEVERAGE, METHOD_UNIFORM
from .learner import TrainConfig
from .losses import LINEAR, LOGISTIC, LossModel

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    pass


# TrainConfig field -> learner key, where the two names differ
_LEARNER_KEYS = {"lam": "lambda"}

DEFAULT_CONFIG = {
    "seed": 0,
    "dataset": {
        "path": None,
        "schema": None,
        "synth": {"task": "linear", "n": 1000, "d": 3, "noise": 0.1},
        "intercept": False,
    },
    "queries": {
        "n_starts": 20,
        "steps_per_start": 119,
        "gd_lr": 0.01,
        "init_scale": 1.0,
        "split": [2000, 200, 200],
    },
    "learner": {_LEARNER_KEYS.get(f.name, f.name): f.default
                for f in dataclasses.fields(TrainConfig)
                if f.name not in ("coreset_size", "seed")},
    "sweep": {
        "sizes": [50],
        "methods": [METHOD_LEARNED, METHOD_UNIFORM, METHOD_LEVERAGE],
        "trials": 1,
    },
    "output": {"dir": "corelearn-out"},
}


# The JSON values a config key takes, by the type of its default, and how a
# message names them. Types are matched exactly: JSON's true is a bool, which
# isinstance counts as an int, and bool("false") would read as true.
_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
          float: ((int, float), "a number"), str: ((str,), "a string"),
          list: ((list,), "a list"), dict: ((dict,), "an object")}
# Keys that take null, each with the type it takes otherwise
_NULLABLE = {"dataset.path": str, "dataset.schema": dict,
             "dataset.synth": dict, "dataset.schema.weight": str}


def _merge(base, override, path=""):
    """override laid over base. A key that base lacks, at the top or inside
    a section whose default is a dict, is a ConfigError naming its dotted
    path, and so is a value whose type is not that of its default (_TYPES),
    or for a _NULLABLE key neither null nor of the type named there, and a
    non-finite number (JSON's NaN and Infinity)."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {dotted}")
        types, name = _TYPES.get(_NULLABLE.get(dotted, type(base[key])),
                                 (None, None))
        if (types and type(value) not in types
                and not (value is None and dotted in _NULLABLE)):
            raise ConfigError(f"config key {dotted} must be {name}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(
                f"config key {dotted} must be a finite number, got {value!r}")
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value, f"{dotted}.")
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg = _merge(DEFAULT_CONFIG, user)
    validate_config(cfg)
    return cfg


def _in_section(name, check, *args, **kwargs):
    """check(*args, **kwargs), a library rule on a config section's values;
    a ContractError or DatasetError it raises is a ConfigError naming it."""
    try:
        return check(*args, **kwargs)
    except (ContractError, DatasetError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def validate_config(cfg: dict) -> None:
    """The checks that _merge's types leave: values, ranges, list entries."""
    sweep = cfg["sweep"]
    _in_section("sweep", evaluate.sweep_cells, sweep["sizes"],
                sweep["methods"], sweep["trials"])
    _in_section("queries", queries.split_sizes, cfg["queries"]["split"])
    train_config_from(cfg, sweep["sizes"][0])
    ds = cfg["dataset"]
    if ds["path"] is None and ds["synth"] is None:
        raise ConfigError("dataset needs either a path or a synth block")


def config_hash(cfg: dict) -> str:
    """SHA-256 of the config without output.dir: one experiment written to
    two places has one hash."""
    cfg = {**cfg, "output": {k: v for k, v in cfg["output"].items()
                             if k != "dir"}}
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _schema_from(section) -> Schema:
    """The dataset.schema section laid over Schema's defaults, as _merge
    does; a section that lacks a field that has no default is a
    ConfigError."""
    defaults = {f.name: f.default for f in dataclasses.fields(Schema)}
    schema = _merge(defaults, section, "dataset.schema.")
    for name, default in defaults.items():
        if default is dataclasses.MISSING and name not in section:
            raise ConfigError(f"missing config key dataset.schema.{name}")
    return Schema(**schema)


def resolve_dataset(cfg: dict) -> tuple[WeightedLabeledSet, LossModel]:
    ds = cfg["dataset"]
    if ds["path"] is not None:
        if ds["schema"] is None:
            raise ConfigError("dataset.path requires dataset.schema")
        schema = _schema_from(ds["schema"])
        data = load_dataset(ds["path"], schema)
        kind = LOGISTIC if schema.binary_label else LINEAR
    else:
        synth = ds["synth"]
        data = _in_section("dataset.synth", make_synthetic, synth["task"],
                           synth["n"], synth["d"], synth["noise"],
                           seed=cfg["seed"])
        kind = SYNTHETIC_TASKS[synth["task"]]
    loss = LossModel(kind, intercept=ds["intercept"])
    return data.normalized(), loss


def train_config_from(cfg: dict, size: int) -> TrainConfig:
    """The learner section as a TrainConfig of the given size and the root
    seed; a value TrainConfig rejects is a ConfigError naming the section."""
    field = {key: name for name, key in _LEARNER_KEYS.items()}
    section = {field.get(key, key): v for key, v in cfg["learner"].items()}
    return _in_section("learner", TrainConfig, coreset_size=size,
                       seed=cfg["seed"], **section)


def _save_coreset(coreset: Coreset, path):
    """One point per row: its features x0, x1, ..., its weight and label."""
    header = [f"x{i}" for i in range(coreset.dim)] + ["weight", "label"]
    write_csv(path, np.column_stack(
        [coreset.points, coreset.weights, coreset.labels]), header)


def _load_coreset(path) -> Coreset:
    """Read a coreset CSV as written by _save_coreset (x..., weight, label)
    with the dataset reader, datasets.parse_rows: the header names the
    columns, the last two the weight and the label. A malformed file, a
    non-finite cell, a negative weight or a row whose width is not the
    header's is a DatasetError naming the line and column, and weights
    that are all zero are one naming the file."""
    rows = read_rows(path)
    header = [h.strip() for h in rows[0]] if rows else []
    if len(header) < 3:
        raise DatasetError(f"{path}: the header must name the features, the "
                           f"weight and the label, got {header!r}")
    return Coreset(*parse_rows(path, rows, Schema(
        header[:-2], label=header[-1], weight=header[-2], has_header=True)))


def _prepare(config_path, seed=None):
    """The config (with seed, when given, as its root seed), the dataset and
    its loss. A subcommand builds from them only the queries it reads."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = int(seed)
    P, loss = resolve_dataset(cfg)
    return cfg, P, loss


def _pool(cfg, P, loss):
    """The config's query pool: GD trajectories over P."""
    qc = cfg["queries"]
    return queries.trajectory_queries(
        P, loss, qc["n_starts"], qc["steps_per_start"], qc["gd_lr"],
        qc["init_scale"], seed=cfg["seed"])


def _splits(cfg, P, loss):
    """The pool's train, validation and test splits, sized by queries.split."""
    return queries.split_queries(_pool(cfg, P, loss), cfg["queries"]["split"],
                                 seed=cfg["seed"])


def _output_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_experiment(config_path, seed=None, out_dir=None) -> int:
    """Full protocol: load -> queries -> split -> sweep -> CSVs + manifest."""
    cfg, P, loss = _prepare(config_path, seed)
    q_train, q_val, q_test = _splits(cfg, P, loss)
    if out_dir is not None:
        cfg["output"]["dir"] = str(out_dir)

    sweep_cfg = cfg["sweep"]
    base_cfg = train_config_from(cfg, sweep_cfg["sizes"][0])
    table, reports = evaluate.sweep(
        P, loss, sweep_cfg["sizes"], sweep_cfg["methods"], sweep_cfg["trials"],
        cfg["seed"], q_train, q_val, q_test, base_cfg, collect_reports=True)

    # made only now, so that a sweep that fails leaves no directory
    out = _output_dir(cfg["output"]["dir"])
    table.to_csv(out / "trials.csv")
    table.aggregate_to_csv(out / "aggregated.csv")
    with open(out / "train_reports.json", "w") as fh:
        json.dump({f"{s}/{m}/{t}": r.to_dict()
                   for (s, m, t), r in sorted(reports.items())}, fh, indent=2)
    manifest = {
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "versions": {
            "corelearn": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": ["trials.csv", "aggregated.csv", "train_reports.json"],
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return EXIT_OK


# -- subcommand handlers ------------------------------------------------


def _cmd_experiment(args):
    return run_experiment(args.config, seed=args.seed, out_dir=args.out_dir)


def _cmd_learn(args):
    cfg, P, loss = _prepare(args.config, args.seed)
    q_train, q_val, _ = _splits(cfg, P, loss)
    tc = train_config_from(cfg, args.size)
    coreset, report = learner.train(P, q_train, q_val, loss, tc)
    out = _output_dir(args.out_dir or cfg["output"]["dir"])
    _save_coreset(coreset, out / f"coreset_learned_{args.size}.csv")
    with open(out / f"report_learned_{args.size}.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    print(f"learned coreset of size {args.size}: "
          f"final train loss {report.train_losses[-1]:.6g}")
    return EXIT_OK


def _cmd_baseline(args):
    cfg, P, _ = _prepare(args.config, args.seed)
    if args.method == METHOD_UNIFORM:
        coreset = baselines.uniform_coreset(P, args.size, cfg["seed"])
    else:
        coreset = baselines.leverage_coreset(P, args.size, cfg["seed"])
    out = _output_dir(args.out_dir or cfg["output"]["dir"])
    _save_coreset(coreset, out / f"coreset_{args.method}_{args.size}.csv")
    print(f"{args.method} coreset of size {args.size} written")
    return EXIT_OK


def _cmd_eval(args):
    coreset = _load_coreset(args.coreset)
    cfg, P, loss = _prepare(args.config, args.seed)
    check_coreset(P, coreset)
    q_test = _splits(cfg, P, loss)[2]
    e_avg = evaluate.err_avg(P, coreset, loss, q_test)
    e_opt = evaluate.err_opt(P, coreset, loss)
    print(f"err_opt={e_opt!r} err_avg={e_avg.value!r} filtered={e_avg.filtered}")
    return EXIT_OK


def _cmd_gen_queries(args):
    cfg, P, loss = _prepare(args.config, args.seed)
    pool = _pool(cfg, P, loss)
    queries.save_pool_csv(pool, args.out)
    print(f"wrote {pool.shape[0]} queries to {args.out}")
    return EXIT_OK


def _cmd_bounds(args):
    check_probability(args.delta, "delta")
    check_real(args.eps, "eps")
    if args.estimate_M:
        if not args.config:
            raise ConfigError("--estimate-M requires --config")
        cfg, P, loss = _prepare(args.config, args.seed)
        M = theory.estimate_M(P, loss, _pool(cfg, P, loss), level="set")
        print(f"M_hat={M!r}")
    else:
        if args.M is None:
            raise ConfigError("give --M or --estimate-M")
        M = args.M
    k1 = theory.hoeffding_k(args.eps, args.delta, M)
    k2 = theory.claim2_k(args.eps, args.delta, M)
    print(f"eps={args.eps} delta={args.delta} M={M} k1={k1} k2={k2}")
    return EXIT_OK


def _cmd_verify(args):
    check_count(args.trials, "--trials", 1)
    check_count(args.universe_size, "--universe-size", 1)
    check_real(args.eps_frac, "--eps-frac")
    check_probability(args.delta, "--delta")
    cfg, P, loss = _prepare(args.config, args.seed)
    pool = _pool(cfg, P, loss)
    if args.universe_size > pool.shape[0]:
        raise ConfigError(f"--universe-size {args.universe_size} exceeds the "
                          f"pool size {pool.shape[0]}")
    rng_idx = np.linspace(0, pool.shape[0] - 1, args.universe_size).astype(int)
    measure = np.full(len(rng_idx), 1.0 / len(rng_idx))
    space = MeasurableQuerySpace(P, loss, pool[rng_idx], measure)
    M = theory.exact_set_M(space)
    eps = args.eps_frac * M
    res = theory.verify_claim1(space, eps, args.delta, trials=args.trials,
                               seed=cfg["seed"])
    status = "PASS" if res.passes() else "FAIL"
    print(f"claim1 {status}: violation_rate={res.violation_rate!r} "
          f"bound={res.delta + res.slack()!r} k={res.k} M={res.M!r}")
    return EXIT_OK if res.passes() else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corelearn",
        description="Learn weighted coresets by gradient descent; "
                    "baselines, metrics, and bound verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override root seed")

    def writing(p):
        common(p)
        p.add_argument("--out-dir", default=None, help="override output directory")

    p = sub.add_parser("experiment", help="run the full sweep protocol")
    writing(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("learn", help="train one coreset")
    writing(p)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("baseline", help="construct one baseline coreset")
    writing(p)
    p.add_argument("--method", required=True,
                   choices=[METHOD_UNIFORM, METHOD_LEVERAGE])
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("eval", help="evaluate a saved coreset")
    common(p)
    p.add_argument("--coreset", required=True, help="coreset CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen-queries", help="write the query pool as CSV")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_queries)

    p = sub.add_parser("bounds", help="sample-size calculators")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--M", type=float, default=None)
    p.add_argument("--estimate-M", action="store_true")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="Monte-Carlo bound verification")
    common(p)
    p.add_argument("--universe-size", type=int, default=10)
    p.add_argument("--eps-frac", type=float, default=0.1,
                   help="eps as a fraction of the exact loss bound")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=2000)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
