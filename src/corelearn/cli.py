"""Command-line entry points and the experiment runner.

One JSON config file fully determines one experiment; all randomness is
derived from a single root seed through named streams, so re-running the
same config reproduces every output byte for byte (wall-clock columns live
only in the per-trial CSV, never in the aggregated one).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, baselines, evaluate, learner, queries, theory
from .core import (ContractError, Coreset, MeasurableQuerySpace, Query,
                   WeightedLabeledSet)
from .datasets import DatasetError, Schema, load_dataset, make_synthetic
from .learner import TrainConfig
from .losses import LINEAR, LOGISTIC, LossModel

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    pass


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
    "learner": {
        "algorithm": "practical",
        "epochs": 10,
        "learning_rate": 0.01,
        "lambda": 1.0,
        "batch_size": 25,
        "learn_weights": True,
        "learn_labels": True,
        "early_stop_on_validation": True,
        "init_strategy": "subsample",
    },
    "sweep": {
        "sizes": [50],
        "methods": ["learned", "uniform", "leverage"],
        "trials": 1,
    },
    "output": {"dir": "corelearn-out"},
}


def _merge(base, override, path=""):
    """override laid over base. A key that base lacks, at the top or inside
    a section whose default is a dict, is a ConfigError naming its dotted
    path."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path}{key}")
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value, f"{path}{key}.")
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


def validate_config(cfg: dict) -> None:
    sweep = cfg["sweep"]
    if not sweep["sizes"]:
        raise ConfigError("sweep.sizes must be non-empty")
    bad = set(sweep["methods"]) - {"learned", "uniform", "leverage"}
    if bad:
        raise ConfigError(f"unknown sweep methods: {sorted(bad)}")
    if sweep["trials"] < 1:
        raise ConfigError("sweep.trials must be >= 1")
    split = cfg["queries"]["split"]
    if len(split) != 3 or any(int(s) < 0 for s in split):
        raise ConfigError("queries.split must be three nonnegative sizes")
    lrn = cfg["learner"]
    if lrn["epochs"] < 1 or lrn["batch_size"] < 1 or lrn["learning_rate"] <= 0:
        raise ConfigError("learner epochs/batch_size must be >= 1, learning_rate > 0")
    ds = cfg["dataset"]
    if ds["path"] is None and ds["synth"] is None:
        raise ConfigError("dataset needs either a path or a synth block")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _schema_from(section) -> Schema:
    """The dataset.schema section as a Schema; a section that is not an
    object, or has an unknown or missing key, is a ConfigError."""
    if not isinstance(section, dict):
        raise ConfigError("dataset.schema must be an object")
    known = {f.name: f for f in dataclasses.fields(Schema)}
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key dataset.schema.{key}")
    for name, f in known.items():
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        if required and name not in section:
            raise ConfigError(f"missing config key dataset.schema.{name}")
    return Schema(**section)


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
        data = make_synthetic(synth["task"], int(synth["n"]), int(synth["d"]),
                              float(synth.get("noise", 0.1)),
                              seed=int(cfg["seed"]))
        kind = LOGISTIC if synth["task"] in (LOGISTIC, "logistic", "logreg") else LINEAR
    loss = LossModel(kind, intercept=bool(ds.get("intercept", False)))
    return data.normalized(), loss


def generate_pool(P, loss, cfg) -> np.ndarray:
    qc = cfg["queries"]
    return queries.trajectory_queries(
        P, loss, int(qc["n_starts"]), int(qc["steps_per_start"]),
        float(qc["gd_lr"]), float(qc["init_scale"]), seed=int(cfg["seed"]))


def train_config_from(cfg: dict, size: int) -> TrainConfig:
    lrn = cfg["learner"]
    return TrainConfig(
        coreset_size=int(size),
        epochs=int(lrn["epochs"]),
        learning_rate=float(lrn["learning_rate"]),
        lam=float(lrn["lambda"]),
        batch_size=int(lrn["batch_size"]),
        seed=int(cfg["seed"]),
        algorithm=lrn["algorithm"],
        learn_weights=bool(lrn["learn_weights"]),
        learn_labels=bool(lrn["learn_labels"]),
        early_stop_on_validation=bool(lrn["early_stop_on_validation"]),
        init_strategy=lrn.get("init_strategy", "subsample"),
    )


def _save_coreset(coreset: Coreset, path):
    cols = coreset.dim
    with open(path, "w") as fh:
        header = [f"x{i}" for i in range(cols)] + ["weight", "label"]
        fh.write(",".join(header) + "\n")
        for i in range(coreset.m):
            row = [repr(float(v)) for v in coreset.points[i]]
            row.append(repr(float(coreset.weights[i])))
            row.append(repr(float(coreset.labels[i])))
            fh.write(",".join(row) + "\n")


def _load_coreset(path) -> Coreset:
    """Read a coreset CSV as written by _save_coreset (x..., weight, label).

    A malformed file, a non-finite cell or a negative weight is a
    DatasetError naming the line and column.
    """
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise DatasetError(f"cannot read coreset {path}: {exc}") from exc
    if raw.shape[0] < 1 or raw.shape[1] < 3:
        raise DatasetError(
            f"{path}: need at least one row of features, weight and label")
    bad = np.argwhere(~np.isfinite(raw))
    if bad.size:
        row, col = bad[0]
        raise DatasetError(
            f"{path}: line {row + 2}: column {col + 1}: non-finite value")
    negative = np.flatnonzero(raw[:, -2] < 0)
    if negative.size:
        raise DatasetError(
            f"{path}: line {negative[0] + 2}: negative weight {raw[negative[0], -2]!r}")
    return Coreset(raw[:, :-2], raw[:, -2], raw[:, -1])


def run_experiment(config_path, seed=None, out_dir=None) -> int:
    """Full protocol: load -> queries -> split -> sweep -> CSVs + manifest."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = int(seed)
    if out_dir is not None:
        cfg["output"]["dir"] = str(out_dir)
    out = Path(cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)

    P, loss = resolve_dataset(cfg)
    pool = generate_pool(P, loss, cfg)
    q_train, q_val, q_test = queries.split_queries(
        pool, cfg["queries"]["split"], seed=int(cfg["seed"]))

    sweep_cfg = cfg["sweep"]
    base_cfg = train_config_from(cfg, sweep_cfg["sizes"][0])
    table, reports = evaluate.sweep(
        P, loss, [int(s) for s in sweep_cfg["sizes"]], sweep_cfg["methods"],
        int(sweep_cfg["trials"]), int(cfg["seed"]),
        q_train, q_val, q_test, base_cfg, collect_reports=True)

    table.to_csv(out / "trials.csv")
    table.aggregate_to_csv(out / "aggregated.csv")
    with open(out / "train_reports.json", "w") as fh:
        json.dump({f"{s}/{m}/{t}": r.to_dict()
                   for (s, m, t), r in sorted(reports.items())}, fh, indent=2)
    manifest = {
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "seed": int(cfg["seed"]),
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


def _prepare(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    P, loss = resolve_dataset(cfg)
    pool = generate_pool(P, loss, cfg)
    splits = queries.split_queries(pool, cfg["queries"]["split"],
                                   seed=int(cfg["seed"]))
    return cfg, P, loss, pool, splits


def _cmd_learn(args):
    cfg, P, loss, _, (q_train, q_val, _) = _prepare(args)
    tc = train_config_from(cfg, args.size)
    coreset, report = learner.train(P, q_train, q_val, loss, tc)
    out = Path(args.out_dir or cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    _save_coreset(coreset, out / f"coreset_learned_{args.size}.csv")
    with open(out / f"report_learned_{args.size}.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    print(f"learned coreset of size {args.size}: "
          f"final train loss {report.train_losses[-1]:.6g}")
    return EXIT_OK


def _cmd_baseline(args):
    cfg, P, _, _, _ = _prepare(args)
    if args.method == "uniform":
        coreset = baselines.uniform_coreset(P, args.size, int(cfg["seed"]))
    else:
        coreset = baselines.leverage_coreset(P, args.size, int(cfg["seed"]))
    out = Path(args.out_dir or cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    _save_coreset(coreset, out / f"coreset_{args.method}_{args.size}.csv")
    print(f"{args.method} coreset of size {args.size} written")
    return EXIT_OK


def _cmd_eval(args):
    cfg, P, loss, _, (_, _, q_test) = _prepare(args)
    coreset = _load_coreset(args.coreset)
    e_avg = evaluate.err_avg(P, coreset, loss, q_test)
    e_opt = evaluate.err_opt(P, coreset, loss)
    print(f"err_opt={e_opt!r} err_avg={e_avg.value!r} filtered={e_avg.filtered}")
    return EXIT_OK


def _cmd_gen_queries(args):
    cfg, P, loss, pool, _ = _prepare(args)
    queries.save_pool_csv(pool, args.out)
    print(f"wrote {pool.shape[0]} queries to {args.out}")
    return EXIT_OK


def _cmd_bounds(args):
    if not 0 < args.delta < 1:
        raise ConfigError("delta must be in (0, 1)")
    if args.eps <= 0:
        raise ConfigError("eps must be > 0")
    if args.estimate_M:
        if not args.config:
            raise ConfigError("--estimate-M requires --config")
        args_m = argparse.Namespace(config=args.config, seed=args.seed)
        cfg, P, loss, pool, _ = _prepare(args_m)
        M = theory.estimate_M(P, loss, pool, level="set")
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
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if args.universe_size < 1:
        raise ConfigError("--universe-size must be >= 1")
    cfg, P, loss, pool, _ = _prepare(args)
    rng_idx = np.linspace(0, pool.shape[0] - 1, args.universe_size).astype(int)
    universe = tuple(Query(pool[i]) for i in rng_idx)
    measure = np.full(len(universe), 1.0 / len(universe))
    space = MeasurableQuerySpace(P, loss, universe, measure)
    M = theory.exact_set_M(space)
    eps = args.eps_frac * M
    res = theory.verify_claim1(space, eps, args.delta, trials=args.trials,
                               seed=int(cfg["seed"]))
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
        p.add_argument("--out-dir", default=None, help="override output directory")

    p = sub.add_parser("experiment", help="run the full sweep protocol")
    common(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("learn", help="train one coreset")
    common(p)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("baseline", help="construct one baseline coreset")
    common(p)
    p.add_argument("--method", choices=["uniform", "leverage"], required=True)
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
