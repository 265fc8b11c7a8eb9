"""Evaluation metrics and size/method sweeps."""

from __future__ import annotations

import csv
import math
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import baselines, learner
from .core import (Coreset, ContractError, DegenerateInputError,
                   WeightedLabeledSet, set_cost, set_costs)
from .learner import RATIO_FLOOR, TrainConfig
from .losses import LossModel

METHOD_LEARNED = "learned"
METHOD_UNIFORM = "uniform"
METHOD_LEVERAGE = "leverage"


def err_opt(P: WeightedLabeledSet, coreset: Coreset, loss: LossModel) -> float:
    """Relative excess full-data cost of the coreset-optimal model:
    |1 - f(P, q*_c) / f(P, q*)|."""
    return _err_opt(P, coreset, loss, partial(_optimal_cost, P, loss))


def _optimal_cost(P, loss):
    """f(P, q*) at the data's optimum q*."""
    return set_cost(P, loss, baselines.solve_optimal(P, loss).params)


def _err_opt(P, coreset, loss, optimal_cost):
    """err_opt with f(P, q*) from optimal_cost(), called where err_opt
    solves the data."""
    C = coreset.as_set()
    if not np.any(C.weights > 0):
        raise DegenerateInputError(
            "coreset weights are all zero; it has no optimal solution")
    f_star = optimal_cost()
    sol_c = baselines.solve_optimal(C, loss)
    if f_star <= RATIO_FLOOR:
        raise DegenerateInputError(
            "full-data optimum cost is zero; optimal-solution error undefined")
    f_at_c = set_cost(P, loss, sol_c.params)
    return abs(1.0 - f_at_c / f_star)


@dataclass(frozen=True)
class ErrAvg:
    value: float
    filtered: int


def err_avg(P: WeightedLabeledSet, coreset: Coreset, loss: LossModel,
            Q_test) -> ErrAvg:
    """Mean per-query relative cost deviation over the test queries.

    Queries with full-data cost below the ratio floor are excluded; the
    excluded count is part of the result.
    """
    return _err_avg(coreset, loss, partial(learner._scored, P, loss, Q_test))


def _err_avg(coreset, loss, test_split):
    """err_avg over the scored split that test_split() returns."""
    qm, f_p, filtered = learner._floored(*test_split())
    if qm.shape[0] == 0:
        raise DegenerateInputError("all test queries filtered; metric undefined")
    f_c = set_costs(coreset, loss, qm)
    value = float(np.mean(np.abs(1.0 - f_c / f_p)))
    return ErrAvg(value, filtered)


def _build_coreset(method, P, loss, size, trial_seed, train_split, val_split,
                   cfg):
    if method == METHOD_UNIFORM:
        return baselines.uniform_coreset(P, size, trial_seed), None
    if method == METHOD_LEVERAGE:
        return baselines.leverage_coreset(P, size, trial_seed), None
    if method == METHOD_LEARNED:
        run_cfg = replace(cfg, coreset_size=size, seed=trial_seed)
        return learner._train(P, train_split, val_split, loss, run_cfg)
    raise ContractError(f"unknown method {method!r}")


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def add(self, **row):
        self.rows.append(row)

    def aggregate(self) -> list[dict]:
        """Mean/std of the metrics per (size, method) over successful trials."""
        cells = {}
        for row in self.rows:
            cells.setdefault((row["size"], row["method"]), []).append(row)
        out = []
        for (size, method), group in sorted(cells.items()):
            good = [r for r in group if r["ok"]]
            agg = {"size": size, "method": method,
                   "n_trials": len(group), "n_ok": len(good),
                   "flagged": len(good) * 2 < len(group)}
            for metric in ("err_opt", "err_avg"):
                vals = [r[metric] for r in good if r[metric] is not None]
                if vals:
                    agg[f"{metric}_mean"] = float(np.mean(vals))
                    agg[f"{metric}_std"] = (float(np.std(vals, ddof=1))
                                            if len(vals) > 1 else 0.0)
                else:
                    agg[f"{metric}_mean"] = math.nan
                    agg[f"{metric}_std"] = math.nan
            out.append(agg)
        return out

    def to_csv(self, path):
        cols = ["size", "method", "trial", "err_opt", "err_avg",
                "filtered_queries", "wall_time_s", "ok", "error"]
        _write_csv(path, cols, self.rows)

    def aggregate_to_csv(self, path):
        agg = self.aggregate()
        cols = ["size", "method", "n_trials", "n_ok", "flagged",
                "err_opt_mean", "err_opt_std", "err_avg_mean", "err_avg_std"]
        _write_csv(path, cols, agg)


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return "" if x is None else str(x)


def _write_csv(path, cols, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in cols])


def _kept(fn, *args):
    """Call fn(*args) now. The returned function gives its result, or raises
    its error again, at every call."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - raised again by each reader
        error = exc

        def read():
            raise error
        return read
    return lambda: value


def sweep(P: WeightedLabeledSet, loss: LossModel, sizes, methods,
          n_trials: int, base_seed: int, Q_train, Q_val, Q_test,
          cfg: TrainConfig, collect_reports: bool = False):
    """Train/construct and evaluate every (size, method, trial) cell.

    What depends only on P, the loss and the splits is computed once, before
    the first cell: the full-data costs of each split the cells read and the
    data's optimal cost f(P, q*). A cell's wall_time_s therefore excludes
    it. Individual trial failures are recorded, not fatal, and that holds
    for the shared work too: its error is raised in every cell that reads
    it, at the step where the cell would have computed it. Returns the
    table and, when requested, the training reports of the learned cells.
    """
    if not sizes or not methods:
        raise ContractError("sizes and methods must be non-empty")
    test_split = _kept(learner._scored, P, loss, Q_test)
    optimal_cost = _kept(_optimal_cost, P, loss)
    train_split = val_split = None
    if METHOD_LEARNED in methods:
        train_split = _kept(learner._scored, P, loss, Q_train)
        # only the practical objective reads a validation split
        if Q_val is not None and cfg.algorithm == learner.ALG_PRACTICAL:
            val_split = _kept(learner._scored, P, loss, Q_val)
    table = ResultTable()
    reports = {}
    for size in sizes:
        for method in methods:
            for trial in range(n_trials):
                trial_seed = _cell_seed(base_seed, size, method, trial)
                t0 = time.perf_counter()
                try:
                    coreset, report = _build_coreset(
                        method, P, loss, size, trial_seed, train_split,
                        val_split, cfg)
                    e_opt = _err_opt(P, coreset, loss, optimal_cost)
                    e_avg = _err_avg(coreset, loss, test_split)
                    table.add(size=size, method=method, trial=trial,
                              err_opt=e_opt, err_avg=e_avg.value,
                              filtered_queries=e_avg.filtered,
                              wall_time_s=time.perf_counter() - t0,
                              ok=True, error=None)
                    if collect_reports and report is not None:
                        reports[(size, method, trial)] = report
                except Exception as exc:  # noqa: BLE001 - per-cell isolation
                    warnings.warn(f"trial failed ({size}, {method}, {trial}): {exc}")
                    table.add(size=size, method=method, trial=trial,
                              err_opt=None, err_avg=None, filtered_queries=None,
                              wall_time_s=time.perf_counter() - t0,
                              ok=False, error=str(exc))
    return (table, reports) if collect_reports else table


def _cell_seed(base_seed, size, method, trial):
    return (int(base_seed)
            + zlib.crc32(f"{size}/{method}/{trial}".encode())) % (2 ** 31)
