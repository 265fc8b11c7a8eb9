"""Evaluation metrics and size/method sweeps."""

from __future__ import annotations

import math
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, learner
from .core import (RATIO_FLOOR, Coreset, ContractError, DegenerateInputError,
                   WeightedLabeledSet, floored, remember, scored, set_cost,
                   set_costs)
from .datasets import write_csv
from .losses import LossModel

METHOD_LEARNED = "learned"
METHOD_UNIFORM = "uniform"
METHOD_LEVERAGE = "leverage"


def err_opt(P: WeightedLabeledSet, coreset: Coreset, loss: LossModel) -> float:
    """Relative excess full-data cost of the coreset-optimal model:
    |1 - f(P, q*_c) / f(P, q*)|.

    f(P, q*) is kept on P, so the data is solved once however many
    coresets are judged against it.
    """
    if not np.any(coreset.weights > 0):
        raise DegenerateInputError(
            "coreset weights are all zero; it has no optimal solution")
    f_star = remember(P, ("optimal", loss), lambda: set_cost(
        P, loss, baselines.solve_optimal(P, loss).params))
    sol_c = baselines.solve_optimal(coreset, loss)
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
    qm, f_p, filtered = floored(*scored(P, loss, Q_test))
    if qm.shape[0] == 0:
        raise DegenerateInputError("all test queries filtered; metric undefined")
    f_c = set_costs(coreset, loss, qm)
    value = float(np.mean(np.abs(1.0 - f_c / f_p)))
    return ErrAvg(value, filtered)


def _build_coreset(method, P, loss, size, trial_seed, Q_train, Q_val, cfg):
    if method == METHOD_UNIFORM:
        return baselines.uniform_coreset(P, size, trial_seed), None
    if method == METHOD_LEVERAGE:
        return baselines.leverage_coreset(P, size, trial_seed), None
    if method == METHOD_LEARNED:
        run_cfg = replace(cfg, coreset_size=size, seed=trial_seed)
        return learner.train(P, Q_train, Q_val, loss, run_cfg)
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


def _write_csv(path, cols, rows):
    write_csv(path, ([row.get(c) for c in cols] for row in rows), cols)


def sweep(P: WeightedLabeledSet, loss: LossModel, sizes, methods,
          n_trials: int, base_seed: int, Q_train, Q_val, Q_test,
          cfg: learner.TrainConfig, collect_reports: bool = False):
    """Train/construct and evaluate every (size, method, trial) cell.

    Each cell builds its coreset (a learned one through train) and calls
    err_opt and err_avg. What they compute from P alone (each split's
    full-data costs, f(P, q*)) is kept on P by the first cell that computes
    it, so only that cell's wall_time_s includes it. Individual trial
    failures are recorded, not fatal; a failure in that shared work is kept
    nowhere, so it fails every cell that reads it. Returns the table and,
    when requested, the training reports of the learned cells.
    """
    if not sizes or not methods:
        raise ContractError("sizes and methods must be non-empty")
    table = ResultTable()
    reports = {}
    for size in sizes:
        for method in methods:
            for trial in range(n_trials):
                trial_seed = _cell_seed(base_seed, size, method, trial)
                t0 = time.perf_counter()
                try:
                    coreset, report = _build_coreset(
                        method, P, loss, size, trial_seed, Q_train, Q_val, cfg)
                    e_opt = err_opt(P, coreset, loss)
                    e_avg = err_avg(P, coreset, loss, Q_test)
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
