"""Evaluation metrics and size/method sweeps."""

from __future__ import annotations

import math
import os
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, learner
from .core import (RATIO_FLOOR, Coreset, ContractError, DegenerateInputError,
                   WeightedLabeledSet, check_count, floored, remember, scored,
                   set_cost, set_costs)
from .datasets import write_csv
from .losses import LossModel

METHOD_LEARNED = "learned"
METHOD_UNIFORM = "uniform"
METHOD_LEVERAGE = "leverage"
METHODS = (METHOD_LEARNED, METHOD_UNIFORM, METHOD_LEVERAGE)


def err_opt(P: WeightedLabeledSet, coreset: Coreset, loss: LossModel) -> float:
    """Relative excess full-data cost of the coreset-optimal model:
    |1 - f(P, q*_c) / f(P, q*)|.

    f(P, q*) is kept on P, so the data is solved once however many
    coresets are judged against it.
    """
    if not np.any(coreset.weights > 0):
        raise DegenerateInputError(
            "coreset weights are all zero; it has no optimal solution")
    f_star = _optimal_cost(P, loss)
    if f_star <= RATIO_FLOOR:
        raise DegenerateInputError(
            "full-data optimum cost is zero; optimal-solution error undefined")
    f_at_c = set_cost(P, loss, baselines.solve_optimal(coreset, loss).params)
    return abs(1.0 - f_at_c / f_star)


def _optimal_cost(P: WeightedLabeledSet, loss: LossModel) -> float:
    """f(P, q*), kept on P."""
    return remember(P, ("optimal", loss), lambda: set_cost(
        P, loss, baselines.solve_optimal(P, loss).params))


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
    run_cfg = replace(cfg, coreset_size=size, seed=trial_seed)
    return learner.train(P, Q_train, Q_val, loss, run_cfg)


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
    full-data costs, f(P, q*)) is kept on P before the cells start, so no
    cell's wall_time_s includes it. A cell's failure, one in that shared
    work included, is recorded in its row and warned, not raised.

    The cells are dealt round robin, in cell order, into W = min(usable
    CPUs, cells) shares. This process runs share 0 and W - 1 forked workers
    run the others, one share each, so where a cell runs depends on the
    cell list alone.
    Every cell has its own seed, so the rows, reports and warnings,
    gathered back in cell order, are bit for bit those of one process
    running the cells in turn. A worker that dies raises WorkerLostError.
    With a multi-threaded BLAS, set OPENBLAS_NUM_THREADS=1 so that the
    workers do not oversubscribe the CPUs.

    Returns the table and, when requested, the training reports of the
    learned cells. Unknown methods, and an n_trials that is not an integer
    >= 1, are a ContractError before any cell runs.
    """
    if not sizes or not methods:
        raise ContractError("sizes and methods must be non-empty")
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ContractError(f"unknown sweep methods: {bad}")
    check_count(n_trials, "n_trials", 1)
    check_count(base_seed, "base_seed")
    job = _Cells([(size, method, trial) for size in sizes
                  for method in methods for trial in range(n_trials)],
                 P, loss, base_seed, Q_train, Q_val, Q_test, cfg)
    _keep_shared_work(job)
    n_shares = min(_usable_cpus(), len(job.cells))
    shares = [range(i, len(job.cells), n_shares) for i in range(n_shares)]
    done = [None] * len(job.cells)
    for share, results in zip(shares, _run_shares(job, shares)):
        for i, result in zip(share, results):
            done[i] = result
    table = ResultTable()
    reports = {}
    for cell, (row, report, caught) in zip(job.cells, done):
        for message, category, filename, lineno in caught:
            warnings.showwarning(message, category, filename, lineno)
        table.add(**row)
        if collect_reports and report is not None:
            reports[cell] = report
    return (table, reports) if collect_reports else table


class WorkerLostError(RuntimeError):
    """A sweep worker process ended before returning its cells."""


@dataclass(frozen=True, eq=False)
class _Cells:
    """A sweep's cells, in order, and what every cell reads."""

    cells: list
    P: WeightedLabeledSet
    loss: LossModel
    base_seed: int
    Q_train: object
    Q_val: object
    Q_test: object
    cfg: learner.TrainConfig

    def run(self, share):
        """The cells at the indices in share, run in order: for each, its
        row, its training report (None unless learned) and the warnings it
        raised, as (message, category, filename, lineno).

        Each warning meets the caller's filters when raised, so one they
        turn into an error fails its cell; the others are recorded, not
        shown, and the sweep shows them in cell order."""
        out = []
        with warnings.catch_warnings(record=True) as caught:
            for i in share:
                row, report = self._cell(*self.cells[i])
                out.append((row, report, [(w.message, w.category, w.filename,
                                           w.lineno) for w in caught]))
                caught.clear()
        return out

    def _cell(self, size, method, trial):
        trial_seed = _cell_seed(self.base_seed, size, method, trial)
        t0 = time.perf_counter()
        try:
            coreset, report = _build_coreset(
                method, self.P, self.loss, size, trial_seed, self.Q_train,
                self.Q_val, self.cfg)
            e_opt = err_opt(self.P, coreset, self.loss)
            e_avg = err_avg(self.P, coreset, self.loss, self.Q_test)
        except Exception as exc:  # noqa: BLE001 - per-cell isolation
            warnings.warn(f"trial failed ({size}, {method}, {trial}): {exc}")
            return dict(size=size, method=method, trial=trial, err_opt=None,
                        err_avg=None, filtered_queries=None,
                        wall_time_s=time.perf_counter() - t0,
                        ok=False, error=str(exc)), None
        return dict(size=size, method=method, trial=trial, err_opt=e_opt,
                    err_avg=e_avg.value, filtered_queries=e_avg.filtered,
                    wall_time_s=time.perf_counter() - t0,
                    ok=True, error=None), report


def _keep_shared_work(job: _Cells) -> None:
    """Keep on P what the cells would compute from it alone: the test
    split's costs and f(P, q*), which every cell's metrics read, and, when
    cells learn, the costs of the training and validation splits."""
    learned = any(method == METHOD_LEARNED for _, method, _ in job.cells)
    splits = ([job.Q_train, job.Q_val] if learned else []) + [job.Q_test]
    work = [lambda q=q: scored(job.P, job.loss, q)
            for q in splits if q is not None]
    work.append(lambda: _optimal_cost(job.P, job.loss))
    # a failure is not kept, so each cell that reads the result meets it
    # again and records it
    for compute in work:
        try:
            compute()
        except Exception:  # noqa: BLE001
            pass


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say
    (there, without Linux's affinity call, the sweep forks no worker)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _serve(job: _Cells, share, outbox) -> None:
    """A forked worker's life: run one share and send its results, or the
    exception that stopped it, to the sweep."""
    try:
        result = job.run(share)
    except Exception as exc:  # noqa: BLE001 - raised again in the sweep
        result = exc
    outbox.send(result)
    outbox.close()


def _run_shares(job: _Cells, shares):
    """Each share's results, in share order: share 0 run by this process,
    each other share by its own forked worker, one worker per share.

    Workers are forked, not spawned: a spawned one would import NumPy and
    corelearn again and get P pickled, without what P keeps; a forked one
    inherits the cells' inputs. Each sends its share's results over its own
    pipe. Every reply is received before the workers are joined, and the
    workers are joined before this returns or raises. A share's exception
    is raised here; a worker that ends without replying is a
    WorkerLostError naming the cells of every share it lost."""
    if len(shares) == 1:
        return [job.run(shares[0])]
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    workers = []
    try:
        for share in shares[1:]:
            inbox, outbox = fork.Pipe(duplex=False)
            worker = fork.Process(target=_serve, args=(job, share, outbox))
            worker.start()
            # the worker holds the only sending end, so its exit is EOF here
            outbox.close()
            workers.append((share, worker, inbox))
        results = [job.run(shares[0])]
        lost = []
        for share, _, inbox in workers:
            try:
                results.append(inbox.recv())
            except EOFError:
                lost += [job.cells[i] for i in share]
    except BaseException:
        # the replies are no longer wanted: stop the workers rather than
        # wait for their shares
        for _, worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for _, worker, inbox in workers:
            inbox.close()
            worker.join()
    for result in results:
        if isinstance(result, Exception):
            raise result
    if lost:
        raise WorkerLostError(
            f"a sweep worker ended before returning its cells: {lost}")
    return results


def _cell_seed(base_seed, size, method, trial):
    return (int(base_seed)
            + zlib.crc32(f"{size}/{method}/{trial}".encode())) % (2 ** 31)
