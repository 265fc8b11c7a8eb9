"""Evaluation metrics and size/method sweeps."""

from __future__ import annotations

import os
import sys
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, learner
from .core import (RATIO_FLOOR, Coreset, ContractError, DegenerateInputError,
                   WeightedLabeledSet, check_coreset, check_count, floored,
                   query_matrix, remember, scored, set_cost, set_costs)
from .datasets import write_csv
from .losses import LossModel

METHOD_LEARNED = "learned"
METHOD_UNIFORM = "uniform"
METHOD_LEVERAGE = "leverage"
METHODS = (METHOD_LEARNED, METHOD_UNIFORM, METHOD_LEVERAGE)

# a trial's metrics, and the columns of its row and of an aggregated row
_METRICS = ("err_opt", "err_avg")
_ROW = ("size", "method", "trial", *_METRICS, "filtered_queries",
        "wall_time_s", "ok", "error")
_AGGREGATE = ("size", "method", "n_trials", "n_ok", "flagged",
              *(f"{m}_{stat}" for m in _METRICS for stat in ("mean", "std")))


def err_opt(P: WeightedLabeledSet, coreset: Coreset, loss: LossModel) -> float:
    """Relative excess full-data cost of the coreset-optimal model:
    |1 - f(P, q*_c) / f(P, q*)|.

    f(P, q*) is kept on P, so the data is solved once however many
    coresets are judged against it.
    """
    check_coreset(P, coreset)
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
    """Mean per-query relative cost deviation |1 - f_C/f_P| over the test
    queries: the practical objective's value (learner._ratio_term) on the
    test split floored at RATIO_FLOOR.

    Queries with full-data cost below the ratio floor are excluded; the
    excluded count is part of the result.
    """
    check_coreset(P, coreset)
    qm, f_p, filtered = floored(*scored(P, loss, Q_test, "Q_test"))
    if qm.shape[0] == 0:
        raise DegenerateInputError("all test queries filtered; metric undefined")
    return ErrAvg(learner._ratio_term(set_costs(coreset, loss, qm), f_p)[0],
                  filtered)


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
            for metric in _METRICS:
                vals = [r[metric] for r in good if r[metric] is not None]
                if vals:
                    agg[f"{metric}_mean"] = float(np.mean(vals))
                    agg[f"{metric}_std"] = (float(np.std(vals, ddof=1))
                                            if len(vals) > 1 else 0.0)
                else:
                    agg[f"{metric}_mean"] = np.nan
                    agg[f"{metric}_std"] = np.nan
            out.append(agg)
        return out

    def to_csv(self, path):
        _write_csv(path, _ROW, self.rows)

    def aggregate_to_csv(self, path):
        _write_csv(path, _AGGREGATE, self.aggregate())


def _write_csv(path, cols, rows):
    write_csv(path, ([row.get(c) for c in cols] for row in rows), cols)


def sweep_cells(sizes, methods, n_trials: int) -> list[tuple]:
    """The (size, method, trial) cells of a sweep, in cell order: sizes and
    methods must be non-empty sequences, not strs, that repeat no entry,
    each size and n_trials an integer >= 1 and each method in METHODS, or
    it is a ContractError naming it."""
    given = (sizes, methods)
    sizes, methods = (list(v) if np.iterable(v) else [] for v in given)
    if not sizes or not methods or any(isinstance(v, str) for v in given):
        raise ContractError("sizes and methods must be non-empty sequences")
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ContractError(f"unknown sweep methods: {bad}")
    for size in sizes:
        check_count(size, "size", 1)
    check_count(n_trials, "n_trials", 1)
    entries = sizes + methods
    repeats = sorted({v for v in entries if entries.count(v) > 1}, key=str)
    if repeats:
        raise ContractError(f"sizes and methods must not repeat, got {repeats}")
    return [(size, method, trial) for size in sizes for method in methods
            for trial in range(n_trials)]


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
    cell list alone. Every cell has its own seed, so the rows and reports,
    gathered back in cell order, are bit for bit those of one process
    running the cells in turn. A cell's warnings meet the caller's filters
    when raised, so one they make an error fails the cell, and again here,
    in cell order, with one registry for the sweep, so they are the same at
    any CPU count. A worker that dies raises WorkerLostError.
    With a multi-threaded BLAS, set OPENBLAS_NUM_THREADS=1 so that the
    workers do not oversubscribe the CPUs.

    Returns the table and, when requested, the training reports of the
    learned cells. Arguments that sweep_cells rejects are a ContractError
    before any cell runs, and so is a split the cells read (Q_test, and
    Q_train and Q_val, which may be None, where a method is learned) that
    is not a query matrix of width loss.query_dim(P.dim), naming it.
    """
    cells = sweep_cells(sizes, methods, n_trials)
    check_count(base_seed, "base_seed")
    learned = any(method == METHOD_LEARNED for _, method, _ in cells)
    width = loss.query_dim(P.dim)
    Q_test = query_matrix(Q_test, "Q_test", width)
    if learned:
        Q_train = query_matrix(Q_train, "Q_train", width)
        Q_val = Q_val if Q_val is None else query_matrix(Q_val, "Q_val", width)

    def cell(key):
        """A cell's row, training report (None unless learned) and
        warnings, as (message, category, filename, lineno)."""
        size, method, trial = key
        trial_seed = _cell_seed(base_seed, *key)
        row = dict(dict.fromkeys(_ROW), size=size, method=method, trial=trial)
        report = None
        with warnings.catch_warnings(record=True) as caught:
            t0 = time.perf_counter()
            try:
                if method == METHOD_UNIFORM:
                    coreset = baselines.uniform_coreset(P, size, trial_seed)
                elif method == METHOD_LEVERAGE:
                    coreset = baselines.leverage_coreset(P, size, trial_seed)
                else:
                    coreset, report = learner.train(
                        P, Q_train, Q_val, loss,
                        replace(cfg, coreset_size=size, seed=trial_seed))
                e_opt = err_opt(P, coreset, loss)
                e_avg = err_avg(P, coreset, loss, Q_test)
                row.update(err_opt=e_opt, err_avg=e_avg.value,
                           filtered_queries=e_avg.filtered, ok=True)
            except Exception as exc:  # noqa: BLE001 - per-cell isolation
                warnings.warn(f"trial failed ({size}, {method}, {trial}): {exc}")
                row.update(ok=False, error=str(exc))
            row["wall_time_s"] = time.perf_counter() - t0
        return row, report if row["ok"] else None, [
            (w.message, w.category, w.filename, w.lineno) for w in caught]

    _keep_shared_work(P, loss, ([Q_train, Q_val] if learned else []) + [Q_test])
    n_shares = min(_usable_cpus(), len(cells))
    results = _run_shares(cell, [cells[i::n_shares] for i in range(n_shares)])
    # each file's module, which filters match (warn_explicit drops None)
    modules = {getattr(m, "__file__", None): name
               for name, m in list(sys.modules.items())}
    table, reports, registry = ResultTable(), {}, {}
    for i, key in enumerate(cells):
        row, report, caught = results[i % n_shares][i // n_shares]
        for message, category, filename, lineno in caught:
            module = modules.get(filename, filename.removesuffix(".py"))
            warnings.warn_explicit(message, category, filename, lineno,
                                   module, registry)
        table.add(**row)
        if collect_reports and report is not None:
            reports[key] = report
    return (table, reports) if collect_reports else table


class WorkerLostError(RuntimeError):
    """A sweep worker process ended before returning its cells."""


def _keep_shared_work(P: WeightedLabeledSet, loss: LossModel, splits) -> None:
    """Keep on P what the cells would compute from it alone: the costs of
    the splits they score (None for one that is absent) and f(P, q*), which
    every cell's metrics read."""
    work = [lambda q=q: scored(P, loss, q) for q in splits if q is not None]
    work.append(lambda: _optimal_cost(P, loss))
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


def _run_shares(cell, shares):
    """cell(key) for each key of each share, a list per share in share
    order: share 0 run by this process, each other by its own forked worker.

    Workers are forked, not spawned: a spawned one would import NumPy and
    corelearn again and get P pickled, without what P keeps; a forked one
    inherits cell and all it reads, and pickles only its share's results,
    which it sends over its own pipe. Every reply is received before the
    workers are joined, and they are joined before this returns or raises.
    A cell's exception is raised here; a worker that ends without replying
    is a WorkerLostError naming the cells of every share it lost."""
    if len(shares) == 1:
        return [list(map(cell, shares[0]))]
    import multiprocessing
    fork = multiprocessing.get_context("fork")

    def serve(share, outbox):
        """A forked worker's life: send its share's results, or what raised."""
        try:
            result = list(map(cell, share))
        except Exception as exc:  # noqa: BLE001 - raised again in the sweep
            result = exc
        outbox.send(result)
        outbox.close()

    workers = []
    try:
        for share in shares[1:]:
            inbox, outbox = fork.Pipe(duplex=False)
            worker = fork.Process(target=serve, args=(share, outbox))
            worker.start()
            # the worker holds the only sending end, so its exit is EOF here
            outbox.close()
            workers.append((share, worker, inbox))
        results = [list(map(cell, shares[0]))]
        lost = []
        for share, _, inbox in workers:
            try:
                results.append(inbox.recv())
            except EOFError:
                lost += share
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
