import hashlib
import multiprocessing
import os
import re
import time
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from corelearn import (
    Coreset,
    LossModel,
    MeasurableQuerySpace,
    TrainConfig,
    WeightedLabeledSet,
    baselines,
    err_avg,
    err_opt,
    estimate_M,
    leverage_coreset,
    solve_optimal,
    sweep,
    train,
    uniform_coreset,
    verify_claim2,
)
from corelearn.core import ContractError, DegenerateInputError
from corelearn.datasets import make_synthetic
from corelearn import evaluate, learner
from corelearn.evaluate import ResultTable, _cell_seed


def _identity_coreset(P):
    return Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())


def test_err_opt_identity_is_zero(linreg):
    P = make_synthetic("linear", 40, 2, 0.3, seed=0)
    assert err_opt(P, _identity_coreset(P), linreg) == pytest.approx(0.0, abs=1e-12)


def test_err_opt_hand_two_point_instance(linreg):
    # P: ([1], 0) and ([2], 6), equal weights. Normal equations:
    # q* = (w1*p1*b1 + w2*p2*b2) / (w1*p1^2 + w2*p2^2) = 12/5
    # 1-point coreset ([1], 1) has optimum q_c = 1.
    P = WeightedLabeledSet([[1.0], [2.0]], [0.5, 0.5], [0.0, 6.0])
    C = Coreset([[1.0]], [1.0], [1.0])
    f = lambda q: 0.5 * (q - 0.0) ** 2 + 0.5 * (2 * q - 6.0) ** 2
    expected = abs(1.0 - f(1.0) / f(12.0 / 5.0))
    assert err_opt(P, C, linreg) == pytest.approx(expected, rel=1e-10)


def test_err_opt_zero_optimum_is_undefined(linreg):
    # perfectly realizable data: optimum cost 0
    P = WeightedLabeledSet([[1.0], [2.0]], [0.5, 0.5], [1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        err_opt(P, Coreset([[1.0]], [1.0], [1.0]), linreg)


def test_err_opt_zero_optimum_solves_no_coreset(linreg, monkeypatch):
    """f(P, q*) is checked against the ratio floor before the coreset is
    solved: the only solve is the data's."""
    P = make_synthetic("linear", 30, 2, 0.0, seed=4)
    solved = []
    solve = baselines.solve_optimal

    def spy(dataset, loss):
        solved.append(dataset.n)
        return solve(dataset, loss)
    monkeypatch.setattr(baselines, "solve_optimal", spy)
    with pytest.raises(DegenerateInputError, match="optimum cost is zero"):
        err_opt(P, uniform_coreset(P, 5, 0), linreg)
    assert solved == [30]


def test_err_opt_all_zero_weights_is_undefined(linreg):
    P = make_synthetic("linear", 40, 2, 0.3, seed=0)
    C = Coreset(P.points[:2], [0.0, 0.0], P.labels[:2])
    with pytest.raises(DegenerateInputError, match="all zero"):
        err_opt(P, C, linreg)


def test_metrics_reject_weights_negated_in_place(linreg):
    P = make_synthetic("linear", 40, 2, 0.3, seed=0)
    C = _identity_coreset(P)
    Q = np.random.default_rng(1).standard_normal((5, 2))
    with pytest.raises(ContractError, match="nonnegative"):
        err_avg(P, Coreset(C.points, -C.weights, C.labels), linreg, Q)
    with pytest.raises(ContractError, match="nonnegative"):
        err_opt(P, Coreset(C.points, -C.weights, C.labels), linreg)
    with pytest.raises(ValueError, match="read-only"):
        np.negative(C.weights, out=C.weights)
    assert err_avg(P, C, linreg, Q).value == 0.0


def test_err_avg_identity_zero(linreg):
    P = make_synthetic("linear", 30, 2, 0.2, seed=1)
    Q = np.random.default_rng(2).standard_normal((20, 2))
    res = err_avg(P, _identity_coreset(P), linreg, Q)
    assert res.value == 0.0
    assert res.filtered == 0


def test_err_avg_single_query_hand_value(linreg):
    # f_P = 2 at q=sqrt(2) on unit point; coreset weight 1.5 -> f_C = 3
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    C = Coreset([[1.0]], [1.5], [0.0])
    res = err_avg(P, C, linreg, np.array([[np.sqrt(2.0)]]))
    assert res.value == pytest.approx(0.5)


def test_err_avg_weight_doubling(linreg):
    P = make_synthetic("linear", 25, 2, 0.2, seed=3)
    Q = np.random.default_rng(4).standard_normal((10, 2))
    C = _identity_coreset(P)
    res = err_avg(P, Coreset(C.points, C.weights * 2.0, C.labels), linreg, Q)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_metrics_scale_invariance(linreg):
    P = make_synthetic("linear", 30, 2, 0.2, seed=5)
    Q = np.random.default_rng(6).standard_normal((10, 2))
    C = uniform_coreset(P, 8, seed=7)
    alpha = 3.7
    P2 = WeightedLabeledSet(P.points, P.weights * alpha, P.labels)
    C2 = Coreset(C.points, C.weights * alpha, C.labels)
    assert err_avg(P2, C2, linreg, Q).value == pytest.approx(
        err_avg(P, C, linreg, Q).value, abs=1e-12)
    assert err_opt(P2, C2, linreg) == pytest.approx(
        err_opt(P, C, linreg), rel=1e-8)


def test_err_avg_all_filtered(linreg):
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    with pytest.raises(ContractError, match="^Q_test has no query above the "
                       "ratio floor: all 1 dropped$"):
        err_avg(P, Coreset([[1.0]], [1.0], [0.0]), linreg, np.array([[0.0]]))


def test_sweep_single_cell(linreg):
    P = make_synthetic("linear", 60, 2, 0.3, seed=8)
    rng = np.random.default_rng(9)
    Q = rng.standard_normal((30, 2))
    cfg = TrainConfig(coreset_size=5, epochs=5, batch_size=10,
                      learning_rate=0.02, lam=1.0, seed=0)
    table = sweep(P, linreg, [5], ["uniform"], 1, 0, Q[:20], Q[20:25], Q[25:],
                  cfg)
    assert len(table.rows) == 1
    assert table.rows[0]["ok"]


def test_sweep_uniform_full_size_near_zero(linreg):
    # m = n resamples the whole set: only with-replacement noise remains,
    # which shrinks like 1/sqrt(n)
    P = make_synthetic("linear", 1000, 2, 0.3, seed=10)
    rng = np.random.default_rng(11)
    Q = rng.standard_normal((30, 2))
    cfg = TrainConfig(coreset_size=5, epochs=2, batch_size=10,
                      learning_rate=0.02, seed=0)
    table = sweep(P, linreg, [1000], ["uniform"], 10, 3, Q[:20], Q[20:25],
                  Q[25:], cfg)
    agg = table.aggregate()
    assert agg[0]["err_avg_mean"] <= 0.05


def test_sweep_deterministic(linreg):
    P = make_synthetic("linear", 50, 2, 0.3, seed=12)
    rng = np.random.default_rng(13)
    Q = rng.standard_normal((40, 2))
    cfg = TrainConfig(coreset_size=5, epochs=5, batch_size=10,
                      learning_rate=0.02, seed=0)
    args = (P, linreg, [8], ["learned", "uniform"], 2, 5,
            Q[:30], Q[30:35], Q[35:], cfg)
    t1 = sweep(*args)
    t2 = sweep(*args)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1["err_opt"] == r2["err_opt"]
        assert r1["err_avg"] == r2["err_avg"]


def test_aggregate_self_consistency():
    table = ResultTable()
    vals = [0.1, 0.2, 0.7]
    for t, v in enumerate(vals):
        table.add(size=10, method="uniform", trial=t, err_opt=v, err_avg=v * 2,
                  filtered_queries=0, wall_time_s=0.0, ok=True, error=None)
    agg = table.aggregate()[0]
    assert agg["err_opt_mean"] == pytest.approx(np.mean(vals), abs=1e-12)
    assert agg["err_avg_mean"] == pytest.approx(np.mean(vals) * 2, abs=1e-12)
    assert agg["err_opt_std"] == pytest.approx(np.std(vals, ddof=1), abs=1e-12)


def test_sweep_records_failures(linreg):
    # leverage sampling needs d <= n; a 1-point, 2-d dataset breaks it
    P = WeightedLabeledSet([[1.0, 2.0]], [1.0], [3.0])
    Q = np.array([[0.5, 0.5], [1.0, -1.0]])
    cfg = TrainConfig(coreset_size=1, epochs=2, batch_size=1,
                      learning_rate=0.02, seed=0)
    with pytest.warns(UserWarning, match="trial failed"):
        table = sweep(P, linreg, [1], ["leverage"], 1, 0, Q, None, Q, cfg)
    assert not table.rows[0]["ok"]
    agg = table.aggregate()[0]
    assert agg["flagged"]


METHODS = ["learned", "uniform", "leverage"]


def _public_row(P, loss, size, method, trial, base_seed, splits, cfg):
    """One sweep cell rebuilt from the public functions: its row's values
    and, for a learned cell, its training report."""
    Q_train, Q_val, Q_test = splits
    seed = _cell_seed(base_seed, size, method, trial)
    report = None
    try:
        if method == "learned":
            coreset, report = train(P, Q_train, Q_val, loss,
                                    replace(cfg, coreset_size=size, seed=seed))
        elif method == "uniform":
            coreset = uniform_coreset(P, size, seed)
        else:
            coreset = leverage_coreset(P, size, seed)
        e_opt = err_opt(P, coreset, loss)
        e_avg = err_avg(P, coreset, loss, Q_test)
    except Exception as exc:  # noqa: BLE001 - the sweep records it too
        return dict(err_opt=None, err_avg=None, filtered_queries=None,
                    ok=False, error=str(exc)), report
    return dict(err_opt=e_opt, err_avg=e_avg.value,
                filtered_queries=e_avg.filtered, ok=True, error=None), report


@pytest.mark.parametrize("kind", ["linear", "logistic"])
@pytest.mark.parametrize("algorithm", ["practical", "average"])
def test_sweep_matches_public_calls(kind, algorithm):
    loss = LossModel(f"{kind}_regression")
    P = make_synthetic(kind, 80, 2, 0.5, seed=21)
    Q = np.random.default_rng(22).standard_normal((45, 2))
    splits = (Q[:30], Q[30:37], Q[37:])
    cfg = TrainConfig(epochs=4, batch_size=10, learning_rate=0.05, lam=1.0,
                      algorithm=algorithm)
    table, reports = sweep(P, loss, [12, 20], METHODS, 2, 7, *splits, cfg,
                           collect_reports=True)
    assert len(table.rows) == 12
    for row in table.rows:
        expected, report = _public_row(P, loss, row["size"], row["method"],
                                       row["trial"], 7, splits, cfg)
        assert {key: row[key] for key in expected} == expected
        if report is not None:
            got = reports[row["size"], row["method"], row["trial"]]
            assert got.train_losses == report.train_losses
            assert got.val_errors == report.val_errors
            assert got.best_epoch == report.best_epoch


class _WorkOnP:
    """Counts, per split, the LossModel.costs calls that score one split on
    P's points, and the baselines.solve_optimal calls on P."""

    def __init__(self, monkeypatch, splits):
        self.P = None
        self.scored = Counter()
        self.solved = Counter()
        costs, solve = LossModel.costs, baselines.solve_optimal

        def counting_costs(model, points, labels, weights, queries):
            if self.P is not None and points is self.P.points:
                for name, split in splits.items():
                    self.scored[name] += np.array_equal(queries, split)
            return costs(model, points, labels, weights, queries)

        def counting_solve(dataset, loss, *args, **kwargs):
            self.solved["P"] += self.P is not None and dataset.points is self.P.points
            return solve(dataset, loss, *args, **kwargs)

        monkeypatch.setattr(LossModel, "costs", counting_costs)
        monkeypatch.setattr(baselines, "solve_optimal", counting_solve)

    def watch(self, P):
        self.P = P
        self.scored.clear()
        self.solved.clear()
        return P


def _scoring_splits():
    Q = np.random.default_rng(24).standard_normal((40, 2))
    return {"train": Q[:25], "val": Q[25:32], "test": Q[32:]}


def test_sweep_scores_each_split_and_solves_the_data_once(linreg, monkeypatch):
    splits = _scoring_splits()
    work = _WorkOnP(monkeypatch, splits)
    for algorithm in ("practical", "average"):
        # a fresh P per case: P keeps what the first case computed on it
        P = work.watch(make_synthetic("linear", 60, 2, 0.3, seed=23))
        cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0,
                          algorithm=algorithm)
        table = sweep(P, linreg, [6, 9], METHODS, 2, 3, splits["train"],
                      splits["val"], splits["test"], cfg)
        assert len(table.rows) == 12 and all(row["ok"] for row in table.rows)
        assert +work.scored == {"train": 1, "val": 1, "test": 1}
        assert work.solved == {"P": 1}


def _logged(monkeypatch, log, module, name, line=None):
    """Wrap module.name, as a tracer wraps it, to append one line per call
    to the file log: its name, or line(). A file, because a sweep's forked
    workers call it too."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{name if line is None else line()}\n")
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def _lines(log):
    return Counter(log.read_text().split()) if log.exists() else Counter()


def test_workers_read_the_work_kept_before_the_cells(linreg, monkeypatch,
                                                     tmp_path):
    """Across every process a sweep runs cells in, each split is scored on
    P once and P is solved once: forked workers inherit what the sweep kept
    on P before the cells started."""
    log = tmp_path / "work.log"
    splits = _scoring_splits()
    P = make_synthetic("linear", 60, 2, 0.3, seed=23)
    costs, solve = LossModel.costs, baselines.solve_optimal

    def note(line):
        with open(log, "a") as fh:
            fh.write(f"{line}\n")

    def counting_costs(model, points, labels, weights, queries):
        if points is P.points:
            note(next((name for name, split in splits.items()
                       if np.array_equal(queries, split)), "one-query"))
        return costs(model, points, labels, weights, queries)

    def counting_solve(dataset, loss, *args, **kwargs):
        if dataset.points is P.points:
            note("solve")
        return solve(dataset, loss, *args, **kwargs)

    monkeypatch.setattr(LossModel, "costs", counting_costs)
    monkeypatch.setattr(baselines, "solve_optimal", counting_solve)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    table = sweep(P, linreg, [6, 9], METHODS, 2, 3, splits["train"],
                  splits["val"], splits["test"], cfg)
    assert all(row["ok"] for row in table.rows)
    # one-query costs: f(P, q*) once, and each cell's err_opt at its
    # coreset's optimum
    assert _lines(log) == {"train": 1, "val": 1, "test": 1, "solve": 1,
                           "one-query": 1 + 12}


def test_public_calls_on_one_set_score_each_split_and_solve_once(linreg,
                                                                 monkeypatch):
    splits = _scoring_splits()
    work = _WorkOnP(monkeypatch, splits)
    P = work.watch(make_synthetic("linear", 60, 2, 0.3, seed=23))
    cfg = TrainConfig(coreset_size=6, epochs=2, batch_size=10,
                      learning_rate=0.02, seed=0)
    for _ in range(2):
        # fresh arrays of the same content: the kept costs are found by value
        train_q, val_q, test_q = (splits[name].copy()
                                  for name in ("train", "val", "test"))
        coreset, _ = train(P, train_q, val_q, linreg, cfg)
        err_avg(P, coreset, linreg, test_q)
        err_opt(P, coreset, linreg)
        err_opt(P, uniform_coreset(P, 6, 1), linreg)
    assert work.scored == {"train": 1, "val": 1, "test": 1}
    assert work.solved == {"P": 1}


def test_sweep_calls_the_public_operations_once_per_cell(linreg, monkeypatch,
                                                         tmp_path):
    """Every cell that gets there calls train (learned cells), then err_opt,
    then err_avg, in whichever process runs it."""
    log = tmp_path / "calls.log"
    for module, name in ((learner, "train"), (evaluate, "err_opt"),
                         (evaluate, "err_avg")):
        _logged(monkeypatch, log, module, name)
    P = make_synthetic("linear", 60, 2, 0.3, seed=23)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    table = sweep(P, linreg, [6, 9], METHODS, 2, 3, splits["train"],
                  splits["val"], splits["test"], cfg)
    assert all(row["ok"] for row in table.rows)
    assert _lines(log) == {"train": 4, "err_opt": 12, "err_avg": 12}

    # a cell that fails in err_opt never reaches err_avg
    log.unlink()
    flat = WeightedLabeledSet([[1.0], [2.0]], [0.5, 0.5], [1.0, 2.0])
    Q = np.array([[0.5], [1.5], [3.0]])
    with pytest.warns(UserWarning, match="trial failed"):
        table = sweep(flat, linreg, [1], METHODS, 1, 0, Q, None, Q,
                      replace(cfg, batch_size=1))
    assert [row["error"] for row in table.rows] == [
        "full-data optimum cost is zero; optimal-solution error undefined"] * 3
    assert _lines(log) == {"train": 1, "err_opt": 3}


def test_failed_scoring_is_raised_again(linreg, monkeypatch):
    P = make_synthetic("linear", 30, 2, 0.3, seed=5)
    Q = np.random.default_rng(6).standard_normal((8, 2))
    costs = LossModel.costs
    failing = [True]

    def flaky_costs(model, points, labels, weights, queries):
        if failing[0] and points is P.points:
            raise RuntimeError("scoring failed")
        return costs(model, points, labels, weights, queries)

    monkeypatch.setattr(LossModel, "costs", flaky_costs)
    C = uniform_coreset(P, 5, 0)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="scoring failed"):
            err_avg(P, C, linreg, Q)
    failing[0] = False
    assert err_avg(P, C, linreg, Q) == err_avg(
        make_synthetic("linear", 30, 2, 0.3, seed=5), C, linreg, Q)


def _separable():
    """Separable logistic data, with moderate queries (full-data costs well
    above the ratio floor) and queries so far along the separating
    direction that every full-data cost underflows below it."""
    rng = np.random.default_rng(25)
    X = rng.standard_normal((80, 2))
    X[:, 0] += np.where(X[:, 0] >= 0, 0.5, -0.5)
    P = WeightedLabeledSet(X, np.full(80, 1.0 / 80), np.sign(X[:, 0]))
    moderate = rng.standard_normal((30, 2))
    far = np.column_stack([rng.uniform(2000.0, 3000.0, 30), np.zeros(30)])
    return P, moderate, far


@pytest.mark.parametrize("methods, n_trials, match", [
    (["uniform"], 2.0, "n_trials must be an integer"),
    (["uniform"], True, "n_trials must be an integer"),
    (["uniform"], 0, "n_trials must be >= 1"),
    (["uniform"], -1, "n_trials must be >= 1"),
    (["uniform", "bogus", "learned"], 1, r"unknown sweep methods: \['bogus'\]"),
], ids=["float", "bool", "zero", "negative", "unknown-method"])
def test_sweep_rejects_bad_input_before_any_work(linreg, monkeypatch, methods,
                                                 n_trials, match):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started work")

    monkeypatch.setattr(baselines, "uniform_coreset", no_work)
    monkeypatch.setattr(baselines, "solve_optimal", no_work)
    P = make_synthetic("linear", 30, 2, 0.3, seed=8)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=match):
            sweep(P, linreg, [5], methods, n_trials, 0, splits["train"],
                  splits["val"], splits["test"], cfg)


@pytest.mark.parametrize("sizes, methods, repeats", [
    ([5, 5], ["uniform", "learned"], "[5]"),
    ([5, np.int64(5), 6], ["uniform"], "[5]"),
    ([5], ["uniform", "learned", "uniform"], "['uniform']"),
    ([6, 5, 6, 5], ["leverage", "leverage"], "[5, 6, 'leverage']"),
], ids=["size", "size-numpy-int", "method", "both"])
def test_sweep_rejects_repeated_sizes_and_methods(linreg, monkeypatch, sizes,
                                                  methods, repeats):
    """A size or method given twice would run its cells twice on the same
    seeds, and aggregate would count them as extra trials: sweep names the
    repeats in a ContractError before any work."""
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started work")

    for module, name in ((evaluate, "_keep_shared_work"),
                         (evaluate, "_cell_seed"), (learner, "train"),
                         (baselines, "uniform_coreset")):
        monkeypatch.setattr(module, name, no_work)
    P = make_synthetic("linear", 30, 2, 0.3, seed=8)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    match = re.escape(f"sizes and methods must not repeat, got {repeats}")
    with pytest.raises(ContractError, match=f"^{match}$"):
        sweep(P, linreg, sizes, methods, 1, 0, splits["train"], splits["val"],
              splits["test"], cfg)


@pytest.mark.parametrize("split, value, match", [
    ("test", [[0.5, 0.5], [1.0]],
     "^Q_test query 1 has dimension 1, query 0 has 2"),
    ("test", None, r"^Q_test must be a \(k, d'\) matrix, got shape \(\)"),
    ("train", None, r"^Q_train must be a \(k, d'\) matrix, got shape \(\)"),
    ("test", np.ones((4, 3)), "^Q_test query dim 3 does not match feature dim 2"),
    ("test", [], "^Q_test holds no queries$"),
    ("train", np.zeros((0, 2)), "^Q_train holds no queries$"),
], ids=["ragged-test", "none-test", "none-train-learned", "width-3-test",
        "empty-test", "empty-train-learned"])
def test_sweep_rejects_bad_splits_before_any_cell(linreg, monkeypatch, split,
                                                  value, match):
    """A split the cells read is read once, in the shared work on P, before
    any cell: a bad one is one ContractError naming it, not a failed row
    per cell."""
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started work")

    for module, name in ((evaluate, "_cell_seed"), (learner, "train"),
                         (baselines, "uniform_coreset")):
        monkeypatch.setattr(module, name, no_work)
    P = make_synthetic("linear", 30, 2, 0.3, seed=8)
    splits = {**_scoring_splits(), split: value}
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=match):
            sweep(P, linreg, [6, 9], ["learned", "uniform"], 2, 0,
                  splits["train"], splits["val"], splits["test"], cfg)


def test_sweep_reads_only_the_splits_its_methods_score(linreg):
    """Without a learned method the training splits are not read; with one,
    Q_val may be None. A Q_test with no queries is a ContractError."""
    P = make_synthetic("linear", 30, 2, 0.3, seed=8)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    table = sweep(P, linreg, [6], ["uniform"], 1, 0, None, [[1.0]],
                  splits["test"], cfg)
    assert [row["ok"] for row in table.rows] == [True]
    table = sweep(P, linreg, [6], ["learned"], 1, 0, splits["train"], None,
                  splits["test"], cfg)
    assert [row["ok"] for row in table.rows] == [True]
    with pytest.raises(ContractError, match="^Q_test holds no queries$"):
        sweep(P, linreg, [6], ["uniform"], 1, 0, None, None, [], cfg)


def _sweep_outputs(monkeypatch, tmp_path, cpus, args):
    """All that a sweep over `cpus` usable CPUs returns and warns, but its
    timings, and the processes its cells ran in."""
    log = tmp_path / f"pids-{cpus}.log"
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: cpus)
    with monkeypatch.context() as patch:
        _logged(patch, log, evaluate, "_cell_seed", line=os.getpid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table, reports = sweep(*args, collect_reports=True)
    assert multiprocessing.active_children() == []
    rows = [{k: v for k, v in row.items() if k != "wall_time_s"}
            for row in table.rows]
    kept = {}
    for cell, report in reports.items():
        final = report.final_coreset
        assert not any(a.flags.writeable
                       for a in (final.points, final.weights, final.labels))
        kept[cell] = (report.to_dict(), final.points.tobytes(),
                      final.weights.tobytes(), final.labels.tobytes())
    shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    return (rows, kept, shown), _lines(log)


def _learning_sweep(kind, algorithm):
    loss = LossModel(f"{kind}_regression")
    P = make_synthetic(kind, 80, 2, 0.5, seed=21)
    Q = np.random.default_rng(22).standard_normal((45, 2))
    cfg = TrainConfig(epochs=4, batch_size=10, learning_rate=0.05, lam=1.0,
                      algorithm=algorithm)
    return (P, loss, [12, 20], METHODS, 2, 7, Q[:30], Q[30:37], Q[37:], cfg)


def _failing_sweep():
    # test_sweep_records_failures' 1-point set: leverage sampling fails on it
    P = WeightedLabeledSet([[1.0, 2.0]], [1.0], [3.0])
    Q = np.array([[0.5, 0.5], [1.0, -1.0]])
    cfg = TrainConfig(coreset_size=1, epochs=2, batch_size=1,
                      learning_rate=0.02, seed=0)
    return (P, LossModel("linear_regression"), [1], ["uniform", "leverage"], 2,
            0, Q, None, Q, cfg)


@pytest.mark.parametrize("make", [
    lambda: _learning_sweep("linear", "practical"),
    lambda: _learning_sweep("logistic", "average"),
    _failing_sweep,
], ids=["linear-practical", "logistic-average", "failing-cell"])
def test_parallel_sweep_equals_serial(monkeypatch, tmp_path, make):
    serial, pids = _sweep_outputs(monkeypatch, tmp_path, 1, make())
    assert set(pids) == {str(os.getpid())}
    rows = serial[0]
    if make is _failing_sweep:
        # cells 1 and 3 make the second share, a worker's
        assert not rows[3]["ok"] and rows[3]["method"] == "leverage"
        assert any("trial failed (1, leverage, 1)" in w[0] for w in serial[2])
    for cpus in (2, 3):
        parallel, pids = _sweep_outputs(monkeypatch, tmp_path, cpus, make())
        assert len(pids) == cpus and sum(pids.values()) == len(rows)
        assert parallel == serial


@pytest.mark.parametrize("cpus", [2, 3])
def test_only_results_cross_the_process_boundary(monkeypatch, tmp_path, cpus):
    """A forked worker inherits P and the splits instead of receiving them:
    the only sets it pickles are the final coresets in its learned cells'
    reports, which it sends back."""
    log = tmp_path / "reduced.log"
    P, loss, sizes, _, n_trials, *rest = _learning_sweep("linear", "practical")
    methods = ["learned", "uniform"]
    reduce = WeightedLabeledSet.__reduce__

    def digest(s):
        return hashlib.sha256(s.points.tobytes() + s.weights.tobytes()
                              + s.labels.tobytes()).hexdigest()

    def logged(self):
        with open(log, "a") as fh:
            fh.write(f"{digest(self)}\n")
        return reduce(self)

    monkeypatch.setattr(WeightedLabeledSet, "__reduce__", logged)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: cpus)
    _, reports = sweep(P, loss, sizes, methods, n_trials, *rest,
                       collect_reports=True)
    cells = [(size, method, trial) for size in sizes for method in methods
             for trial in range(n_trials)]
    sent = [digest(reports[cell].final_coreset)
            for i, cell in enumerate(cells) if i % cpus and cell in reports]
    assert sent and len(reports) == len(cells) // 2
    assert digest(P) not in _lines(log)
    assert _lines(log) == Counter(sent)


def test_a_dead_worker_is_an_error_not_a_hang(linreg, monkeypatch):
    parent = os.getpid()
    uniform = baselines.uniform_coreset

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return uniform(*args, **kwargs)

    monkeypatch.setattr(baselines, "uniform_coreset", dying)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
    P = make_synthetic("linear", 60, 2, 0.3, seed=23)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    t0 = time.monotonic()
    with pytest.raises(evaluate.WorkerLostError) as lost:
        sweep(P, linreg, [6], ["uniform"], 2, 3, splits["train"],
              splits["val"], splits["test"], cfg)
    assert time.monotonic() - t0 < 30
    assert "(6, 'uniform', 1)" in str(lost.value)
    assert "(6, 'uniform', 0)" not in str(lost.value)
    assert multiprocessing.active_children() == []


def test_a_workers_exception_is_raised_in_the_sweep(linreg, monkeypatch):
    parent = os.getpid()
    uniform = baselines.uniform_coreset

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("worker cell failed")
        return uniform(*args, **kwargs)

    monkeypatch.setattr(baselines, "uniform_coreset", failing)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
    P = make_synthetic("linear", 60, 2, 0.3, seed=23)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    with warnings.catch_warnings():
        # the failed cell's warning is an error, which ends the worker's share
        warnings.simplefilter("error")
        with pytest.raises(UserWarning,
                           match=r"trial failed \(6, uniform, 1\): worker cell"):
            sweep(P, linreg, [6], ["uniform"], 2, 3, splits["train"],
                  splits["val"], splits["test"], cfg)
    assert multiprocessing.active_children() == []


# each entry that averages over a query set, or bounds by one, with the set
# it names: (entry, set, whether it takes a ratio average over the set)
_AVERAGED = [("err_avg", "Q_test", True), ("train-practical", "Q_train", True),
             ("train-average", "Q_train", True),
             ("sweep-uniform", "Q_test", True), ("sweep-learned", "Q_test", True),
             ("sweep-learned", "Q_train", True),
             ("estimate_M", "query_pool", False),
             ("MeasurableQuerySpace", "universe", False)]


@pytest.mark.parametrize("entry, name, case", [
    (entry, name, case) for entry, name, ratio in _AVERAGED
    for case in ("empty", "floored") if ratio or case == "empty"],
    ids=lambda v: v)
def test_a_query_set_with_nothing_to_average_is_rejected(logreg, monkeypatch,
                                                         entry, name, case):
    """No average is taken over a query set with no queries, nor a ratio
    average over one with no query above the ratio floor: one ContractError
    naming the set (core.split_matrix, core.floored_split), from every
    entry. The sweep raises it before any cell runs."""
    ran = []
    for module, attr in ((learner, "train"), (baselines, "uniform_coreset"),
                         (baselines, "leverage_coreset")):
        monkeypatch.setattr(module, attr, lambda *a, **k: ran.append(a))
    P, moderate, far = _separable()
    bad = np.zeros((0, 2)) if case == "empty" else far
    splits = {"Q_train": moderate, "Q_val": moderate[:5], "Q_test": moderate,
              name: bad}
    C = Coreset(P.points[:4], np.full(4, 0.25), P.labels[:4])
    cfg = TrainConfig(coreset_size=4, epochs=1, algorithm="average"
                      if entry == "train-average" else "practical")
    methods = ["learned", "uniform"] if entry == "sweep-learned" else METHODS[1:]
    calls = {
        "err_avg": lambda: err_avg(P, C, logreg, bad),
        "train": lambda: train(P, bad, moderate[:5], logreg, cfg),
        "sweep": lambda: sweep(P, logreg, [4], methods, 1, 0, splits["Q_train"],
                               splits["Q_val"], splits["Q_test"], cfg),
        "estimate_M": lambda: estimate_M(P, logreg, bad),
        "MeasurableQuerySpace": lambda: MeasurableQuerySpace(
            P, logreg, bad, [1.0]),
    }
    match = (f"^{name} holds no queries$" if case == "empty" else
             f"^{name} has no query above the ratio floor: all 30 dropped$")
    with pytest.raises(ContractError, match=match):
        calls[entry.partition("-")[0]]()
    assert ran == []


@pytest.mark.parametrize("data_dim, coreset_dim", [(2, 3), (3, 2)])
@pytest.mark.parametrize("entry", ["err_avg", "err_opt", "verify_claim2"])
def test_a_coreset_of_another_dimension_is_rejected_before_any_work(
        linreg, monkeypatch, entry, data_dim, coreset_dim):
    """A coreset whose points have another dimension than the data's is one
    ContractError naming both dimensions, raised before any solve or
    scoring, not a query width error naming the queries."""
    P = make_synthetic("linear", 30, data_dim, 0.3, seed=8)
    C = Coreset(np.ones((4, coreset_dim)), np.full(4, 0.25), np.ones(4))
    Q = np.random.default_rng(8).standard_normal((5, data_dim))
    space = MeasurableQuerySpace(P, linreg, Q, np.full(5, 0.2))
    calls = {"err_avg": lambda: err_avg(P, C, linreg, Q),
             "err_opt": lambda: err_opt(P, C, linreg),
             "verify_claim2": lambda: verify_claim2(P, C, space, 0.5, 0.1)}

    def no_work(*args, **kwargs):
        raise AssertionError("a solve or a scoring started")

    monkeypatch.setattr(LossModel, "costs", no_work)
    monkeypatch.setattr(baselines, "solve_optimal", no_work)
    match = re.escape(f"coreset points have dimension {coreset_dim}, "
                      f"the data's have {data_dim}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=f"^{match}$"):
            calls[entry]()


def _rank_deficient_sweep():
    """A sweep on data whose first feature column is repeated: each cell
    that samples by leverage, and each coreset solve, warns."""
    rng = np.random.default_rng(29)
    X = rng.standard_normal((60, 2))
    P = WeightedLabeledSet(X[:, [0, 0, 1]], np.full(60, 1.0 / 60),
                           X @ [1.0, -2.0] + 0.1 * rng.standard_normal(60))
    Q = rng.standard_normal((20, 3))
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    return (P, LossModel("linear_regression"), [5, 6], ["leverage", "uniform"],
            2, 0, Q[:10], None, Q[10:], cfg)


@pytest.mark.parametrize("action", ["default", "module", "once", "always"])
def test_sweep_warnings_do_not_depend_on_the_cpu_count(monkeypatch, action):
    """Every cell's warnings go once, in cell order, through the caller's
    filters with one registry for the sweep: over 1, 2 or 3 CPUs the sweep
    shows the same warnings, and a filter that shows a warning once shows
    one that several cells raise once."""
    shown = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            table = sweep(*_rank_deficient_sweep())
        assert all(row["ok"] for row in table.rows)
        shown.append([(str(w.message), w.category, w.filename, w.lineno)
                      for w in caught])
    assert shown[0] and shown[1] == shown[0] and shown[2] == shown[0]
    # raised by each of the 4 leverage cells, and only there
    leverage = sum(message.startswith("rank-deficient data matrix")
                   for message, *_ in shown[0])
    assert leverage == (4 if action == "always" else 1)


def test_sweep_shows_warnings_under_the_filters_of_their_module(monkeypatch):
    """A warning is matched to the filters by the module that raised it
    when the sweep shows it, as when the cell raised it: warnings made
    errors elsewhere but shown from corelearn fail no cell."""
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.filterwarnings("default", module="corelearn")
        table = sweep(*_rank_deficient_sweep())
    assert all(row["ok"] for row in table.rows)
    assert any("rank-deficient" in str(w.message) for w in caught)


def test_sweep_shows_a_warning_from_code_of_no_module(linreg, monkeypatch):
    """A warning from code that no loaded module holds, such as code
    compiled from a string, is shown too."""
    uniform = baselines.uniform_coreset
    code = compile("warnings.warn('from generated code')", "<generated>",
                   "exec")

    def generating(*args, **kwargs):
        exec(code, {"warnings": warnings})
        return uniform(*args, **kwargs)

    monkeypatch.setattr(baselines, "uniform_coreset", generating)
    P = make_synthetic("linear", 60, 2, 0.3, seed=23)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    with pytest.warns(UserWarning, match="^from generated code$") as caught:
        sweep(P, linreg, [6], ["uniform"], 1, 3, splits["train"],
              splits["val"], splits["test"], cfg)
    assert [w.filename for w in caught] == ["<generated>"]


def test_an_interrupt_here_stops_the_workers_at_once(linreg, monkeypatch):
    """A KeyboardInterrupt in a cell this process runs is raised while a
    worker's cell still runs: the sweep stops the worker, not waits."""
    parent = os.getpid()

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(baselines, "uniform_coreset", interrupted)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
    P = make_synthetic("linear", 60, 2, 0.3, seed=23)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sweep(P, linreg, [6], ["uniform"], 2, 3, splits["train"],
              splits["val"], splits["test"], cfg)
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failure_in_the_shared_work_is_recorded_in_every_cell(
        linreg, monkeypatch, cpus):
    """Scoring on P fails before the cells start and is not kept: every
    cell meets the failure again and records it in its row."""
    P = make_synthetic("linear", 60, 2, 0.3, seed=23)
    costs = LossModel.costs

    def failing(model, points, labels, weights, queries):
        if points is P.points:
            raise RuntimeError("data costs failed")
        return costs(model, points, labels, weights, queries)

    monkeypatch.setattr(LossModel, "costs", failing)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: cpus)
    splits = _scoring_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.02, seed=0)
    with pytest.warns(UserWarning, match="trial failed"):
        table = sweep(P, linreg, [6, 9], METHODS, 1, 3, splits["train"],
                      splits["val"], splits["test"], cfg)
    failed = (False, "data costs failed", None, None)
    assert [(row["ok"], row["error"], row["err_opt"], row["err_avg"])
            for row in table.rows] == [failed] * 6
