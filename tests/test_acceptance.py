"""Acceptance suite: one test per release criterion, with a PASS line each.

The reproduction tests are scaled-down synthetic versions of the full
protocol; they assert qualitative orderings (learned below the sampling
baselines) rather than absolute figure values.
"""

import time

import numpy as np
import pytest

from conftest import central_diff, rel_close
from corelearn import (
    Coreset,
    MeasurableQuerySpace,
    Query,
    TrainConfig,
    WeightedLabeledSet,
    claim2_k,
    err_avg,
    err_opt,
    hoeffding_k,
    iid_sample,
    make_synthetic,
    set_cost,
    split_queries,
    sweep,
    train,
    trajectory_queries,
    uniform_coreset,
    verify_claim1,
    verify_claim2,
)
from corelearn.cli import run_experiment
from corelearn.learner import autocl_average, autocl_practical
from corelearn.losses import LossModel


def _report(name, detail=""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


# -- criterion 1: gradient suite ----------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    m, d, k = 3, 2, 4
    checked = 0
    for kind in ("linear_regression", "logistic_regression"):
        loss = LossModel(kind)
        P_pts = rng.standard_normal((6, d))
        P_w = rng.random(6)
        P_w /= P_w.sum()
        P_lab = (np.where(rng.random(6) < 0.5, -1.0, 1.0)
                 if kind == "logistic_regression" else rng.standard_normal(6))
        P = WeightedLabeledSet(P_pts, P_w, P_lab)
        qm = rng.standard_normal((k, d))
        f_p_vec = P.weights @ loss.pointwise_matrix(P.points, P.labels, qm)
        f_p_avg = float(np.mean(f_p_vec))
        lam = 0.7

        def average_obj(theta):
            pts, lab, wts = theta[:m * d].reshape(m, d), theta[m * d:m * d + m], theta[-m:]
            f_c = float(np.mean(wts @ loss.pointwise_matrix(pts, lab, qm)))
            return abs(f_p_avg - f_c) + lam * abs(1.0 - wts.sum())

        def practical_obj(theta):
            pts, lab, wts = theta[:m * d].reshape(m, d), theta[m * d:m * d + m], theta[-m:]
            f_c = wts @ loss.pointwise_matrix(pts, lab, qm)
            return float(np.sum(np.abs(1.0 - f_c / f_p_vec))) + lam * abs(1.0 - wts.sum())

        for _ in range(50):
            theta = rng.standard_normal(m * d + 2 * m)
            theta[-m:] = rng.random(m) + 0.2
            pts = theta[:m * d].reshape(m, d).copy()
            lab = theta[m * d:m * d + m].copy()
            wts = theta[-m:].copy()
            pen_sign = np.sign(1.0 - wts.sum())

            # average objective
            coeffs = np.full(k, 1.0 / k)
            costs, dp, dl, dw = loss.weighted_grads(pts, lab, wts, qm, coeffs)
            s = np.sign(f_p_avg - float(np.mean(costs)))
            analytic = np.concatenate(
                [(-s * dp).ravel(), -s * dl, -s * dw - lam * pen_sign])
            numeric = central_diff(average_obj, theta)
            assert rel_close(analytic, numeric, rtol=1e-4, floor=1e-8)

            # practical objective
            f_c = wts @ loss.pointwise_matrix(pts, lab, qm)
            coeffs = np.sign(1.0 - f_c / f_p_vec) * (-1.0 / f_p_vec)
            _, dp, dl, dw = loss.weighted_grads(pts, lab, wts, qm, coeffs)
            analytic = np.concatenate([dp.ravel(), dl, dw - lam * pen_sign])
            numeric = central_diff(practical_obj, theta)
            assert rel_close(analytic, numeric, rtol=1e-4, floor=1e-8)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 1 (gradient suite)",
            f"{checked} configurations x 2 objectives in {elapsed:.1f}s")


# -- criterion 2: fixed point -------------------------------------------


def test_criterion_2_fixed_point():
    rng = np.random.default_rng(1002)
    loss = LossModel("linear_regression")
    w = rng.random(8)
    P = WeightedLabeledSet(rng.standard_normal((8, 2)), w / w.sum(),
                           rng.standard_normal(8))
    qm = rng.standard_normal((6, 2))
    exact = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())

    f_p = np.array([set_cost(P, loss, q) for q in qm])
    f_c = np.array([set_cost(exact, loss, q) for q in qm])
    assert abs(float(np.mean(f_p)) - float(np.mean(f_c))) == 0.0  # average obj
    assert float(np.sum(np.abs(1.0 - f_c / f_p))) == 0.0  # practical obj
    assert err_opt(P, exact, loss) == pytest.approx(0.0, abs=1e-12)
    assert err_avg(P, exact, loss, qm).value == 0.0
    _report("criterion 2 (exact-copy fixed point)",
            "objectives 0, err_opt = err_avg = 0")


# -- criterion 3: claim 1 verification ------------------------------------


def test_criterion_3_claim1_universes():
    t0 = time.perf_counter()
    loss = LossModel("linear_regression")
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    rng = np.random.default_rng(1003)
    rates = []
    for size in (2, 5, 10):
        qs = tuple(Query([float(v)]) for v in rng.uniform(0.1, 3.0, size))
        mu = rng.random(size)
        mu /= mu.sum()
        space = MeasurableQuerySpace(P, loss, qs, mu)
        costs = np.array([set_cost(P, loss, q.params) for q in qs])
        M = float(np.max(np.abs(costs)))
        res = verify_claim1(space, eps=0.1 * M, delta=0.05, trials=2000,
                            seed=1003 + size)
        assert res.violation_rate <= res.delta + res.slack()
        rates.append(res.violation_rate)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 3 (claim-1 Monte Carlo)",
            f"violation rates {rates} <= 0.05 + slack, {elapsed:.1f}s")


# -- criterion 4: claim 2 pipeline ----------------------------------------


def test_criterion_4_claim2_pipeline():
    loss = LossModel("linear_regression")
    rng = np.random.default_rng(1004)
    w = rng.random(20)
    P = WeightedLabeledSet(rng.standard_normal((20, 2)), w / w.sum(),
                           rng.standard_normal(20))
    qs = tuple(Query(rng.standard_normal(2)) for _ in range(6))
    space = MeasurableQuerySpace(P, loss, qs, np.full(6, 1.0 / 6))
    Q_train = iid_sample(space, 60, seed=4)
    cfg = TrainConfig(coreset_size=6, epochs=400, learning_rate=0.01, lam=1.0,
                      batch_size=60, seed=4, algorithm="average")
    coreset, _ = autocl_average(P, Q_train, None, loss, cfg)

    # measured slacks of the two premises, floored at a fraction of the
    # loss bound so the required sample size stays tractable
    eps1 = abs(float(np.sum(P.weights)) - float(np.sum(coreset.weights)))
    f_p = np.array([set_cost(P, loss, q) for q in Q_train.array])
    f_c = np.array([set_cost(coreset, loss, q) for q in Q_train.array])
    eps2 = abs(float(np.mean(f_p)) - float(np.mean(f_c)))
    qm_u = space.universe
    M = float(max(
        np.max(np.abs(loss.pointwise_matrix(P.points, P.labels, qm_u))),
        np.max(np.abs(loss.pointwise_matrix(
            coreset.points, coreset.labels, qm_u)))))
    eps_hat = max(eps1, eps2, 0.01 * M)

    res = verify_claim2(P, coreset, space, eps=eps_hat, delta=0.05,
                        trials=50, seed=5, M=M)
    assert res.ok, f"premise failed: {res.failed_premise}"
    assert res.expectation_gap < 3.0 * eps_hat + 1e-10
    assert res.violation_rate == 0.0
    _report("criterion 4 (claim-2 pipeline)",
            f"eps_hat={eps_hat:.3e}, expectation gap={res.expectation_gap:.3e} < 3*eps_hat")


# -- criterion 5: ratio-to-difference chain -------------------------------


def test_criterion_5_ratio_bound_chain():
    loss = LossModel("linear_regression")
    rng = np.random.default_rng(1005)
    P = make_synthetic("linear", 300, 2, 0.2, seed=15)
    qm = rng.standard_normal((50, 2))
    cfg = TrainConfig(coreset_size=8, epochs=150, learning_rate=0.01, lam=1.0,
                      batch_size=10, seed=6, algorithm="practical")
    coreset, _ = autocl_practical(P, qm, None, loss, cfg)

    f_p = P.weights @ loss.pointwise_matrix(P.points, P.labels, qm)
    f_c = coreset.weights @ loss.pointwise_matrix(
        coreset.points, coreset.labels, qm)
    eps_ratio = float(np.mean(np.abs(1.0 - f_c / f_p)))
    M_hat = float(np.max(np.abs(f_p)))
    eps_diff = eps_ratio * M_hat
    gap = abs(float(np.mean(f_p)) - float(np.mean(f_c)))
    assert gap <= eps_diff + 1e-10
    _report("criterion 5 (ratio-to-difference chain)",
            f"gap={gap:.3e} <= eps'*M={eps_diff:.3e}")


# -- criterion 6: sample-size calculators ---------------------------------


def test_criterion_6_calculators():
    assert hoeffding_k(0.1, 0.05, 1.0) == 738
    assert claim2_k(0.1, 0.05, 1.0) == 893
    for f in (hoeffding_k, claim2_k):
        assert f(0.05, 0.05, 1.0) >= f(0.1, 0.05, 1.0) >= f(0.2, 0.05, 1.0)
        assert f(0.1, 0.01, 1.0) >= f(0.1, 0.05, 1.0) >= f(0.1, 0.2, 1.0)
        assert f(0.1, 0.05, 0.5) <= f(0.1, 0.05, 1.0) <= f(0.1, 0.05, 2.0)
    _report("criterion 6 (sample-size calculators)", "k1=738, k2=893, monotone")


# -- criterion 7: uniform unbiasedness ------------------------------------


def test_criterion_7_uniform_unbiasedness():
    loss = LossModel("linear_regression")
    P = make_synthetic("linear", 100, 2, 0.3, seed=17)
    rng = np.random.default_rng(1007)
    qm = rng.standard_normal((10, 2))
    f_p = P.weights @ loss.pointwise_matrix(P.points, P.labels, qm)
    acc = np.zeros(10)
    n_seeds = 10_000
    for s in range(n_seeds):
        c = uniform_coreset(P, 20, seed=s)
        acc += c.weights @ loss.pointwise_matrix(c.points, c.labels, qm)
    mean = acc / n_seeds
    rel = np.abs(mean - f_p) / np.abs(f_p)
    assert np.all(rel <= 0.01)
    _report("criterion 7 (uniform unbiasedness)",
            f"max relative bias {rel.max():.4f} over 10^4 seeds")


# -- criteria 8 and 10: linear-regression reproduction ---------------------


@pytest.fixture(scope="module")
def linreg_repro():
    loss = LossModel("linear_regression")
    P = make_synthetic("linear", 5000, 3, 0.1, seed=100)
    pool = trajectory_queries(P, loss, 20, 119, gd_lr=0.01, init_scale=1.0,
                              seed=101)
    assert pool.shape[0] == 2400
    q_train, q_val, q_test = split_queries(pool, (2000, 200, 200), seed=102)
    cfg = TrainConfig(coreset_size=50, epochs=100, batch_size=25,
                      learning_rate=0.01, lam=1.0, seed=0,
                      algorithm="practical")
    table = sweep(P, loss, [50, 80, 110, 140],
                  ["learned", "uniform", "leverage"], 5, 103,
                  q_train, q_val, q_test, cfg)
    return P, loss, table.aggregate()


def _mean_by(agg, method):
    return {row["size"]: row["err_avg_mean"] for row in agg
            if row["method"] == method}


def test_criterion_8_linreg_ordering(linreg_repro):
    _, _, agg = linreg_repro
    learned = _mean_by(agg, "learned")
    uniform = _mean_by(agg, "uniform")
    leverage = _mean_by(agg, "leverage")
    sizes = sorted(learned)
    beats_uniform = sum(learned[s] < uniform[s] for s in sizes)
    beats_leverage = sum(learned[s] < leverage[s] for s in sizes)
    assert beats_uniform >= 3
    assert beats_leverage >= 2
    _report("criterion 8 (linreg reproduction)",
            f"learned < uniform at {beats_uniform}/4 sizes, "
            f"< leverage at {beats_leverage}/4 sizes; "
            f"learned err_avg={ {s: round(learned[s], 4) for s in sizes} }")


def test_criterion_10_linreg_err_opt(linreg_repro):
    _, _, agg = linreg_repro
    cell = [row for row in agg
            if row["method"] == "learned" and row["size"] == 140][0]
    assert cell["err_opt_mean"] <= 0.05, (
        f"learned err_opt at size 140 = {cell['err_opt_mean']}; "
        "see the sweep's train reports for diagnosis")
    _report("criterion 10 (learned err_opt at size 140)",
            f"{cell['err_opt_mean']:.5f} <= 0.05")


# -- criterion 9: logistic-regression reproduction -------------------------


def test_criterion_9_logreg_ordering():
    t0 = time.perf_counter()
    loss = LossModel("logistic_regression")
    P = make_synthetic("logistic", 5000, 8, 0.3, seed=200)
    pool = trajectory_queries(P, loss, 20, 119, gd_lr=0.5, init_scale=1.0,
                              seed=201)
    q_train, q_val, q_test = split_queries(pool, (2000, 200, 200), seed=202)
    sizes = (100, 300, 500)
    wins = 0
    details = {}
    for size in sizes:
        learned_vals, uniform_vals = [], []
        for trial in range(3):
            cfg = TrainConfig(coreset_size=size, epochs=300, batch_size=100,
                              learning_rate=0.001, lam=0.0,
                              seed=203 + trial, algorithm="practical",
                              learn_weights=False)
            coreset, _ = train(P, q_train, q_val, loss, cfg)
            learned_vals.append(err_avg(P, coreset, loss, q_test).value)
            u = uniform_coreset(P, size, seed=211 + 7 * trial + size)
            uniform_vals.append(err_avg(P, u, loss, q_test).value)
        details[size] = (float(np.mean(learned_vals)), float(np.mean(uniform_vals)))
        if details[size][0] < details[size][1]:
            wins += 1
    elapsed = time.perf_counter() - t0
    assert wins >= 2
    assert elapsed < 15 * 60
    _report("criterion 9 (logreg reproduction)",
            f"learned < uniform at {wins}/3 sizes "
            f"(learned, uniform means: {details}), {elapsed:.0f}s")


# -- criterion 11: determinism ---------------------------------------------


def test_criterion_11_experiment_determinism(tmp_path):
    import json
    cfg = {
        "seed": 21,
        "dataset": {"synth": {"task": "linear", "n": 400, "d": 2, "noise": 0.2}},
        "queries": {"n_starts": 4, "steps_per_start": 49, "split": [150, 25, 25]},
        "learner": {"epochs": 10, "batch_size": 25, "learning_rate": 0.01,
                    "lambda": 1.0},
        "sweep": {"sizes": [10, 20], "methods": ["learned", "uniform", "leverage"],
                  "trials": 2},
        "output": {"dir": str(tmp_path / "ignored")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    run_experiment(path, out_dir=tmp_path / "run1")
    run_experiment(path, out_dir=tmp_path / "run2")
    a = (tmp_path / "run1" / "aggregated.csv").read_bytes()
    b = (tmp_path / "run2" / "aggregated.csv").read_bytes()
    assert a == b
    _report("criterion 11 (experiment determinism)",
            "aggregated CSVs byte-identical across reruns")
