import itertools
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corelearn

from conftest import (SEEDED_SHAPES, central_diff, rel_close, seeded_problem,
                      shape_id)
from corelearn import (
    Coreset,
    TrainConfig,
    WeightedLabeledSet,
    adam_step,
    autocl_average,
    autocl_practical,
    init_coreset,
    project_weights,
    train,
)
from corelearn.core import ContractError
from corelearn.learner import OptimizerState, RATIO_FLOOR
from corelearn.losses import LossModel


def test_adam_single_step():
    p = np.array([0.0])
    state = OptimizerState.for_params(p)
    adam_step(state, p, np.array([1.0]), lr=0.01)
    # bias-corrected first step moves by -lr * 1/(1 + eps)
    assert p[0] == pytest.approx(-0.01 / (1.0 + 1e-8), abs=1e-12)


def test_adam_zero_gradient_keeps_param():
    p = np.array([1.5])
    state = OptimizerState.for_params(p)
    adam_step(state, p, np.array([0.0]), lr=0.1)
    assert p[0] == 1.5


def test_adam_two_identical_steps():
    p = np.array([0.0])
    state = OptimizerState.for_params(p)
    for _ in range(2):
        adam_step(state, p, np.array([1.0]), lr=0.01)
    assert p[0] == pytest.approx(-0.02, abs=1e-4)


def test_project_weights():
    assert np.allclose(project_weights(np.array([0.2, -0.1])), [0.2, 0.0])
    v = np.array([0.3, 0.0, 1.0])
    assert np.array_equal(project_weights(v), v)
    assert np.allclose(project_weights(np.array([-1.0, -2.0])), [0.0, 0.0])


def _random_set(rng, n=12, d=2):
    w = rng.random(n)
    return WeightedLabeledSet(rng.standard_normal((n, d)), w / w.sum(),
                              rng.standard_normal(n))


def test_init_subsample_full_size_is_permutation():
    rng = np.random.default_rng(0)
    P = _random_set(rng, n=8)
    c = init_coreset(P, 8, seed=3)
    assert np.allclose(c.weights, 1.0 / 8)
    got = c.points[np.lexsort(c.points.T)]
    want = P.points[np.lexsort(P.points.T)]
    assert np.allclose(got, want)


def test_init_single_point():
    rng = np.random.default_rng(1)
    P = _random_set(rng, n=5)
    c = init_coreset(P, 1, seed=0)
    assert c.n == 1 and c.weights[0] == 1.0


def test_init_deterministic():
    rng = np.random.default_rng(2)
    P = _random_set(rng)
    a = init_coreset(P, 4, seed=9)
    b = init_coreset(P, 4, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("field, name", [("learning_rate", "learning_rate"),
                                         ("lam", "lambda")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_config_rejects_non_finite_rates(field, name, bad):
    with pytest.raises(ContractError, match=f"{name} must be finite"):
        TrainConfig(**{field: bad})


@pytest.mark.parametrize("field", ["coreset_size", "epochs", "batch_size", "seed"])
@pytest.mark.parametrize("bad", [2.5, True, "3"])
def test_train_config_counts_are_integers(field, bad):
    with pytest.raises(ContractError, match=f"{field} must be an integer"):
        TrainConfig(**{field: bad})
    assert getattr(TrainConfig(**{field: np.int64(3)}), field) == 3


def test_average_fixed_point_zero_loss(linreg):
    rng = np.random.default_rng(4)
    P = _random_set(rng, n=6)
    qm = rng.standard_normal((5, 2))
    cfg = TrainConfig(coreset_size=6, epochs=3, learning_rate=0.01,
                      lam=1.0, batch_size=5, seed=0, algorithm="average")
    coreset, report = autocl_average(P, qm, None, linreg, cfg)
    # cannot force the exact init, so check the invariant directly instead:
    # a coreset equal to the data has objective 0 and zero subgradient
    exact = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    from corelearn.core import set_cost
    f_p = np.mean([set_cost(P, linreg, q) for q in qm])
    f_c = np.mean([set_cost(exact, linreg, q) for q in qm])
    assert abs(f_p - f_c) == 0.0


def _run_fixed_point(monkeypatch, algorithm, loss, P, qm):
    """Training from an exact-copy coreset must stay at the copy, in the
    returned coreset and in the last iterate."""
    cfg = TrainConfig(coreset_size=P.n, epochs=2, learning_rate=0.05, lam=1.0,
                      batch_size=qm.shape[0], seed=0, algorithm=algorithm)

    import corelearn.learner as ln
    exact = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    monkeypatch.setattr(ln, "init_coreset", lambda *a, **k: exact)
    coreset, report = train(P, qm, None, loss, cfg)
    assert all(x == 0.0 for x in report.train_losses)
    for c in (coreset, report.final_coreset):
        assert np.array_equal(c.points, P.points)
        assert np.array_equal(c.weights, P.weights)
        assert np.array_equal(c.labels, P.labels)


def _fixed_point_input():
    rng = np.random.default_rng(5)
    return _random_set(rng, n=4), rng.standard_normal((4, 2))


def test_fixed_point_average(monkeypatch, linreg):
    _run_fixed_point(monkeypatch, "average", linreg, *_fixed_point_input())


def test_fixed_point_practical(monkeypatch, linreg):
    _run_fixed_point(monkeypatch, "practical", linreg, *_fixed_point_input())


# A query's cost comes from weights @ (n, k) losses, whose BLAS reduction can
# round differently with the query's column position. The minibatch ratios
# 1 - f_C/f_P of the exact copy are then ~1e-15 instead of 0; the practical
# objective's dead zone keeps the copy fixed all the same.
@pytest.mark.parametrize("algorithm", ["average", "practical"])
@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
@pytest.mark.parametrize("shape", SEEDED_SHAPES, ids=shape_id)
def test_fixed_point_seeded_shapes(monkeypatch, shape, kind, intercept,
                                   algorithm):
    _run_fixed_point(monkeypatch, algorithm,
                     *seeded_problem(shape, kind, intercept))


def test_practical_identity_ratio_zero(linreg):
    rng = np.random.default_rng(6)
    P = _random_set(rng)
    exact = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    from corelearn.core import set_cost
    for _ in range(5):
        q = rng.standard_normal(2)
        fp = set_cost(P, linreg, q)
        fc = set_cost(exact, linreg, q)
        assert abs(1.0 - fc / fp) == 0.0


def test_practical_hand_ratio_values():
    # f_P = 2, f_C = 1 -> ratio term 0.5
    assert abs(1.0 - 1.0 / 2.0) == 0.5
    # lambda = 1, sums 1 vs 1.2, zero ratio terms -> loss 0.2, recorded as
    # the train loss of a coreset that no step can move
    # f_P = f_C = 1 at q = 2, so the coreset gets a zero gradient
    P = WeightedLabeledSet([[1.0]], [1.0], [1.0])
    exact = Coreset([[1.0], [0.5]], [1.0, 0.2], [1.0, 1.0])
    cfg = TrainConfig(coreset_size=2, epochs=1, learning_rate=0.01, lam=1.0,
                      batch_size=1, seed=0, algorithm="practical",
                      learn_weights=False)
    import corelearn.learner as ln
    orig = ln.init_coreset
    ln.init_coreset = lambda *a, **k: exact
    try:
        _, report = ln.autocl_practical(P, np.array([[2.0]]), None,
                                        LossModel("linear_regression"), cfg)
    finally:
        ln.init_coreset = orig
    assert report.train_losses == [pytest.approx(0.2)]


def test_weights_frozen_when_not_learned(linreg):
    rng = np.random.default_rng(7)
    P = _random_set(rng)
    qm = rng.standard_normal((6, 2))
    cfg = TrainConfig(coreset_size=3, epochs=5, learning_rate=0.05, lam=0.0,
                      batch_size=3, seed=1, algorithm="practical",
                      learn_weights=False)
    _, report = autocl_practical(P, qm, None, linreg, cfg)
    coreset = report.final_coreset
    assert np.allclose(coreset.weights, 1.0 / 3)
    assert coreset.weights.sum() == pytest.approx(1.0, abs=1e-12)

    # frozen weights stay bit-equal to the initial coreset's in the last
    # iterate, for both objectives, while the points move
    init = init_coreset(P, 3, seed=1)
    for algorithm in ("practical", "average"):
        cfg = TrainConfig(coreset_size=3, epochs=5, learning_rate=0.05,
                          lam=1.0, batch_size=3, seed=1, algorithm=algorithm,
                          learn_weights=False)
        if algorithm == "practical":
            _, report = autocl_practical(P, qm, None, linreg, cfg)
        else:
            _, report = autocl_average(P, qm, None, linreg, cfg)
        coreset = report.final_coreset
        assert np.array_equal(coreset.weights, init.weights)
        assert not np.array_equal(coreset.points, init.points)


def test_average_scores_after_the_step(linreg):
    """epochs=1 returns the trained state, not the init."""
    rng = np.random.default_rng(13)
    P = _random_set(rng)
    qm = rng.standard_normal((6, 2))
    cfg = TrainConfig(coreset_size=3, epochs=1, learning_rate=0.05, lam=1.0,
                      batch_size=6, seed=4, algorithm="average")
    coreset, report = autocl_average(P, qm, None, linreg, cfg)
    init = init_coreset(P, 3, seed=4)
    assert report.best_epoch == 0
    assert not np.array_equal(coreset.points, init.points)
    assert np.array_equal(coreset.points, report.final_coreset.points)


def test_handed_out_coresets_are_read_only(monkeypatch, tmp_path, linreg):
    """Every coreset the library hands out refuses writes, and train's
    shares no memory with the vector that the learner goes on stepping."""
    import corelearn.learner as ln
    from corelearn import leverage_coreset, uniform_coreset
    from corelearn.cli import _load_coreset, _save_coreset

    steps = []
    adam = ln.adam_step

    def recording(state, params, *args):
        steps.append(params)
        adam(state, params, *args)

    monkeypatch.setattr(ln, "adam_step", recording)
    rng = np.random.default_rng(14)
    P = _random_set(rng)
    cfg = TrainConfig(coreset_size=3, epochs=3, learning_rate=0.05,
                      batch_size=3, seed=2)
    coreset, report = train(P, rng.standard_normal((6, 2)),
                            rng.standard_normal((4, 2)), linreg, cfg)
    theta = steps[-1]
    for a in (coreset.points, coreset.weights, coreset.labels):
        assert not np.shares_memory(a, theta)
    _save_coreset(coreset, tmp_path / "c.csv")
    for C in (coreset, report.final_coreset, uniform_coreset(P, 3, seed=1),
              leverage_coreset(P, 3, seed=1), _load_coreset(tmp_path / "c.csv")):
        for a in (C.points, C.weights, C.labels):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def _check_weights_nonnegative(monkeypatch, algorithm, loss, P, qm, m):
    """Every step's gradient call sees nonnegative coreset weights, and so do
    the returned coreset and the final iterate.

    The data's total weight is scaled to 0.01, a hundredth of the initial
    coreset's, so that both the data term and the weight-sum penalty push
    the coreset weights down and the projection has to clamp them.
    """
    import corelearn.learner as ln
    P = WeightedLabeledSet(P.points, 0.01 * P.weights / P.weights.sum(),
                           P.labels)
    seen, clamped = [], []
    orig_grads, orig_project = LossModel._weighted_grads, ln.project_weights

    def checked(self, a, labels, weights, queries, term, f_p, out, work):
        seen.append(float(np.min(weights)))
        return orig_grads(self, a, labels, weights, queries, term, f_p, out,
                          work)

    def project(u, out=None):
        clamped.append(bool(np.any(u < 0.0)))
        return orig_project(u, out=out)

    monkeypatch.setattr(LossModel, "_weighted_grads", checked)
    monkeypatch.setattr(ln, "project_weights", project)
    cfg = TrainConfig(coreset_size=m, epochs=30, learning_rate=0.1, lam=2.0,
                      batch_size=5, seed=2, algorithm=algorithm)
    coreset, report = train(P, qm, None, loss, cfg)
    assert any(clamped)
    assert len(seen) >= cfg.epochs
    assert min(seen) >= 0.0
    assert np.all(coreset.weights >= 0.0)
    assert report.final_coreset is not None
    assert np.all(report.final_coreset.weights >= 0.0)


def test_weights_nonnegative_every_epoch(monkeypatch, linreg):
    rng = np.random.default_rng(8)
    P = _random_set(rng)
    qm = rng.standard_normal((10, 2))
    _check_weights_nonnegative(monkeypatch, "practical", linreg, P, qm, 4)


@pytest.mark.parametrize("algorithm", ["average", "practical"])
@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
@pytest.mark.parametrize("shape", SEEDED_SHAPES, ids=shape_id)
def test_weights_nonnegative_seeded_shapes(monkeypatch, shape, kind, intercept,
                                           algorithm):
    loss, P, qm = seeded_problem(shape, kind, intercept)
    _check_weights_nonnegative(monkeypatch, algorithm, loss, P, qm, shape[1])


def test_determinism(linreg):
    rng = np.random.default_rng(9)
    P = _random_set(rng)
    qm = rng.standard_normal((8, 2))
    cfg = TrainConfig(coreset_size=3, epochs=10, learning_rate=0.02, lam=1.0,
                      batch_size=4, seed=11, algorithm="practical")
    _, r1 = autocl_practical(P, qm, None, linreg, cfg)
    _, r2 = autocl_practical(P, qm, None, linreg, cfg)
    assert r1.train_losses == r2.train_losses


def test_best_loss_non_increasing(linreg):
    rng = np.random.default_rng(10)
    P = _random_set(rng)
    qm = rng.standard_normal((10, 2))
    cfg = TrainConfig(coreset_size=3, epochs=40, learning_rate=0.05, lam=1.0,
                      batch_size=5, seed=3, algorithm="practical")
    _, report = autocl_practical(P, qm, None, linreg, cfg)
    best = np.minimum.accumulate(report.train_losses)
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_one_point_problem_reaches_tiny_loss(linreg):
    # single data point, 1-point coreset: a zero-loss coreset exists
    P = WeightedLabeledSet([[1.0]], [1.0], [1.0])
    qm = np.array([[0.5], [2.0]])
    cfg = TrainConfig(coreset_size=1, epochs=2000, learning_rate=0.01, lam=1.0,
                      batch_size=2, seed=0, algorithm="average")
    coreset, report = autocl_average(P, qm, None, linreg, cfg)
    assert min(report.train_losses) < 1e-6

    # independent oracle: grid search over 1-point coresets confirms a
    # (near) zero objective is attainable
    from corelearn.core import set_cost
    f_p = np.mean([set_cost(P, linreg, q) for q in qm])
    best = np.inf
    for c, y in itertools.product(np.linspace(0.5, 1.5, 41), repeat=2):
        cand = Coreset([[c]], [1.0], [y])
        f_c = np.mean([set_cost(cand, linreg, q) for q in qm])
        best = min(best, abs(f_p - f_c))
    assert best < 1e-3


def test_objective_gradients_match_finite_differences(linreg):
    """Full-objective analytic gradients vs central differences, both
    algorithms, at random snapshots away from the |.| kinks."""
    rng = np.random.default_rng(12)
    P = _random_set(rng, n=6, d=2)
    qm = rng.standard_normal((4, 2))
    from corelearn.losses import LossModel

    def average_obj(theta, lam=0.7):
        pts = theta[:6].reshape(3, 2)
        lab = theta[6:9]
        wts = theta[9:12]
        f_p = np.mean(P.weights @ linreg.pointwise_matrix(P.points, P.labels, qm))
        f_c = np.mean(wts @ linreg.pointwise_matrix(pts, lab, qm))
        return abs(f_p - f_c) + lam * abs(P.weights.sum() - wts.sum())

    def practical_obj(theta, lam=0.7):
        pts = theta[:6].reshape(3, 2)
        lab = theta[6:9]
        wts = theta[9:12]
        f_p = P.weights @ linreg.pointwise_matrix(P.points, P.labels, qm)
        f_c = wts @ linreg.pointwise_matrix(pts, lab, qm)
        return (np.sum(np.abs(1.0 - f_c / f_p))
                + lam * abs(P.weights.sum() - wts.sum()))

    lam = 0.7
    for obj, mode in ((average_obj, "average"), (practical_obj, "practical")):
        for _ in range(10):
            theta = rng.standard_normal(12)
            theta[9:12] = rng.random(3) + 0.2
            pts = theta[:6].reshape(3, 2).copy()
            lab = theta[6:9].copy()
            wts = theta[9:12].copy()

            if mode == "average":
                f_p = np.mean(P.weights @ linreg.pointwise_matrix(
                    P.points, P.labels, qm))
                coeffs = np.full(4, 1.0 / 4)
                costs, dp, dl, dw = linreg.weighted_grads(pts, lab, wts, qm, coeffs)
                s = np.sign(f_p - np.mean(costs))
                g_pts, g_lab, g_wts = -s * dp, -s * dl, -s * dw
            else:
                f_p = P.weights @ linreg.pointwise_matrix(P.points, P.labels, qm)
                costs = wts @ linreg.pointwise_matrix(pts, lab, qm)
                coeffs = np.sign(1.0 - costs / f_p) * (-1.0 / f_p)
                _, g_pts, g_lab, g_wts = linreg.weighted_grads(
                    pts, lab, wts, qm, coeffs)
            pen_sign = np.sign(P.weights.sum() - wts.sum())
            g_wts = g_wts - lam * pen_sign

            analytic = np.concatenate([g_pts.ravel(), g_lab, g_wts])
            numeric = central_diff(obj, theta)
            assert rel_close(analytic, numeric, rtol=1e-4, floor=1e-8)


def test_filtered_training_queries_warn(linreg):
    # data with zero cost at q=[0] forces that query out of the batches
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    qm = np.array([[0.0], [1.0]])
    cfg = TrainConfig(coreset_size=1, epochs=2, learning_rate=0.01, lam=0.0,
                      batch_size=1, seed=0, algorithm="practical")
    with pytest.warns(UserWarning, match="near-zero"):
        _, report = autocl_practical(P, qm, None, linreg, cfg)
    assert report.filtered_train_queries == 1


def _validated_run(kind):
    """A small practical run with a validation split whose best epoch is
    neither the first nor the last."""
    rng = np.random.default_rng(15)
    n, d = 40, 3
    labels = rng.standard_normal(n)
    if kind == "logistic_regression":
        labels = np.where(labels < 0, -1.0, 1.0)
    points = rng.standard_normal((n, d))
    w = rng.random(n) + 0.1
    P = WeightedLabeledSet(points, w / w.sum(), labels)
    q_train, q_val = rng.standard_normal((30, d)), rng.standard_normal((10, d))
    cfg = TrainConfig(coreset_size=5, epochs=12, learning_rate=0.2, lam=1.0,
                      batch_size=7, seed=3,
                      learn_weights=kind == "linear_regression")
    return train(P, q_train, q_val, LossModel(kind), cfg)


# SHA-256 of what a validated run returns, recorded with the learner that
# still scored every epoch by a full pass over the training queries, before
# train_losses came from the epoch's own steps (NumPy 2.4.6, OpenBLAS
# 0.3.31, x86-64). What the run returns must not depend on train_losses.
VALIDATED_RUN_SHA256 = {
    "linear_regression":
        "e6441e0b8f76033e962eefacba4b0bcfee9026854d8d9d2bae97993a9f36a3d2",
    "logistic_regression":
        "fc1583ad40f15568502c7e10e9cfac5226296636a407574338bd5f060b56f017",
}


@pytest.mark.parametrize("kind", sorted(VALIDATED_RUN_SHA256))
def test_validated_run_is_bit_identical(kind):
    import hashlib
    coreset, report = _validated_run(kind)
    assert 0 < report.best_epoch < len(report.val_errors) - 1
    h = hashlib.sha256()
    for C in (coreset, report.final_coreset):
        for a in (C.points, C.weights, C.labels):
            h.update(np.ascontiguousarray(a).tobytes())
    h.update(np.array(report.val_errors).tobytes())
    h.update(str(report.best_epoch).encode())
    assert h.hexdigest() == VALIDATED_RUN_SHA256[kind]


def _objective(C, P, qm, loss, lam):
    """C's mean |1 - f_C/f_P| over qm plus its weight-sum penalty, from
    set_costs."""
    from corelearn.core import set_costs
    ratios = 1.0 - set_costs(C, loss, qm) / set_costs(P, loss, qm)
    return float(np.mean(np.abs(ratios))) + lam * abs(P.weights.sum()
                                                      - C.weights.sum())


def test_validated_train_loss_is_the_steps_objective(linreg):
    """With a validation split, an epoch's train loss is its steps' objective
    before each step: with one batch of every query, the initial coreset's."""
    rng = np.random.default_rng(16)
    P = _random_set(rng)
    qm, q_val = rng.standard_normal((9, 2)), rng.standard_normal((4, 2))
    cfg = TrainConfig(coreset_size=3, epochs=1, learning_rate=0.2, lam=0.5,
                      batch_size=9, seed=5)
    _, report = train(P, qm, q_val, linreg, cfg)
    init = init_coreset(P, cfg.coreset_size, cfg.seed)
    want = _objective(init, P, qm, linreg, cfg.lam)
    # the batch holds the queries in another order, so the costs' last bits
    # may differ from set_costs'
    assert report.train_losses == [pytest.approx(want, rel=1e-12)]
    # the step moved the coreset: the objective after it is another number
    after = _objective(report.final_coreset, P, qm, linreg, cfg.lam)
    assert after != pytest.approx(want, rel=1e-6)


def test_validated_train_loss_weights_batches_by_size(monkeypatch, linreg):
    """Batches of 4, 4 and 1 queries: with no step taken, every epoch's train
    loss is the mean over all queries, not over the three batch means."""
    import corelearn.learner as ln
    monkeypatch.setattr(ln, "adam_step", lambda *args: None)
    rng = np.random.default_rng(17)
    P = _random_set(rng)
    qm, q_val = rng.standard_normal((9, 2)), rng.standard_normal((4, 2))
    cfg = TrainConfig(coreset_size=3, epochs=3, lam=0.5, batch_size=4, seed=6)
    _, report = train(P, qm, q_val, linreg, cfg)
    init = init_coreset(P, cfg.coreset_size, cfg.seed)
    want = _objective(init, P, qm, linreg, cfg.lam)
    assert report.train_losses == [pytest.approx(want, rel=1e-12)] * 3


@pytest.mark.parametrize("algorithm, val, passes", [
    ("practical", "surviving", 0),
    ("practical", None, 1),
    ("practical", "floored", 1),
    ("average", "surviving", 0),
    ("average", None, 1),
    ("average", "floored", 1),
])
def test_full_training_pass_only_without_validation(monkeypatch, linreg,
                                                    algorithm, val, passes):
    """The coreset's costs over the whole training matrix are computed once
    per epoch when they select the epoch, and never when a validation split
    that survives the ratio floor does."""
    rng = np.random.default_rng(18)
    # labels 0: the data's cost is 0 at the query 0, below the ratio floor
    P = WeightedLabeledSet(rng.standard_normal((12, 2)), np.full(12, 1 / 12),
                           np.zeros(12))
    qm = rng.standard_normal((10, 2))
    q_val = {"surviving": rng.standard_normal((4, 2)),
             "floored": np.zeros((4, 2)), None: None}[val]
    cfg = TrainConfig(coreset_size=3, epochs=4, learning_rate=0.05, lam=1.0,
                      batch_size=3, seed=7, algorithm=algorithm)
    full = []
    costs = LossModel._costs

    def counted(self, a, labels, weights, queries, work):
        if len(a) == cfg.coreset_size and np.array_equal(queries, qm):
            full.append(1)
        return costs(self, a, labels, weights, queries, work)

    monkeypatch.setattr(LossModel, "_costs", counted)
    _, report = train(P, qm, q_val, linreg, cfg)
    assert len(report.train_losses) == cfg.epochs
    assert len(full) == passes * cfg.epochs


def test_average_selects_by_validation(linreg):
    """average scores an epoch by the validation gap when a validation split
    survives, and returns the best-scored epoch's coreset."""
    from corelearn.core import set_costs
    rng = np.random.default_rng(19)
    P = _random_set(rng)
    qm, q_val = rng.standard_normal((10, 2)), rng.standard_normal((4, 2))
    cfg = TrainConfig(coreset_size=3, epochs=12, learning_rate=0.2, lam=1.0,
                      batch_size=4, seed=8, algorithm="average")
    coreset, report = train(P, qm, q_val, linreg, cfg)
    assert len(report.val_errors) == len(report.train_losses) == cfg.epochs
    assert report.best_epoch == int(np.argmin(report.val_errors))
    assert report.best_epoch != int(np.argmin(report.train_losses))
    gap = abs(np.mean(set_costs(P, linreg, q_val))
              - np.mean(set_costs(coreset, linreg, q_val)))
    assert gap == pytest.approx(report.val_errors[report.best_epoch], rel=1e-12)


def test_average_steps_once_per_minibatch(monkeypatch, linreg):
    """batch_size < k: ceil(k / b) Adam steps per epoch, on batches of b
    queries and a last one of the rest."""
    import corelearn.learner as ln
    steps, batches = [], []
    adam, grads = ln.adam_step, LossModel._weighted_grads

    def counted(*args):
        steps.append(1)
        adam(*args)

    def sized(self, a, labels, weights, queries, term, f_p, out, work):
        batches.append(len(queries))
        return grads(self, a, labels, weights, queries, term, f_p, out, work)

    monkeypatch.setattr(ln, "adam_step", counted)
    monkeypatch.setattr(LossModel, "_weighted_grads", sized)
    rng = np.random.default_rng(20)
    P = _random_set(rng)
    cfg = TrainConfig(coreset_size=3, epochs=3, learning_rate=0.05,
                      batch_size=3, seed=9, algorithm="average")
    train(P, rng.standard_normal((10, 2)), None, linreg, cfg)
    assert len(steps) == 4 * cfg.epochs
    assert batches == [3, 3, 3, 1] * cfg.epochs


@pytest.mark.parametrize("algorithm", ["average", "practical"])
@pytest.mark.parametrize("validated", [False, True])
def test_one_batch_of_every_query_whatever_its_size(monkeypatch, linreg,
                                                    algorithm, validated):
    """Any batch_size >= k trains one batch of all queries in their given
    order, as batch_size == k does."""
    rng = np.random.default_rng(21)
    P = _random_set(rng)
    qm, q_val = rng.standard_normal((7, 2)), rng.standard_normal((4, 2))
    grads, calls = LossModel._weighted_grads, []

    def in_order(self, a, labels, weights, queries, term, f_p, out, work):
        calls.append(1)
        assert np.array_equal(queries, qm)
        return grads(self, a, labels, weights, queries, term, f_p, out, work)

    monkeypatch.setattr(LossModel, "_weighted_grads", in_order)
    runs = [train(P, qm, q_val if validated else None, linreg,
                  TrainConfig(coreset_size=3, epochs=5, learning_rate=0.05,
                              batch_size=b, seed=10, algorithm=algorithm))
            for b in (7, 8, 100)]
    # one step per epoch of each run
    assert len(calls) == 3 * 5
    (want, want_report), rest = runs[0], runs[1:]
    for coreset, report in rest:
        assert report.to_dict() == want_report.to_dict()
        for a, b in ((coreset, want),
                     (report.final_coreset, want_report.final_coreset)):
            for name in ("points", "weights", "labels"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


def _reference_fit(P, Q_train, Q_val, loss, cfg):
    """The training loop as first written: every step goes through the
    public weighted_grads, once for the batch's costs and once with the
    data term's coefficients, copies the gradients into the flat vector,
    and reduces with np.mean and np.sum.
    The lean loop in _fit must return what this returns, bit for bit."""
    import warnings

    import corelearn.learner as ln
    from corelearn.core import NumericError, floored, scored

    def gap_term(f_p):
        def term(costs, idx):
            diff = float(np.mean(f_p[idx])) - float(np.mean(costs))
            return abs(diff), np.full(costs.shape[0],
                                      -np.sign(diff) / costs.shape[0])
        return term

    def ratio_term(f_p):
        slope = -1.0 / f_p

        def term(costs, idx):
            ratios = 1.0 - costs / f_p[idx]
            dev = np.abs(ratios)
            sign = np.where(dev > ln.RATIO_DEAD_ZONE, np.sign(ratios), 0.0)
            return float(np.mean(dev)), sign * slope[idx]
        return term

    term_of = gap_term if cfg.algorithm == "average" else ratio_term
    qm, f_p, n_dropped = floored(*scored(P, loss, Q_train))
    if n_dropped:
        warnings.warn(f"dropping {n_dropped} training queries")
    term = term_of(f_p)
    val = None
    if Q_val is not None:
        val_qm, f_p_val, _ = floored(*scored(P, loss, Q_val))
        if val_qm.shape[0]:
            val = (val_qm, term_of(f_p_val))
    init = init_coreset(P, cfg.coreset_size, cfg.seed)
    m, d = init.n, init.dim
    theta = np.concatenate([init.points.ravel(), init.weights, init.labels])
    pts, wts, lab = ln._split(theta, m, d)
    grad = np.zeros_like(theta)
    g_pts, g_wts, g_lab = ln._split(grad, m, d)
    state = OptimizerState.for_params(theta)
    report = ln.TrainReport(filtered_train_queries=n_dropped)
    w_sum = float(np.sum(P.weights))

    def penalty():
        gap = w_sum - float(np.sum(wts))
        return abs(gap) * cfg.lam, np.sign(gap)

    def cost(queries):
        return loss.costs(pts, lab, wts, queries)

    best_score = np.inf
    best = init
    schedule = ln._minibatches(qm.shape[0], cfg.batch_size, cfg.seed)
    for epoch, batches in zip(range(cfg.epochs), schedule):
        stepped = []
        for step, idx in enumerate(batches):
            pen, pen_sign = penalty()
            batch = qm[idx]
            costs = loss.weighted_grads(pts, lab, wts, batch,
                                        np.zeros(batch.shape[0]))[0]
            value, d_costs = term(costs, idx)
            value += pen
            if not np.isfinite(value):
                raise NumericError("non-finite training loss")
            stepped.append((value, costs.shape[0]))
            _, d_pts, d_lab, d_wts = loss.weighted_grads(
                pts, lab, wts, batch, d_costs)
            g_pts[:] = d_pts
            g_lab[:] = d_lab
            if cfg.learn_weights:
                g_wts[:] = d_wts - cfg.lam * pen_sign
            norm = float(np.sqrt(grad @ grad))
            if norm > ln.GRAD_CLIP:
                grad *= ln.GRAD_CLIP / norm
            adam_step(state, theta, grad, cfg.learning_rate)
            project_weights(wts, out=wts)

        if val is None:
            score = term(cost(qm), slice(None))[0] + penalty()[0]
            report.train_losses.append(score)
        else:
            report.train_losses.append(
                sum(v * k for v, k in stepped) / sum(k for _, k in stepped))
            val_qm, val_term = val
            score = val_term(cost(val_qm), slice(None))[0]
            report.val_errors.append(score)
        if score < best_score:
            best_score = score
            best = Coreset(pts, wts, lab)
            report.best_epoch = epoch

    report.final_coreset = Coreset(pts, wts, lab)
    return best, report


@pytest.mark.parametrize("batch_size", [5, 12], ids=["batch<k", "batch>=k"])
@pytest.mark.parametrize("validated", [False, True], ids=["no-val", "val"])
@pytest.mark.parametrize("learn_weights", [True, False],
                         ids=["weights", "frozen"])
@pytest.mark.parametrize("algorithm", ["average", "practical"])
@pytest.mark.parametrize("intercept", [False, True], ids=["no-icpt", "icpt"])
@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_lean_step_equals_reference_loop(kind, intercept, algorithm,
                                         learn_weights, validated, batch_size):
    """train returns what the reference loop returns, bit for bit: both
    coresets and every report field, over every branch of a step."""
    rng = np.random.default_rng(22)
    n, d, k = 40, 2, 12
    labels = rng.standard_normal(n)
    if kind == "logistic_regression":
        labels = np.where(labels < 0, -1.0, 1.0)
    w = rng.random(n) + 0.1
    P = WeightedLabeledSet(rng.standard_normal((n, d)), w / w.sum(), labels)
    loss = LossModel(kind, intercept)
    d_q = loss.query_dim(d)
    qm = rng.standard_normal((k, d_q))
    q_val = rng.standard_normal((5, d_q)) if validated else None
    cfg = TrainConfig(coreset_size=4, epochs=6, learning_rate=0.1, lam=0.5,
                      batch_size=batch_size, seed=11, algorithm=algorithm,
                      learn_weights=learn_weights)
    coreset, report = train(P, qm, q_val, loss, cfg)
    want, want_report = _reference_fit(P, qm, q_val, loss, cfg)
    assert len(report.val_errors) == (cfg.epochs if validated else 0)
    assert report.to_dict() == want_report.to_dict()
    # to_dict casts to float; the raw lists must hold the same Python floats
    assert repr(report.train_losses) == repr(want_report.train_losses)
    assert repr(report.val_errors) == repr(want_report.val_errors)
    for got, ref in ((coreset, want),
                     (report.final_coreset, want_report.final_coreset)):
        for name in ("points", "weights", "labels"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
    # the run moved the coreset, so the comparison covers real steps
    init = init_coreset(P, cfg.coreset_size, cfg.seed)
    assert not np.array_equal(report.final_coreset.points, init.points)


def test_non_finite_step_value_raises_before_the_step(monkeypatch, linreg):
    """A data term that reads inf stops training with a NumericError that
    names the step, before any gradient is formed or any Adam step taken."""
    import corelearn.learner as ln
    from corelearn.core import NumericError
    steps = []
    monkeypatch.setattr(ln, "adam_step", lambda *args: steps.append(1))
    rng = np.random.default_rng(24)
    P = _random_set(rng)
    cfg = TrainConfig(coreset_size=3, epochs=2, batch_size=4, seed=12)

    def term(costs, f_p):
        return np.inf, np.full(costs.shape[0], np.inf)

    with pytest.raises(NumericError, match="epoch 0, step 0"):
        ln._fit(P, rng.standard_normal((8, 2)), None, linreg, cfg, term)
    assert steps == []


def test_ratio_term_gives_an_exact_copy_sign_zero(linreg):
    """Costs that differ from the data's by rounding alone, as an exact
    copy's may, lie in RATIO_DEAD_ZONE: every query gets sign 0, so the
    derivative is 0. Just past the zone each query has its full slope."""
    import corelearn.learner as ln
    from corelearn.core import set_costs
    rng = np.random.default_rng(25)
    P = _random_set(rng)
    qm = rng.standard_normal((9, 2))
    f_p = set_costs(P, linreg, qm)
    eps = np.finfo(float).eps
    # the copy's costs with the queries in another order, whose last bits
    # BLAS may round otherwise, and costs a few ulps off the data's
    for f_c in (set_costs(P, linreg, qm[::-1])[::-1],
                np.nextafter(f_p, np.inf), f_p * (1.0 + 16 * eps)):
        value, d_costs = ln._ratio_term(f_c, f_p)
        assert value <= ln.RATIO_DEAD_ZONE
        assert np.array_equal(d_costs, np.zeros(9))
    value, d_costs = ln._ratio_term(f_p * (1.0 + 256 * eps), f_p)
    assert value > ln.RATIO_DEAD_ZONE
    assert np.array_equal(d_costs, 1.0 / f_p)


def test_gap_term_kink_has_a_zero_subgradient():
    """At equal mean costs the gap is 0 and so is its subgradient; off the
    kink each cost's subgradient is -sign(mean f_P - mean f_C) / k."""
    import corelearn.learner as ln
    f_p = np.array([1.0, 2.0, 4.0, 8.0])
    for f_c in (f_p.copy(), f_p[::-1].copy()):
        value, d_costs = ln._gap_term(f_c, f_p)
        assert value == 0.0
        assert np.array_equal(d_costs, np.zeros(4))
    assert ln._gap_term(f_p + 1.0, f_p)[0] == 1.0
    assert np.array_equal(ln._gap_term(f_p + 1.0, f_p)[1], np.full(4, 0.25))
    assert np.array_equal(ln._gap_term(f_p - 1.0, f_p)[1], np.full(4, -0.25))


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_ratio_term_is_err_avg_bit_for_bit(kind):
    """The practical objective's value over the floored test split is
    err_avg's value, bit for bit: the objective and the metric agree."""
    import corelearn.learner as ln
    from corelearn.baselines import uniform_coreset
    from corelearn.core import floored, scored, set_costs
    from corelearn.datasets import make_synthetic
    from corelearn.evaluate import err_avg
    task = "linear" if kind == "linear_regression" else "logistic"
    P = make_synthetic(task, 60, 3, seed=26)
    loss = LossModel(kind)
    q_test = np.random.default_rng(26).standard_normal((40, 3))
    C = uniform_coreset(P, 12, seed=26)
    qm, f_p, _ = floored(*scored(P, loss, q_test))
    value = ln._ratio_term(set_costs(C, loss, qm), f_p)[0]
    assert value == err_avg(P, C, loss, q_test).value


# a second logistic train on the same data, at criterion 9's size 300: its
# minor page faults and the steps it took, on stdout
_SECOND_TRAIN = """
import resource
import numpy as np
import corelearn as cl
P = cl.make_synthetic("logistic", 5000, 8, noise=0.3, seed=1)
rng = np.random.default_rng(2)
q_train, q_val = rng.standard_normal((2000, 8)), rng.standard_normal((200, 8))
loss = cl.LossModel("logistic_regression")
cfg = cl.TrainConfig.paper_logreg(coreset_size=300, epochs=20)
cl.train(P, q_train, q_val, loss, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_, report = cl.train(P, q_train, q_val, loss, cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
kept = len(q_train) - report.filtered_train_queries
print(faults, len(report.train_losses) * -(-kept // cfg.batch_size))
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="glibc's malloc thresholds")
def test_training_does_not_depend_on_the_allocator():
    """Under glibc's default 128 KB mmap and trim thresholds, pinned so that
    no large free raises them, every allocation past 128 KB is a fresh
    mapping, faulted in page by page. A training run reuses its buffers, so
    a second run makes fewer minor faults than it takes steps (the
    buffers fresh per step and per block made about 300 a step)."""
    src = str(Path(corelearn.__file__).resolve().parents[1])
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072",
               MALLOC_TRIM_THRESHOLD_="131072", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-c", _SECOND_TRAIN], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    faults, steps = map(int, run.stdout.split()[-2:])
    assert faults < steps
