import math

import numpy as np
import pytest

from conftest import central_diff, rel_close
from corelearn import ContractError, WeightedLabeledSet, set_cost
from corelearn import losses
from corelearn.losses import LossModel


def test_linreg_values(linreg):
    assert linreg.pointwise([1.0, 1.0], [3.0], [1.0, 2.0])[0] == 0.0
    assert linreg.pointwise([2.0], [0.0], [1.0])[0] == 4.0
    assert linreg.pointwise([1.0, 2.0], [1.0], [2.0, 0.5])[0] == pytest.approx(4.0)


def test_logreg_values(logreg):
    assert logreg.pointwise([5.0, -1.0], [1.0], [0.0, 0.0])[0] == pytest.approx(
        math.log(2.0))
    assert logreg.pointwise([1.0], [1.0], [1.0])[0] == pytest.approx(
        math.log(1.0 + math.exp(-1.0)))


def test_logreg_monotone_toward_zero(logreg):
    vals = [logreg.pointwise([1.0], [1.0], [z])[0] for z in (0.0, 1.0, 5.0, 20.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 0.0


def test_logreg_extreme_margin_is_finite(logreg):
    for sign in (1.0, -1.0):
        v = logreg.pointwise([1e3], [sign], [1.0])[0]
        assert np.isfinite(v)
        assert v >= 0.0


def test_linreg_sign_symmetry(linreg):
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.standard_normal(3)
        b = float(rng.standard_normal())
        q = rng.standard_normal(3)
        assert linreg.pointwise(p, [b], q)[0] == pytest.approx(
            linreg.pointwise(-p, [-b], q)[0])


def test_nonnegativity(linreg, logreg):
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.standard_normal(2)
        q = rng.standard_normal(2)
        assert linreg.pointwise(p, [float(rng.standard_normal())], q)[0] >= 0.0
        assert logreg.pointwise(p, [1.0 if rng.random() < 0.5 else -1.0], q)[0] >= 0.0


def test_hand_gradients_linreg(linreg):
    _, dq = linreg.query_grad([[1.0]], [0.0], [1.0], [1.0])
    assert np.allclose(dq, [2.0])
    # exact fit: everything but the weight slot vanishes, and f itself is 0
    costs, dp, db, du = linreg.weighted_grads([[1.0]], [1.0], [1.0], [[1.0]], [1.0])
    cost, dq = linreg.query_grad([[1.0]], [1.0], [1.0], [1.0])
    assert costs[0] == 0.0 and cost == 0.0
    assert np.allclose(dp, 0.0) and db[0] == 0.0 and du[0] == 0.0
    assert np.allclose(dq, 0.0)


def test_hand_gradient_logreg(logreg):
    cost, dq = logreg.query_grad([[1.0]], [1.0], [1.0], [0.0])
    assert cost == pytest.approx(math.log(2.0))
    assert np.allclose(dq, [-0.5])


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_gradients_match_finite_differences(kind):
    """weighted_grads and query_grad against central differences of the
    values, over seeded random shapes, with and without intercept."""
    rng = np.random.default_rng(42)
    for trial in range(60):
        m, k, d = (int(x) for x in rng.integers(1, 6, size=3))
        loss = LossModel(kind, intercept=bool(rng.random() < 0.5))
        pts = rng.standard_normal((m, d))
        if kind == "linear_regression":
            labels = rng.standard_normal(m)
        else:  # +/-1, and every other trial real labels as in label learning
            labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
            if trial % 2:
                labels *= rng.uniform(0.5, 1.5, m)
        w = rng.random(m) + 0.1
        qm = rng.standard_normal((k, loss.query_dim(d)))
        coeffs = rng.standard_normal(k)

        def total(pts_, labels_, w_):
            return coeffs @ (w_ @ loss.pointwise_matrix(pts_, labels_, qm))

        costs, dp, dl, dw = loss.weighted_grads(pts, labels, w, qm, coeffs)
        assert np.array_equal(costs, w @ loss.pointwise_matrix(pts, labels, qm))
        fd_p = central_diff(lambda x: total(x.reshape(m, d), labels, w), pts.ravel())
        fd_l = central_diff(lambda x: total(pts, x, w), labels)
        fd_w = central_diff(lambda x: total(pts, labels, x), w)

        q = qm[0]
        cost, dq = loss.query_grad(pts, labels, w, q)
        assert cost == set_cost(WeightedLabeledSet(pts, w, labels), loss, q)
        fd_q = central_diff(lambda x: w @ loss.pointwise(pts, labels, x), q)
        for got, fd in ((dp.ravel(), fd_p), (dl, fd_l), (dw, fd_w), (dq, fd_q)):
            assert rel_close(got, fd)


def test_intercept_augments_query_dim():
    loss = LossModel("linear_regression", intercept=True)
    # <[2], q> + q_0 with q = [3, 1], b = 0 -> residual 7
    v = loss.pointwise([[2.0]], [0.0], [3.0, 1.0])[0]
    assert v == pytest.approx(49.0)
    assert loss.query_dim(1) == 2


def test_pointwise_matrix_agrees_with_pointwise(linreg, logreg):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((6, 2))
    qm = rng.standard_normal((4, 2))
    for loss, labels in ((linreg, rng.standard_normal(6)),
                        (logreg, np.where(rng.random(6) < 0.5, -1.0, 1.0))):
        mat = loss.pointwise_matrix(pts, labels, qm)
        for j in range(4):
            assert np.allclose(mat[:, j], loss.pointwise(pts, labels, qm[j]))


def test_unknown_kind_rejected():
    with pytest.raises(ContractError):
        LossModel("svm")


# -- fused logistic kernel and blocked costs ---------------------------------


def test_fused_logistic_matches_reference(logreg):
    m = np.concatenate([np.linspace(-800.0, 800.0, 100001),
                        np.random.default_rng(7).uniform(-800.0, 800.0, 10000)])
    # at label 1 the prediction is the margin, and df/dz = -sigmoid(-m)
    f, dz, db = logreg._link(m.copy(), 1.0, grad=True)
    with np.errstate(over="ignore"):
        ref_f = np.logaddexp(0.0, -m)
        ref_s = 1.0 / (1.0 + np.exp(m))
    for got, ref in ((f, ref_f), (-dz, ref_s)):
        assert np.all(np.isfinite(got))
        err = np.abs(got - ref)
        assert np.all((err <= 1e-15) | (err <= 1e-15 * np.abs(ref)))
    assert np.array_equal(db, m * dz)
    f_only, no_dz, no_db = logreg._link(m.copy(), 1.0)
    assert no_dz is None and no_db is None and np.array_equal(f_only, f)


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
@pytest.mark.parametrize("intercept", [False, True])
def test_costs_match_full_matrix_across_blocks(monkeypatch, kind, intercept):
    rng = np.random.default_rng(8)
    n, d, k = 10, 3, 17
    monkeypatch.setattr(losses, "BLOCK_ELEMENTS", 64)  # 6 queries per block
    loss = LossModel(kind, intercept=intercept)
    pts = rng.standard_normal((n, d))
    labels = (np.where(rng.random(n) < 0.5, -1.0, 1.0)
              if kind == "logistic_regression" else rng.standard_normal(n))
    w = rng.random(n)
    qm = rng.standard_normal((k, loss.query_dim(d)))
    sizes = [block.shape[1] for _, block in loss.blocks(pts, labels, qm)]
    assert sizes == [6, 6, 5]
    got = loss.costs(pts, labels, w, qm)
    ref = w @ loss.pointwise_matrix(pts, labels, qm)
    assert got.shape == (k,)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_weighted_grads_callable_coeffs_match_array(kind):
    rng = np.random.default_rng(9)
    loss = LossModel(kind, intercept=True)
    pts = rng.standard_normal((5, 2))
    labels = rng.standard_normal(5)
    w = rng.random(5)
    qm = rng.standard_normal((7, 3))
    f_p = rng.random(7) + 0.5

    def rule(costs):
        return np.sign(1.0 - costs / f_p) * (-1.0 / f_p)

    costs = w @ loss.pointwise_matrix(pts, labels, qm)
    by_array = loss.weighted_grads(pts, labels, w, qm, rule(costs))
    by_rule = loss.weighted_grads(pts, labels, w, qm, rule)
    for a, b in zip(by_array, by_rule):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("margin", [30.0, -30.0])
def test_logistic_gradients_at_large_margin(margin):
    rng = np.random.default_rng(10)
    loss = LossModel("logistic_regression")
    m, d, k = 4, 3, 3
    q = rng.standard_normal(d)
    labels = np.array([1.0, -1.0, 1.0, 0.7])
    # each point's margin b * <p, q> is close to the requested one
    pts = rng.standard_normal((m, d)) * 0.01
    pts += np.outer(margin / labels, q) / (q @ q)
    qm = q + 0.001 * rng.standard_normal((k, d))
    w = rng.random(m) + 0.5
    coeffs = rng.standard_normal(k)
    marg = labels[:, None] * (pts @ qm.T)
    assert np.all(np.abs(np.abs(marg) - 30.0) < 1.0)

    def total(pts_, labels_, w_, q_):
        return coeffs @ (w_ @ loss.pointwise_matrix(pts_, labels_, q_))

    _, dp, dl, dw = loss.weighted_grads(pts, labels, w, qm, coeffs)
    fd_p = central_diff(lambda x: total(x.reshape(m, d), labels, w, qm), pts.ravel())
    fd_l = central_diff(lambda x: total(pts, x, w, qm), labels)
    fd_w = central_diff(lambda x: total(pts, labels, x, qm), w)
    for got, fd in ((dp.ravel(), fd_p), (dl, fd_l), (dw, fd_w)):
        assert rel_close(got, fd, rtol=1e-5, floor=0.0)
    _, dq = loss.query_grad(pts, labels, w, q)
    fd_q = central_diff(lambda x: w @ loss.pointwise(pts, labels, x), q)
    assert rel_close(dq, fd_q, rtol=1e-5, floor=0.0)
