import warnings

import numpy as np
import pytest

from corelearn import (
    ContractError,
    WeightedLabeledSet,
    init_coreset,
    leverage_coreset,
    set_cost,
    solve_optimal,
    uniform_coreset,
)
from corelearn.baselines import _MAX_NEWTON_STEPS, leverage_scores
from corelearn.datasets import make_synthetic
from corelearn.losses import LossModel


def test_uniform_single_point_weight():
    P = WeightedLabeledSet([[1.0], [2.0], [3.0]], [0.2, 0.3, 0.5],
                           [0.0, 0.0, 0.0])
    c = uniform_coreset(P, 1, seed=0)
    i = int(np.where(P.points[:, 0] == c.points[0, 0])[0][0])
    assert c.weights[0] == pytest.approx(P.weights[i] * 3.0)


def test_uniform_trivial_n1():
    P = WeightedLabeledSet([[4.0]], [1.0], [2.0])
    c = uniform_coreset(P, 1, seed=5)
    assert np.array_equal(c.points, P.points)
    assert np.array_equal(c.weights, P.weights)


def test_uniform_unbiased(linreg):
    rng = np.random.default_rng(0)
    P = make_synthetic("linear", 50, 2, 0.3, seed=1)
    queries = rng.standard_normal((5, 2))
    f_p = np.array([set_cost(P, linreg, q) for q in queries])
    est = np.zeros(5)
    n_seeds = 4000
    for s in range(n_seeds):
        c = uniform_coreset(P, 10, seed=s)
        est += [set_cost(c, linreg, q) for q in queries]
    est /= n_seeds
    assert np.all(np.abs(est - f_p) <= 0.02 * np.abs(f_p))


def test_leverage_uniform_for_orthogonal_rows():
    # orthogonal rows of equal norm: identical leverage
    P = WeightedLabeledSet(np.eye(3) * 2.0, np.full(3, 1 / 3), np.zeros(3))
    s = leverage_scores(P)
    assert np.allclose(s, s[0])


def test_leverage_zero_row_never_sampled():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    P = WeightedLabeledSet(pts, np.full(3, 1 / 3), np.zeros(3))
    s = leverage_scores(P)
    assert s[0] == pytest.approx(0.0, abs=1e-12)
    c = leverage_coreset(P, 50, seed=0)
    assert not np.any(np.all(c.points == 0.0, axis=1))


def test_leverage_matches_dense_factorization_oracle():
    pts = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])
    P = WeightedLabeledSet(pts, np.array([0.2, 0.3, 0.5]),
                           np.array([1.0, -2.0, 0.5]))
    s = leverage_scores(P)
    sw = np.sqrt(P.weights)
    A = np.hstack([sw[:, None] * pts, (sw * P.labels)[:, None]])
    # independent oracle: hat-matrix diagonal via SVD
    U, _, _ = np.linalg.svd(A, full_matrices=False)
    oracle = np.sum(U * U, axis=1)
    assert np.allclose(s, oracle, atol=1e-10)


def test_leverage_scores_bounded_and_sum_to_rank():
    rng = np.random.default_rng(3)
    P = make_synthetic("linear", 40, 3, 0.2, seed=4)
    s = leverage_scores(P)
    assert np.all(s >= -1e-12) and np.all(s <= 1.0 + 1e-12)
    assert float(np.sum(s)) == pytest.approx(4.0, abs=1e-8)  # d + label column


def test_leverage_rank_deficient_warns():
    pts = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    P = WeightedLabeledSet(pts, np.full(3, 1 / 3), pts[:, 0] * 2)
    with pytest.warns(UserWarning, match="rank-deficient"):
        leverage_scores(P)


def test_solve_single_point(linreg):
    P = WeightedLabeledSet([[1.0]], [1.0], [2.0])
    res = solve_optimal(P, linreg)
    assert res.converged
    assert res.params[0] == pytest.approx(2.0)


def test_solve_two_points_hand_value(linreg):
    P = WeightedLabeledSet([[1.0], [1.0]], [0.5, 0.5], [0.0, 2.0])
    res = solve_optimal(P, linreg)
    assert res.params[0] == pytest.approx(1.0)


@pytest.mark.parametrize("intercept", [False, True])
def test_closed_form_is_the_direct_normal_equations(intercept):
    """solve_optimal reads the normal equations from LossModel; its solution
    is that of the expressions written out, bit for bit."""
    loss = LossModel("linear_regression", intercept)
    P = make_synthetic("linear", 80, 3, 0.2, seed=9)
    A = loss.augment(P.points)
    G = A.T @ (P.weights[:, None] * A)
    rhs = A.T @ (P.weights * P.labels)
    assert np.array_equal(solve_optimal(P, loss).params, np.linalg.solve(G, rhs))


@pytest.mark.parametrize("intercept", [False, True])
def test_squared_loss_solve_skips_the_separability_probe(intercept,
                                                         monkeypatch):
    """A squared-loss solve reads the cost and gradient at q = 0 and at its
    one Newton step, and no more: a convex quadratic with a minimizer is
    never separable, so the probe at 2q is not taken."""
    loss = LossModel("linear_regression", intercept)
    P = make_synthetic("linear", 80, 3, 0.2, seed=9)
    query_grad, calls = LossModel.query_grad, []

    def counted(self, *args):
        calls.append(args[-1])
        return query_grad(self, *args)

    monkeypatch.setattr(LossModel, "query_grad", counted)
    res = solve_optimal(P, loss)
    assert res.converged and res.iterations == 1
    assert len(calls) == 2
    assert np.array_equal(calls[1], res.params)


def _backtracking_gd(P, loss, tol=1e-8, max_iter=100_000):
    """The logistic solver solve_optimal replaced: gradient descent from
    q = 0 with a backtracking line search, to gradient norm <= tol."""
    q = np.zeros(loss.query_dim(P.dim))
    c, g = loss.query_grad(P.points, P.labels, P.weights, q)
    step = 1.0
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            break
        step *= 2.0
        while True:
            trial = q - step * g
            ct, gt = loss.query_grad(P.points, P.labels, P.weights, trial)
            if np.isfinite(ct) and ct <= c - 0.5 * step * gnorm * gnorm:
                break
            step *= 0.5
        q, c, g = trial, ct, gt
    assert gnorm <= tol
    return q


@pytest.mark.parametrize("intercept", [False, True])
def test_logreg_newton_matches_gradient_descent(intercept):
    """Newton reaches a full-data cost no higher than gradient descent's,
    with its gradient norm within tolerance."""
    loss = LossModel("logistic_regression", intercept)
    P = make_synthetic("logistic", 2000, 5, 0.1, seed=3)
    res = solve_optimal(P, loss)
    assert res.converged and res.grad_norm <= 1e-8
    newton, gd = (set_cost(P, loss, q)
                  for q in (res.params, _backtracking_gd(P, loss)))
    assert newton <= gd * (1 + 1e-12)


def test_singular_normal_matrix_falls_back_to_ridge(linreg):
    """A one-point set in two dimensions has a singular G: the solve warns
    and is that of G + 1e-10 I, bit for bit."""
    P = WeightedLabeledSet([[1.0, 2.0]], [1.0], [3.0])
    G, h, _ = linreg.normal_equations(P.points, P.labels, P.weights)
    with pytest.warns(UserWarning, match="singular normal matrix"):
        res = solve_optimal(P, linreg)
    assert np.array_equal(res.params, np.linalg.solve(G + 1e-10 * np.eye(2), h))
    assert res.converged


def _scaled_linear(scale):
    P = make_synthetic("linear", 5000, 3, 0.2, seed=0)
    return WeightedLabeledSet(P.points * scale, P.weights, P.labels * scale)


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e4, 1e6])
def test_solver_stop_does_not_depend_on_scale(linreg, scale):
    """The stopping test is relative to the gradient norm at q = 0, so
    scaled data is neither taken as solved at q = 0 (1e-5) nor left on the
    rounding floor with a warning (1e4, 1e6): each solve converges to the
    closed form."""
    P = _scaled_linear(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_optimal(P, linreg)
    assert res.converged
    G, h, _ = linreg.normal_equations(P.points, P.labels, P.weights)
    assert np.allclose(res.params, np.linalg.solve(G, h), rtol=1e-12, atol=0)


def test_solver_stops_when_the_line_search_stalls(linreg, monkeypatch):
    """A gradient that rounding keeps above the stopping test: a step that
    lowers neither the cost nor the gradient ends the solve, with a
    warning, long before the step cap. Here every gradient's norm is held
    at no less than 1e-4 of its norm at q = 0."""
    P = _scaled_linear(1.0)
    query_grad = LossModel.query_grad
    g0 = query_grad(linreg, P.points, P.labels, P.weights, np.zeros(P.dim))[1]
    floor = 1e-4 * np.linalg.norm(g0)

    def floored(self, *args):
        c, g = query_grad(self, *args)
        norm = np.linalg.norm(g)
        return c, (g if norm >= floor else g * (floor / norm))

    monkeypatch.setattr(LossModel, "query_grad", floored)
    with pytest.warns(UserWarning, match="line search stalled"):
        res = solve_optimal(P, linreg)
    assert not res.converged and res.iterations < 20
    G, h, _ = linreg.normal_equations(P.points, P.labels, P.weights)
    assert np.allclose(res.params, np.linalg.solve(G, h), rtol=1e-12, atol=0)


def test_logreg_solver_converges(logreg):
    P = make_synthetic("logistic", 200, 3, 1.5, seed=7)  # noisy, not separable
    res = solve_optimal(P, logreg)
    assert res.converged
    assert res.grad_norm <= 1e-8


def test_logreg_separable_flags_nonconvergence(logreg):
    # perfectly separable 1-d data: the optimum is at infinity
    P = WeightedLabeledSet([[1.0], [-1.0]], [0.5, 0.5], [1.0, -1.0])
    with pytest.warns(UserWarning, match="toward infinity"):
        res = solve_optimal(P, logreg)
    assert not res.converged
    assert res.iterations <= _MAX_NEWTON_STEPS


@pytest.mark.parametrize("build, m", [
    (uniform_coreset, 1.5),
    (leverage_coreset, 1.5),
    (lambda P, m: init_coreset(P, m, 0), 1.5),
    (uniform_coreset, True),
], ids=["uniform", "leverage", "init", "uniform-bool"])
def test_coreset_size_is_an_integer(build, m):
    P = make_synthetic("linear", 10, 2, 0.3, seed=2)
    with pytest.raises(ContractError, match=f"m must be an integer, got {m!r}"):
        build(P, m)
    assert build(P, np.int64(3)).n == 3


@pytest.mark.parametrize("build", [
    uniform_coreset, leverage_coreset, lambda P, m: init_coreset(P, m, 0)],
    ids=["uniform", "leverage", "init"])
def test_coreset_may_hold_more_points_than_the_data(build):
    """Every constructor draws with replacement past n: m = n + 10 gives
    m rows of the data."""
    P = make_synthetic("linear", 10, 2, 0.3, seed=2)
    C = build(P, P.n + 10)
    assert C.n == P.n + 10
    rows = {tuple(p) for p in P.points}
    assert all(tuple(c) in rows for c in C.points)


def test_solve_optimal_warns_at_its_step_cap(monkeypatch):
    """A solve that the step cap stops before the gradient test passes warns
    with the gradient norm it left and returns converged=False."""
    import corelearn.baselines as bl
    monkeypatch.setattr(bl, "_MAX_NEWTON_STEPS", 1)
    P = make_synthetic("logistic", 200, 3, noise=1.0, seed=29)
    with pytest.warns(UserWarning,
                      match="^1 Newton steps left the gradient norm at "):
        res = solve_optimal(P, LossModel("logistic_regression"))
    assert not res.converged and res.iterations == 1
