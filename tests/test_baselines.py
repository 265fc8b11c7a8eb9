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
from corelearn.baselines import _solve_gd, leverage_scores
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


def test_linreg_gd_matches_closed_form(linreg):
    P = make_synthetic("linear", 60, 3, 0.2, seed=6)
    exact = solve_optimal(P, linreg)
    gd = _solve_gd(P, linreg)
    f = lambda q: set_cost(P, linreg, q)
    assert f(gd.params) == pytest.approx(f(exact.params), rel=1e-6)


def test_logreg_solver_converges(logreg):
    P = make_synthetic("logistic", 200, 3, 1.5, seed=7)  # noisy, not separable
    res = solve_optimal(P, logreg)
    assert res.converged
    assert res.grad_norm <= 1e-8


def test_logreg_separable_flags_nonconvergence(logreg):
    # perfectly separable 1-d data: the optimum is at infinity
    P = WeightedLabeledSet([[1.0], [-1.0]], [0.5, 0.5], [1.0, -1.0])
    with pytest.warns(UserWarning):
        res = _solve_gd(P, logreg, max_iter=2000)
    assert not res.converged


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
