"""Baseline coresets (uniform, leverage sampling) and full-problem solvers."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (Coreset, ContractError, WeightedLabeledSet, check_count,
                   stream_rng)
from .losses import LINEAR, LossModel


def uniform_coreset(P: WeightedLabeledSet, m: int, seed: int = 0) -> Coreset:
    """m uniform rows with replacement, weighted w(c) * n / m.

    With these weights the coreset cost is an unbiased estimator of the full
    weighted cost at every query.
    """
    if not 1 <= check_count(m, "m") <= P.n:
        raise ContractError(f"need 1 <= m <= n, got m={m}, n={P.n}")
    check_count(seed, "seed")
    rng = stream_rng(seed, "uniform_coreset")
    idx = rng.integers(0, P.n, size=m)
    weights = P.weights[idx] * (P.n / m)
    return Coreset(P.points[idx], weights, P.labels[idx])


def leverage_scores(P: WeightedLabeledSet) -> np.ndarray:
    """Statistical leverage of the weight-scaled, label-augmented data matrix.

    Row norms squared of the orthonormal factor of [sqrt(w) p | sqrt(w) b].
    Falls back to a ridge-regularized computation on rank deficiency.
    """
    sw = np.sqrt(P.weights)
    A = np.hstack([sw[:, None] * P.points, (sw * P.labels)[:, None]])
    qmat, r = np.linalg.qr(A, mode="reduced")
    diag = np.abs(np.diag(r))
    if np.any(diag < 1e-12 * max(1.0, diag.max())):
        warnings.warn("rank-deficient data matrix; using ridge-regularized leverage")
        lam = 1e-10 * max(1.0, float(np.sum(A * A)))
        g = A.T @ A + lam * np.eye(A.shape[1])
        scores = np.sum(A * np.linalg.solve(g, A.T).T, axis=1)
        return np.clip(scores, 0.0, 1.0)
    return np.sum(qmat * qmat, axis=1)


def leverage_coreset(P: WeightedLabeledSet, m: int, seed: int = 0) -> Coreset:
    """Importance sampling by leverage scores; weights w_i / (m * prob_i)."""
    check_count(m, "m", 1)
    check_count(seed, "seed")
    if P.dim > P.n:
        raise ContractError("leverage sampling needs d <= n")
    scores = leverage_scores(P)
    total = float(np.sum(scores))
    if total <= 0:
        raise ContractError("all leverage scores are zero")
    probs = scores / total
    rng = stream_rng(seed, "leverage_coreset")
    idx = rng.choice(P.n, size=m, p=probs)
    weights = P.weights[idx] / (m * probs[idx])
    return Coreset(P.points[idx], weights, P.labels[idx])


@dataclass(frozen=True)
class OptimResult:
    params: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float


def _solve_linreg(P: WeightedLabeledSet, loss: LossModel) -> OptimResult:
    G, rhs, _ = loss.normal_equations(P.points, P.labels, P.weights)
    try:
        q = np.linalg.solve(G, rhs)
        if not np.all(np.isfinite(q)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        warnings.warn("singular normal matrix; solving with ridge 1e-10")
        q = np.linalg.solve(G + 1e-10 * np.eye(G.shape[0]), rhs)
    residual = float(np.linalg.norm(G @ q - rhs))
    return OptimResult(q, residual <= 1e-8, 0, residual)


def _solve_gd(P: WeightedLabeledSet, loss: LossModel,
              tol: float = 1e-8, max_iter: int = 100_000) -> OptimResult:
    """Gradient descent with backtracking line search on the weighted objective."""
    q = np.zeros(loss.query_dim(P.dim))
    c, g = loss.query_grad(P.points, P.labels, P.weights, q)
    step = 1.0
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            # a flat gradient can also mean escape to infinity (separable
            # data): a genuine minimizer does not improve when scaled up
            c2, _ = loss.query_grad(P.points, P.labels, P.weights, 2.0 * q)
            if c2 < c - 1e-15:
                warnings.warn("objective keeps improving toward infinity; "
                              "no finite minimizer (separable data?)")
                return OptimResult(q, False, it, gnorm)
            return OptimResult(q, True, it, gnorm)
        step *= 2.0  # allow the step to grow back after earlier backtracking
        while True:
            trial = q - step * g
            ct, gt = loss.query_grad(P.points, P.labels, P.weights, trial)
            if np.isfinite(ct) and ct <= c - 0.5 * step * gnorm * gnorm:
                break
            step *= 0.5
            if step < 1e-18:
                warnings.warn(
                    f"line search stalled at gradient norm {gnorm:.3e}; "
                    "returning best iterate")
                return OptimResult(q, False, it, gnorm)
        q, c, g = trial, ct, gt
    gnorm = float(np.linalg.norm(g))
    if gnorm > tol:
        warnings.warn(
            f"logistic solver stopped at gradient norm {gnorm:.3e} after {max_iter} iterations")
    return OptimResult(q, gnorm <= tol, max_iter, gnorm)


def solve_optimal(P: WeightedLabeledSet, loss: LossModel) -> OptimResult:
    """Minimize the full weighted objective.

    Linear regression uses the closed-form normal equations; logistic
    regression runs gradient descent to gradient norm <= 1e-8. A
    non-converged result carries converged=False (e.g. separable logistic
    data, whose optimum is at infinity).
    """
    if loss.kind == LINEAR:
        return _solve_linreg(P, loss)
    return _solve_gd(P, loss)
