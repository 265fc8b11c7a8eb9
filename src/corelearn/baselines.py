"""Baseline coresets (uniform, leverage sampling) and full-problem solvers."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (Coreset, ContractError, WeightedLabeledSet, check_count,
                   stream_rng)
from .losses import LINEAR, LossModel

_MAX_NEWTON_STEPS = 100  # solve_optimal's cap on its Newton steps


def uniform_coreset(P: WeightedLabeledSet, m: int, seed: int = 0) -> Coreset:
    """m uniform rows with replacement, weighted w(c) * n / m.

    With these weights the coreset cost is an unbiased estimator of the full
    weighted cost at every query.
    """
    check_count(m, "m", 1)
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
    rng = stream_rng(seed, "leverage_coreset")
    if P.dim > P.n:
        raise ContractError("leverage sampling needs d <= n")
    scores = leverage_scores(P)
    total = float(np.sum(scores))
    if total <= 0:
        raise ContractError("all leverage scores are zero")
    probs = scores / total
    idx = rng.choice(P.n, size=m, p=probs)
    weights = P.weights[idx] / (m * probs[idx])
    return Coreset(P.points[idx], weights, P.labels[idx])


@dataclass(frozen=True)
class OptimResult:
    params: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float


def solve_optimal(P: WeightedLabeledSet, loss: LossModel) -> OptimResult:
    """Minimize the full weighted objective from q = 0 until the gradient
    norm is at most 1e-8 of its norm at q = 0, by damped Newton with a
    backtracking line search (Boyd & Vandenberghe, Convex Optimization,
    2004, section 9.5). The test is relative, so scaling the points and
    labels does not change where the solve stops.

    A step solves G d = -g/2, G normal_equations' matrix at the curvature
    weights w f''/2, half the Hessian: iteratively reweighted least squares
    for the logistic loss. For squared loss f''/2 = 1, so the first step is
    the closed form G q = h, bit for bit. A singular G is solved with a
    ridge of 1e-10. Separable logistic data (optimum at infinity; probed
    at 2q, never for squared loss), a stalled line search and the step cap
    warn and give converged=False.
    """
    cost_grad = functools.partial(loss.query_grad, P.points, P.labels, P.weights)
    a = loss.augment(P.points)
    q = np.zeros(a.shape[1])
    c, g = cost_grad(q)
    tol = 1e-8 * float(np.linalg.norm(g))
    for it in range(_MAX_NEWTON_STEPS + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol or it == _MAX_NEWTON_STEPS:
            break
        curvature = P.weights * loss._half_curvature(a @ q, P.labels)
        G = loss.normal_equations(P.points, P.labels, curvature)[0]
        try:
            d = np.linalg.solve(G, -0.5 * g)
            if not np.all(np.isfinite(d)):
                raise np.linalg.LinAlgError("non-finite solution")
        except np.linalg.LinAlgError:
            warnings.warn("singular normal matrix; solving with ridge 1e-10")
            d = np.linalg.solve(G + 1e-10 * np.eye(G.shape[0]), -0.5 * g)
        step, slope = 1.0, float(g @ d)
        while step >= 1e-18:
            ct, gt = cost_grad(q + step * d)
            if np.isfinite(ct) and ct <= c + 0.25 * step * slope:
                break
            step *= 0.5
        # no step, or one that lowers neither cost nor gradient (rounding)
        if step < 1e-18 or (ct >= c and np.linalg.norm(gt) >= gnorm):
            warnings.warn(f"line search stalled at gradient norm {gnorm:.3e}; "
                          "returning best iterate")
            return OptimResult(q, False, it, gnorm)
        q, c, g = q + step * d, ct, gt
    if gnorm > tol:
        warnings.warn(f"{it} Newton steps left the gradient norm at {gnorm:.3e}")
        return OptimResult(q, False, it, gnorm)
    # separable logistic data: the gradient is flat, but a scaled-up q improves
    if loss.kind != LINEAR and cost_grad(2.0 * q)[0] < c - 1e-15:
        warnings.warn("objective keeps improving toward infinity; "
                      "no finite minimizer (separable data?)")
        return OptimResult(q, False, it, gnorm)
    return OptimResult(q, True, it, gnorm)
