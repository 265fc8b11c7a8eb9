"""Query generation from optimization trajectories, splitting, and sampling."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    MeasurableQuerySpace,
    WeightedLabeledSet,
    check_count,
    check_real,
    query_matrix,
    stream_rng,
)
from .datasets import write_csv
from .losses import LossModel


@dataclass(frozen=True)
class QueryBatch:
    """An ordered batch of queries; np.asarray(batch) is its (k, d') matrix."""

    array: np.ndarray  # (k, d')

    def __post_init__(self):
        object.__setattr__(self, "array", query_matrix(self.array, "array"))

    def __array__(self, dtype=None, copy=None):
        a = np.asarray(self.array, dtype=dtype)
        return a.copy() if copy else a


# A start is cut at the first iterate whose gradient norm exceeds the one
# before by more than this share of the start's first gradient norm. For a
# convex L-smooth loss and a step of at most 2/L the gradient norm never
# grows (Nesterov, Introductory Lectures on Convex Optimization, 2004,
# Thm 2.1.5), so growth shows a step too large where the start is. Measured
# against the first norm, not the one before, rounding does not cut a start
# that has converged: there the norm sits near 1e-15 of the first, and
# steps of it grow by any ratio.
GROWTH_RTOL = 1e-6


def trajectory_queries(P: WeightedLabeledSet, loss: LossModel, n_starts: int,
                       steps_per_start: int, gd_lr: float = 0.01,
                       init_scale: float = 1.0, seed: int = 0) -> np.ndarray:
    """Queries recorded along plain gradient-descent runs on the full data.

    Each of n_starts Gaussian initializations contributes its starting point
    plus the iterate after every step; the rows are start-major. A
    trajectory diverges at the first iterate whose gradient norm grows (see
    GROWTH_RTOL) or whose entries or cost are not finite, and is truncated
    before it, with a warning; the warnings come in start order.

    The starts are drawn up front, in start order, and step together: each
    step takes the live starts' iterates as one (starts, d') matrix to
    loss.query_grads, which returns whether each cost is finite and each
    gradient; the cost itself is never needed. For the logistic loss each
    gradient is query_grad's, bit for bit, and the cost is computed only
    where a bound on it cannot prove it finite. For squared loss it is the
    Gram form, O(d'^2) per iterate after one pass over the data. It serves
    this step only, and moves an iterate from the direct form's by at most
    about 1e-13 relative to its norm; a diverging start still stops at the
    direct form's iterate.
    """
    check_count(n_starts, "n_starts", 1)
    check_count(steps_per_start, "steps_per_start", 0)
    check_real(gd_lr, "gd_lr")
    check_real(init_scale, "init_scale", closed=True)
    rng = stream_rng(seed, "trajectory_queries")
    q = init_scale * rng.standard_normal((n_starts, loss.query_dim(P.dim)))
    path = np.empty((n_starts, steps_per_start + 1, q.shape[1]))
    path[:, 0] = q
    length = np.full(n_starts, steps_per_start + 1)
    grads = loss.query_grads(P.points, P.labels, P.weights)
    live = np.arange(n_starts)
    _, g = grads(q)
    size = np.linalg.norm(g, axis=1)
    slack = GROWTH_RTOL * size
    for step in range(1, steps_per_start + 1):
        q = q - gd_lr * g
        # the cost's finiteness is the backstop: a nan gradient beside a
        # finite cost makes the next iterate non-finite, which truncates
        ok = np.zeros(live.size, dtype=bool)
        g = np.empty_like(q)
        finite = np.all(np.isfinite(q), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            if finite.any():
                ok[finite], g[finite] = grads(q[finite])
            before, size = size, np.linalg.norm(g, axis=1)
        ok &= ~(size > before + slack)
        length[live[~ok]] = step
        path[live[ok], step] = q[ok]
        live, q, g, size, slack = (live[ok], q[ok], g[ok], size[ok],
                                   slack[ok])
        if not live.size:
            break
    for start in np.flatnonzero(length <= steps_per_start):
        warnings.warn(f"trajectory {start} diverged; truncating")
    return np.concatenate([path[s, :length[s]] for s in range(n_starts)])


def split_sizes(sizes) -> tuple[int, int, int]:
    """The train, validation and test sizes of a split: a sequence (not a
    str) of three integers, each >= 0, or a ContractError naming the split."""
    counts = tuple(sizes) if np.iterable(sizes) else ()
    if len(counts) != 3 or isinstance(sizes, str):
        raise ContractError(f"split sizes must be three counts, got {sizes!r}")
    return tuple(check_count(s, f"split size {i}", 0)
                 for i, s in enumerate(counts))


def split_queries(pool, sizes, seed: int = 0):
    """Shuffle the pool by seed and slice into train/validation/test batches
    of the three split_sizes."""
    pool = query_matrix(pool, "pool")
    rng = stream_rng(seed, "split_queries")
    k_train, k_val, k_test = split_sizes(sizes)
    total = k_train + k_val + k_test
    if total > pool.shape[0]:
        raise ContractError(
            f"requested {total} queries from a pool of {pool.shape[0]}")
    order = rng.permutation(pool.shape[0])
    parts = np.split(pool[order][:total], [k_train, k_train + k_val])
    return tuple(QueryBatch(part) for part in parts)


def iid_sample(space: MeasurableQuerySpace, k: int, seed: int = 0) -> QueryBatch:
    """k independent draws (with replacement) from the finite query measure."""
    check_count(k, "k", 1)
    rng = stream_rng(seed, "iid_sample")
    return QueryBatch(space.universe[space.draw(rng, k)])


def save_pool_csv(pool, path):
    """One query per row, plain comma-separated floats."""
    write_csv(path, query_matrix(pool, "pool"))
