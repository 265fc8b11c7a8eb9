"""Query generation from optimization trajectories, splitting, and sampling."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    MeasurableQuerySpace,
    WeightedLabeledSet,
    stream_rng,
)
from .losses import LossModel


@dataclass(frozen=True)
class QueryBatch:
    """An ordered batch of queries."""

    array: np.ndarray  # (k, d')

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.array, dtype=float))
        object.__setattr__(self, "array", a)

    def __len__(self):
        return self.array.shape[0]

    @property
    def dim(self):
        return self.array.shape[1]


def as_query_matrix(Q) -> np.ndarray:
    """The (k, d') float matrix of a QueryBatch or of an array of queries."""
    return np.atleast_2d(np.asarray(getattr(Q, "array", Q), dtype=float))


def trajectory_queries(P: WeightedLabeledSet, loss: LossModel, n_starts: int,
                       steps_per_start: int, gd_lr: float = 0.01,
                       init_scale: float = 1.0, seed: int = 0) -> np.ndarray:
    """Queries recorded along plain gradient-descent runs on the full data.

    Each of n_starts Gaussian initializations contributes its starting point
    plus the iterate after every step. A trajectory whose cost goes
    non-finite is truncated with a warning.
    """
    if n_starts < 1:
        raise ContractError("n_starts must be >= 1")
    if steps_per_start < 0:
        raise ContractError("steps_per_start must be >= 0")
    rng = stream_rng(seed, "trajectory_queries")
    dq = loss.query_dim(P.dim)
    out = []
    for start in range(n_starts):
        q = init_scale * rng.standard_normal(dq)
        out.append(q.copy())
        _, g = loss.query_grad(P.points, P.labels, P.weights, q)
        for _ in range(steps_per_start):
            q = q - gd_lr * g
            cost = np.inf
            if np.all(np.isfinite(q)):
                # the cost decides: a non-finite gradient beside a finite
                # cost makes the next iterate non-finite, which truncates
                with np.errstate(over="ignore", invalid="ignore"):
                    cost, g = loss.query_grad(P.points, P.labels, P.weights, q)
            if not np.isfinite(cost):
                warnings.warn(f"trajectory {start} diverged; truncating")
                break
            out.append(q.copy())
    return np.stack(out)


def split_queries(pool, sizes, seed: int = 0):
    """Shuffle the pool by seed and slice into train/validation/test batches."""
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    k_train, k_val, k_test = (int(s) for s in sizes)
    if min(k_train, k_val, k_test) < 0:
        raise ContractError("split sizes must be nonnegative")
    total = k_train + k_val + k_test
    if total > pool.shape[0]:
        raise ContractError(
            f"requested {total} queries from a pool of {pool.shape[0]}")
    rng = stream_rng(seed, "split_queries")
    order = rng.permutation(pool.shape[0])
    shuffled = pool[order]
    train = QueryBatch(shuffled[:k_train].reshape(k_train, pool.shape[1]))
    val = QueryBatch(shuffled[k_train:k_train + k_val].reshape(k_val, pool.shape[1]))
    test = QueryBatch(shuffled[k_train + k_val:total].reshape(k_test, pool.shape[1]))
    return train, val, test


def iid_sample(space: MeasurableQuerySpace, k: int, seed: int = 0) -> QueryBatch:
    """k independent draws (with replacement) from the finite query measure."""
    if k < 1:
        raise ContractError("k must be >= 1")
    rng = stream_rng(seed, "iid_sample")
    return QueryBatch(space.query_matrix()[space.draw(rng, k)])


def save_pool_csv(pool, path):
    """One query per row, plain comma-separated floats."""
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    with open(path, "w") as fh:
        for row in pool:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_pool_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)
