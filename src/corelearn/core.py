"""Domain types: weighted labeled sets, coresets, queries, and cost evaluation.

All heavy numerics go through numpy. Sums over points/queries use np.sum,
whose pairwise accumulation keeps floating-point drift bounded on large n.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ContractError",
    "NumericError",
    "DegenerateInputError",
    "WeightedLabeledSet",
    "Coreset",
    "Query",
    "MeasurableQuerySpace",
    "total_cost",
    "set_cost",
    "set_costs",
    "expected_cost",
    "stream_rng",
]


class ContractError(ValueError):
    """A caller violated an operation's preconditions (shape/value contract)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared mid-computation.

    ``index`` points at the offending per-point term when known.
    """

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class DegenerateInputError(ValueError):
    """Input is structurally valid but unusable (e.g. all-zero weights)."""


def _as_matrix(x, name):
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ContractError(f"{name} must be a 2-d array, got ndim={a.ndim}")
    return a


def _as_vector(x, name):
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ContractError(f"{name} must be a 1-d array, got ndim={a.ndim}")
    return a


@dataclass(frozen=True)
class WeightedLabeledSet:
    """The input data (P, w, b): n points with per-point weights and labels."""

    points: np.ndarray
    weights: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = _as_matrix(self.points, "points")
        w = _as_vector(self.weights, "weights")
        b = _as_vector(self.labels, "labels")
        n = pts.shape[0]
        if n < 1:
            raise ContractError("need at least one point")
        if w.shape[0] != n or b.shape[0] != n:
            raise ContractError(
                f"size mismatch: {n} points, {w.shape[0]} weights, {b.shape[0]} labels"
            )
        if not np.all(np.isfinite(pts)):
            raise ContractError("non-finite entries in points")
        if not np.all(np.isfinite(w)):
            raise ContractError("non-finite entries in weights")
        if not np.all(np.isfinite(b)):
            raise ContractError("non-finite entries in labels")
        if np.any(w < 0):
            raise ContractError("weights must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", b)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def normalized(self) -> "WeightedLabeledSet":
        """Return a copy whose weights sum to 1."""
        s = float(np.sum(self.weights))
        if s <= 0.0:
            raise DegenerateInputError("cannot normalize all-zero weights")
        return WeightedLabeledSet(self.points, self.weights / s, self.labels)


@dataclass
class Coreset:
    """The learnable summary (C, u, y): synthetic points, weights, labels.

    Mutable: a learner owns and updates it in place between snapshots.
    Weights are nonnegative at every point observable outside an optimizer
    step (the learner projects after each update).
    """

    points: np.ndarray
    weights: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.points = _as_matrix(self.points, "points")
        self.weights = _as_vector(self.weights, "weights")
        self.labels = _as_vector(self.labels, "labels")
        m = self.points.shape[0]
        if m < 1:
            raise ContractError("coreset needs at least one point")
        if self.weights.shape[0] != m or self.labels.shape[0] != m:
            raise ContractError("coreset points/weights/labels size mismatch")
        for name in ("points", "weights", "labels"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ContractError(f"non-finite entries in coreset {name}")

    @property
    def m(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def copy(self) -> "Coreset":
        return Coreset(self.points.copy(), self.weights.copy(), self.labels.copy())

    def as_set(self) -> WeightedLabeledSet:
        return WeightedLabeledSet(self.points, np.maximum(self.weights, 0.0), self.labels)


@dataclass(frozen=True)
class Query:
    """A candidate model: one parameter vector evaluated against the data."""

    params: np.ndarray

    def __post_init__(self):
        p = _as_vector(self.params, "params")
        if not np.all(np.isfinite(p)):
            raise ContractError("non-finite query parameters")
        object.__setattr__(self, "params", p)

    @property
    def dim(self):
        return self.params.shape[0]


# Buckets of the guide table that MeasurableQuerySpace.draw indexes its CDF
# with. A power of two, so that u * GUIDE_BUCKETS is exact for every uniform
# u in [0, 1) and its floor is below GUIDE_BUCKETS.
GUIDE_BUCKETS = 2 ** 12


@dataclass(frozen=True)
class MeasurableQuerySpace:
    """A dataset + loss + finite query universe + probability vector over it.

    The finite universe stands in for a general query distribution; it is the
    representation under which expectations are exactly computable. Its
    (size, d') query matrix is built once, at construction, and is read-only.
    """

    ground: WeightedLabeledSet
    loss: "object"  # LossModel; kept loose to avoid an import cycle
    universe: tuple
    measure: np.ndarray

    def __post_init__(self):
        universe = tuple(self.universe)
        if len(universe) < 1:
            raise ContractError("universe must be non-empty")
        dim = universe[0].dim
        for i, q in enumerate(universe):
            if q.dim != dim:
                raise ContractError(
                    f"universe query {i} has dimension {q.dim}, query 0 has {dim}")
        qm = np.stack([q.params for q in universe])
        qm.flags.writeable = False
        mu = _as_vector(self.measure, "measure")
        if mu.shape[0] != len(universe):
            raise ContractError("measure length must match universe size")
        if not np.all(np.isfinite(mu)):
            raise ContractError("non-finite entries in measure")
        if np.any(mu < 0):
            raise ContractError("measure entries must be nonnegative")
        if abs(float(np.sum(mu)) - 1.0) > 1e-12:
            raise ContractError("measure must sum to 1 within 1e-12")
        # Generator.choice's CDF, and for each bucket [j/G, (j+1)/G) the
        # first index whose CDF exceeds the bucket's lower end.
        cdf = mu.cumsum()
        cdf /= cdf[-1]
        guide = cdf.searchsorted(
            np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS, side="right")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "measure", mu)
        object.__setattr__(self, "_queries", qm)
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_guide", guide)

    @property
    def size(self):
        return len(self.universe)

    def query_matrix(self) -> np.ndarray:
        return self._queries

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Indices of i.i.d. draws from the measure, an int array of `shape`.

        Equal, draw for draw and in the generator's state afterwards, to
        rng.choice(self.size, size=shape, p=self.measure): the same uniforms,
        rng.random(shape), are mapped through the same CDF to
        cdf.searchsorted(u, side="right"), the unique i with
        cdf[i - 1] <= u < cdf[i]. Instead of a binary search per uniform, a
        guide table (Chen & Asau, 1974) looks up the answer for the lower end
        j/G of u's bucket, j = floor(u G). That guess satisfies
        cdf[guess - 1] <= j/G <= u by construction, so it is exact whenever
        u < cdf[guess]. The other draws, about size/GUIDE_BUCKETS of them,
        go to searchsorted.
        """
        u = rng.random(shape)
        idx = self._guide[(u * GUIDE_BUCKETS).astype(np.intp)]
        miss = u >= self._cdf[idx]
        if miss.any():
            idx[miss] = self._cdf.searchsorted(u[miss], side="right")
        return idx


def total_cost(points, weights, labels, loss, q) -> float:
    """Weighted sum of per-point losses at query q."""
    pts = _as_matrix(points, "points")
    w = _as_vector(weights, "weights")
    b = _as_vector(labels, "labels")
    qv = q.params if isinstance(q, Query) else _as_vector(q, "query")
    if w.shape[0] != pts.shape[0] or b.shape[0] != pts.shape[0]:
        raise ContractError("points/weights/labels size mismatch")
    if np.any(w < 0):
        raise ContractError("weights must be nonnegative")
    per_point = loss.pointwise(pts, b, qv)
    bad = ~np.isfinite(per_point)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NumericError(f"non-finite per-point loss at index {idx}", index=idx)
    out = float(np.sum(w * per_point))
    if not np.isfinite(out):
        raise NumericError("non-finite total cost")
    return out


def set_cost(dataset, loss, q) -> float:
    """total_cost for a WeightedLabeledSet or Coreset."""
    return total_cost(dataset.points, dataset.weights, dataset.labels, loss, q)


def set_costs(dataset, loss, queries) -> np.ndarray:
    """set_cost for every row of a query matrix, shape (k,).

    One blocked loss.costs evaluation, under total_cost's checks: negative
    weights raise ContractError and a non-finite cost raises NumericError.
    """
    if np.any(dataset.weights < 0):
        raise ContractError("weights must be nonnegative")
    costs = loss.costs(dataset.points, dataset.labels, dataset.weights, queries)
    bad = ~np.isfinite(costs)
    if np.any(bad):
        raise NumericError(f"non-finite total cost at query {int(np.argmax(bad))}")
    return costs


def expected_cost(space: MeasurableQuerySpace, dataset=None) -> float:
    """Exact expectation of the total cost over the finite query universe."""
    if dataset is None:
        dataset = space.ground
    costs = set_costs(dataset, space.loss, space.query_matrix())
    return float(np.sum(space.measure * costs))


def stream_rng(root_seed: int, *labels) -> np.random.Generator:
    """Named deterministic RNG stream derived from one root seed.

    Every consumer of randomness derives its generator here so that a single
    root seed reproduces a whole experiment, including parallel sweep cells.
    """
    words = [int(root_seed) & 0xFFFFFFFF]
    for lab in labels:
        words.append(zlib.crc32(str(lab).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(words))
