"""Domain types: weighted labeled sets, coresets, queries, and cost evaluation.

All heavy numerics go through numpy. Every weighted sum over points is
weights @ values, and set_costs is the one checked way to a set's cost.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContractError",
    "NumericError",
    "DegenerateInputError",
    "WeightedLabeledSet",
    "Coreset",
    "Query",
    "MeasurableQuerySpace",
    "set_cost",
    "set_costs",
    "expected_cost",
    "stream_rng",
]


class ContractError(ValueError):
    """A caller violated an operation's preconditions (shape/value contract)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared mid-computation."""


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


def query_matrix(queries, name, width=None) -> np.ndarray:
    """queries as a float (k, d') matrix, not copied where they are one; an
    empty sequence is (0, 0). A ragged sequence, entries that are not
    numbers or any other shape is a ContractError naming the input. Given
    a width, the loss's query dim, rows of another length are one too, and
    no queries are (0, width)."""
    try:
        qm = np.asarray(queries, dtype=float)
    except (TypeError, ValueError) as exc:  # a ragged sequence, or not numbers
        rows = queries if np.iterable(queries) else [queries]
        dims = [np.asarray(q, dtype=object).size for q in rows]
        bad = [i for i, dim in enumerate(dims) if dim != dims[0]]
        if not bad:
            raise ContractError(f"{name} is not numbers: {exc}") from None
        raise ContractError(f"{name} query {bad[0]} has dimension "
                            f"{dims[bad[0]]}, query 0 has {dims[0]}") from None
    if qm.shape == (0,):
        qm = qm.reshape(0, 0)
    if qm.ndim != 2:
        raise ContractError(
            f"{name} must be a (k, d') matrix, got shape {qm.shape}")
    if width is not None and qm.shape[1] != width:
        if qm.shape[0]:
            raise ContractError(f"{name} query dim {qm.shape[1]} does not "
                                f"match feature dim {width}")
        qm = qm.reshape(0, width)
    return qm


def check_count(value, name, low=None) -> int:
    """value as an int, at least low when low is given. A bool, anything
    but an int or a NumPy integer, or a count below low is a ContractError
    naming the parameter."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ContractError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def check_real(value, name, closed=False) -> float:
    """value as a float: a real number, finite and > 0, or >= 0 when
    closed. An int passes; a bool, a non-number, a NaN, an infinity or a
    value out of range is a ContractError naming the parameter."""
    bound = ">= 0" if closed else "> 0"
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        x = float(value)
        if math.isfinite(x) and (x >= 0 if closed else x > 0):
            return x
    raise ContractError(f"{name} must be finite and {bound}, got {value!r}")


def check_probability(value, name) -> float:
    """value as a float in (0, 1), as a bound's failure probability delta
    is; anything else is a ContractError naming the parameter."""
    if (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and 0 < value < 1):
        return float(value)
    raise ContractError(f"{name} must be in (0, 1), got {value!r}")


# Most results remember() keeps on one WeightedLabeledSet; the oldest goes
# first. A sweep reads four: the costs of three query splits and f(P, q*). A
# bounds-verify body of the benchmark reads five: the costs of the universe,
# the training sample, the pool and the test split, and f(P, q*).
MEMO_ENTRIES = 8

RATIO_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedLabeledSet:
    """A weighted labeled set (P, w, b): n points with per-point weights and
    labels. The data is one, and so is a coreset of it.

    Its arrays are read-only copies of the caller's, so that what remember()
    keeps on the set stays true of it.
    """

    points: np.ndarray
    weights: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        """Check (points, weights, labels) as float arrays of shapes (n, d),
        (n,), (n,): at least one point, matching sizes, finite entries,
        nonnegative weights. Each message names the set's class."""
        owner = type(self).__name__
        arrays = {"points": _as_matrix(self.points, "points"),
                  "weights": _as_vector(self.weights, "weights"),
                  "labels": _as_vector(self.labels, "labels")}
        n, w, b = (a.shape[0] for a in arrays.values())
        if n < 1:
            raise ContractError(f"{owner} needs at least one point")
        if w != n or b != n:
            raise ContractError(
                f"{owner} size mismatch: {n} points, {w} weights, {b} labels")
        for name, a in arrays.items():
            if not np.all(np.isfinite(a)):
                raise ContractError(f"non-finite entries in {owner} {name}")
        if np.any(arrays["weights"] < 0):
            raise ContractError(f"{owner} weights must be nonnegative")
        for name, a in arrays.items():
            a = np.array(a)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        """Pickle and copy the arrays alone: the set is rebuilt through its
        constructor, read-only and keeping nothing."""
        return type(self), (self.points, self.weights, self.labels)

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
        return type(self)(self.points, self.weights / s, self.labels)


class Coreset(WeightedLabeledSet):
    """The learned or sampled summary (C, u, y) of a data set: a weighted
    labeled set like the data, judged by the same costs."""


@dataclass(frozen=True)
class Query:
    """A candidate model: one parameter vector, array-like as that vector."""

    params: np.ndarray

    def __post_init__(self):
        p = _as_vector(self.params, "params")
        if not np.all(np.isfinite(p)):
            raise ContractError("non-finite query parameters")
        object.__setattr__(self, "params", p)

    def __array__(self, dtype=None, copy=None):
        a = np.asarray(self.params, dtype=dtype)
        return a.copy() if copy else a


# Buckets of the guide table that MeasurableQuerySpace.draw indexes its CDF
# with. A power of two, so that u * GUIDE_BUCKETS is exact for every uniform
# u in [0, 1) and its floor is below GUIDE_BUCKETS.
GUIDE_BUCKETS = 2 ** 12


@dataclass(frozen=True, eq=False)
class MeasurableQuerySpace:
    """A dataset + loss + finite query universe + probability vector over it.

    The finite universe stands in for a general query distribution; it is the
    representation under which expectations are exactly computable. It is
    kept as one read-only (size, d') matrix of any array-like of queries.
    """

    ground: WeightedLabeledSet
    loss: "object"  # LossModel; kept loose to avoid an import cycle
    universe: np.ndarray
    measure: np.ndarray

    def __post_init__(self):
        qm = np.array(query_matrix(self.universe, "universe"))
        if qm.size == 0:
            raise ContractError(f"universe must be a non-empty (size, d') "
                                f"matrix, got shape {qm.shape}")
        qm = query_matrix(qm, "universe", self.loss.query_dim(self.ground.dim))
        if not np.all(np.isfinite(qm)):
            raise ContractError("non-finite entries in universe")
        qm.flags.writeable = False
        mu = _as_vector(self.measure, "measure")
        if mu.shape[0] != qm.shape[0]:
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
        object.__setattr__(self, "universe", qm)
        object.__setattr__(self, "measure", mu)
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_guide", guide)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Indices of i.i.d. draws from the measure, an int array of `shape`.

        Equal, draw for draw and in the generator's state afterwards, to
        rng.choice(len(self.universe), size=shape, p=self.measure): the same
        uniforms, rng.random(shape), are mapped through the same CDF to
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


def remember(P: WeightedLabeledSet, key, compute):
    """compute() on the first call with key, kept on P for later calls.

    Only a result that returned is kept, so a failure is raised again at
    every call. At most MEMO_ENTRIES results are kept; the oldest goes first.
    """
    memo = P._memo
    if key not in memo:
        memo[key] = compute()
        if len(memo) > MEMO_ENTRIES:
            del memo[next(iter(memo))]
    return memo[key]


def set_cost(dataset, loss, q) -> float:
    """set_costs of a weighted set at one query vector q."""
    q = _as_vector(q, "query")
    return float(set_costs(dataset, loss, q.reshape(1, -1))[0])


def set_costs(dataset, loss, queries) -> np.ndarray:
    """Total cost of a weighted set at every row of a query matrix, shape
    (k,): the one checked cost path.

    One blocked loss.costs evaluation. Negative weights raise ContractError
    and a non-finite cost raises NumericError.
    """
    if np.any(dataset.weights < 0):
        raise ContractError("weights must be nonnegative")
    costs = loss.costs(dataset.points, dataset.labels, dataset.weights, queries)
    bad = ~np.isfinite(costs)
    if np.any(bad):
        raise NumericError(f"non-finite total cost at query {int(np.argmax(bad))}")
    return costs


def check_coreset(P, coreset) -> None:
    """A ContractError naming both dimensions unless the coreset's points
    have the data's: checked before any solve or scoring, where the
    mismatch would show as a query width."""
    if coreset.dim != P.dim:
        raise ContractError(f"coreset points have dimension {coreset.dim}, "
                            f"the data's have {P.dim}")


def scored(dataset, loss, queries, name="queries"):
    """query_matrix(queries, name) at the loss's width and set_costs of its
    rows.

    The set, data or coreset, keeps the costs, for later calls to read and
    never write, keyed on the queries' content, since their owner may
    change them."""
    qm = query_matrix(queries, name, loss.query_dim(dataset.dim))
    key = ("costs", loss, qm.shape, qm.tobytes())
    return qm, remember(dataset, key, lambda: set_costs(dataset, loss, qm))


def floored(qm: np.ndarray, f_p: np.ndarray):
    """The scored queries whose cost exceeds RATIO_FLOOR, where a ratio
    f_C / f_P is defined: their matrix, their costs and the number dropped."""
    keep = f_p > RATIO_FLOOR
    return qm[keep], f_p[keep], int(np.sum(~keep))


def expected_cost(space: MeasurableQuerySpace) -> float:
    """Exact expectation of the total cost over the finite query universe."""
    costs = scored(space.ground, space.loss, space.universe)[1]
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
