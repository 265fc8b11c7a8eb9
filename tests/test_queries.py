import warnings

import numpy as np
import pytest

from corelearn import (
    ContractError,
    LossModel,
    MeasurableQuerySpace,
    Query,
    QueryBatch,
    WeightedLabeledSet,
    estimate_M,
    iid_sample,
    set_cost,
    set_costs,
    split_queries,
    trajectory_queries,
)
from corelearn.core import stream_rng
from corelearn.datasets import make_synthetic
from corelearn.queries import GROWTH_RTOL, save_pool_csv


def test_zero_steps_returns_initials(linreg):
    P = WeightedLabeledSet([[1.0]], [1.0], [1.0])
    pool = trajectory_queries(P, linreg, n_starts=1, steps_per_start=0, seed=0)
    assert pool.shape == (1, 1)


def test_hand_gd_step(linreg):
    # single point ([1], 1): gradient at q is 2(q - 1); step 0.5 jumps to 1
    P = WeightedLabeledSet([[1.0]], [1.0], [1.0])
    pool = trajectory_queries(P, linreg, n_starts=1, steps_per_start=1,
                              gd_lr=0.5, init_scale=0.0, seed=0)
    assert np.allclose(pool[0], [0.0])
    assert np.allclose(pool[1], [1.0])


def test_paper_scale_pool_size(linreg):
    P = make_synthetic("linear", 50, 2, 0.1, seed=0)
    pool = trajectory_queries(P, linreg, n_starts=20, steps_per_start=1199,
                              gd_lr=0.01, seed=1)
    assert pool.shape[0] == 20 * 1199 + 20 == 24_000


def test_trajectory_monotone_under_small_steps(linreg):
    P = make_synthetic("linear", 100, 2, 0.2, seed=3)
    gram = (P.points * P.weights[:, None]).T @ P.points
    lip = 2.0 * float(np.linalg.eigvalsh(gram).max())
    pool = trajectory_queries(P, linreg, n_starts=3, steps_per_start=50,
                              gd_lr=0.9 / lip, seed=4)
    per_start = 51
    for s in range(3):
        costs = [set_cost(P, linreg, q) for q in pool[s * per_start:(s + 1) * per_start]]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_split_sizes_and_disjointness():
    pool = np.arange(20, dtype=float).reshape(10, 2)
    tr, va, te = split_queries(pool, (6, 2, 2), seed=5)
    assert [b.array.shape[0] for b in (tr, va, te)] == [6, 2, 2]
    rows = {tuple(r) for batch in (tr, va, te) for r in batch.array}
    assert len(rows) == 10


def test_split_deterministic():
    pool = np.random.default_rng(0).standard_normal((30, 3))
    a = split_queries(pool, (10, 5, 5), seed=7)
    b = split_queries(pool, (10, 5, 5), seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x.array, y.array)


def test_split_allows_empty_when_requested():
    pool = np.zeros((1, 2))
    tr, va, te = split_queries(pool, (1, 0, 0), seed=0)
    assert [b.array.shape[0] for b in (tr, va, te)] == [1, 0, 0]


def test_split_insufficient_pool():
    with pytest.raises(ContractError):
        split_queries(np.zeros((3, 2)), (2, 1, 1), seed=0)


@pytest.mark.parametrize("sizes, message", [
    ((2.5, 1, 1), "split size 0 must be an integer"),
    ((1, True, 1), "split size 1 must be an integer"),
    ((1, 2), "three counts"),
    ((1, 1, 1, 1), "three counts"),
])
def test_split_sizes_are_three_integers(sizes, message):
    with pytest.raises(ContractError, match=message):
        split_queries(np.zeros((9, 2)), sizes, seed=0)
    parts = split_queries(np.zeros((9, 2)), (np.int32(2), 1, 1), seed=0)
    assert [p.array.shape[0] for p in parts] == [2, 1, 1]


@pytest.mark.parametrize("args, name", [((2.5, 3), "n_starts"),
                                        ((1, 3.0), "steps_per_start"),
                                        ((True, 3), "n_starts")])
def test_trajectory_counts_are_integers(linreg, args, name):
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    with pytest.raises(ContractError, match=f"{name} must be an integer"):
        trajectory_queries(P, linreg, *args)


def _uniform_space(linreg, queries):
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    universe = tuple(Query(np.atleast_1d(q)) for q in queries)
    measure = np.full(len(universe), 1.0 / len(universe))
    return MeasurableQuerySpace(P, linreg, universe, measure)


def test_iid_point_mass(linreg):
    space = MeasurableQuerySpace(
        WeightedLabeledSet([[1.0]], [1.0], [0.0]), linreg,
        (Query([2.0]),), [1.0])
    batch = iid_sample(space, 5, seed=1)
    assert np.allclose(batch.array, 2.0)


@pytest.mark.parametrize("k", [2.5, True])
def test_iid_k_is_an_integer(linreg, k):
    space = _uniform_space(linreg, [1.0, 3.0])
    with pytest.raises(ContractError, match="k must be an integer"):
        iid_sample(space, k)
    assert iid_sample(space, np.int64(4), seed=1).array.shape == (4, 1)


def test_iid_single_draw_from_support(linreg):
    space = _uniform_space(linreg, [1.0, 3.0])
    batch = iid_sample(space, 1, seed=2)
    assert batch.array[0, 0] in (1.0, 3.0)


def test_iid_frequencies(linreg):
    space = _uniform_space(linreg, [1.0, 3.0])
    batch = iid_sample(space, 10_000, seed=3)
    freq = np.mean(batch.array[:, 0] == 1.0)
    assert abs(freq - 0.5) < 0.02


def test_iid_total_variation(linreg):
    rng = np.random.default_rng(4)
    support = rng.standard_normal(10)
    space = _uniform_space(linreg, support)
    batch = iid_sample(space, 10_000, seed=5)
    tv = 0.0
    for v in support:
        emp = np.mean(batch.array[:, 0] == v)
        tv += abs(emp - 0.1)
    assert tv / 2.0 <= 0.05


def test_pool_csv_roundtrip(tmp_path, linreg):
    pool = np.random.default_rng(6).standard_normal((7, 3))
    path = tmp_path / "pool.csv"
    save_pool_csv(pool, path)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    assert np.array_equal(back, pool)


def test_divergent_trajectory_truncates(linreg):
    P = make_synthetic("linear", 20, 2, 0.1, seed=7)
    with pytest.warns(UserWarning, match="diverged"):
        pool = trajectory_queries(P, linreg, n_starts=1, steps_per_start=200,
                                  gd_lr=1e6, seed=8)
    assert pool.shape[0] < 201


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_growing_gradient_cuts_a_start_whose_cost_stays_finite(kind):
    """A step too large for the loss makes the gradient grow long before
    anything overflows: lr 3 on squared loss, lr 1e6 on the logistic loss,
    whose gradient is bounded. Each start stops before its first grown
    gradient, with one warning per start, in start order."""
    task = "linear" if kind == "linear_regression" else "logistic"
    P = make_synthetic(task, 300, 3, 0.5, seed=12)
    pool, caught = _pool_and_warnings(lambda: trajectory_queries(
        P, LossModel(kind), 6, 40, gd_lr=3.0 if task == "linear" else 1e6,
        seed=13))
    assert caught == [f"trajectory {s} diverged; truncating" for s in range(6)]
    assert np.isfinite(pool).all() and len(pool) < 6 * 41


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_converged_starts_are_not_cut(kind):
    """Run to convergence, the gradient norm falls to about 1e-15 of its
    first and then jitters by any ratio from step to step; measured against
    the first norm, that jitter cuts no start."""
    task = "linear" if kind == "linear_regression" else "logistic"
    P = make_synthetic(task, 300, 3, 0.5, seed=12)
    loss = LossModel(kind, intercept=True)
    pool, caught = _pool_and_warnings(lambda: trajectory_queries(
        P, loss, 6, 3000, gd_lr=0.05 if task == "linear" else 3.0, seed=13))
    assert not caught and pool.shape == (6 * 3001, 4)
    last = pool[3000::3001]
    _, g = loss.query_grads(P.points, P.labels, P.weights)(last)
    _, g0 = loss.query_grads(P.points, P.labels, P.weights)(pool[::3001])
    assert np.all(np.linalg.norm(g, axis=1)
                  <= 1e-12 * np.linalg.norm(g0, axis=1))


def test_query_batch_is_its_query_matrix(linreg):
    rng = np.random.default_rng(11)
    P = WeightedLabeledSet(rng.standard_normal((30, 2)), rng.random(30),
                           rng.standard_normal(30))
    batch = QueryBatch(rng.standard_normal((7, 2)))
    assert np.array_equal(set_costs(P, linreg, batch),
                          set_costs(P, linreg, batch.array))
    assert np.array_equal(
        linreg.costs(P.points, P.labels, P.weights, batch),
        linreg.costs(P.points, P.labels, P.weights, batch.array))
    assert (estimate_M(P, linreg, batch, level="set")
            == estimate_M(P, linreg, batch.array, level="set"))
    assert np.asarray(batch) is batch.array
    copy = np.array(batch)
    assert np.array_equal(copy, batch.array)
    assert not np.shares_memory(copy, batch.array)


def _per_start_pool(P, loss, n_starts, steps_per_start, gd_lr, seed):
    """trajectory_queries as one start after another, each step one
    query_grad over the data: the reference the stepped starts must match.
    A start stops before the first iterate whose cost is not finite, or
    whose gradient norm grows by more than GROWTH_RTOL of its first."""
    rng = stream_rng(seed, "trajectory_queries")
    out = []
    for start in range(n_starts):
        q = rng.standard_normal(loss.query_dim(P.dim))
        out.append(q.copy())
        _, g = loss.query_grad(P.points, P.labels, P.weights, q)
        first = size = np.linalg.norm(g)
        for _ in range(steps_per_start):
            q = q - gd_lr * g
            cost, before = np.inf, size
            if np.all(np.isfinite(q)):
                with np.errstate(over="ignore", invalid="ignore"):
                    cost, g = loss.query_grad(P.points, P.labels, P.weights, q)
                    size = np.linalg.norm(g)
            if not np.isfinite(cost) or size > before + GROWTH_RTOL * first:
                warnings.warn(f"trajectory {start} diverged; truncating")
                break
            out.append(q.copy())
    return np.stack(out)


def _pool_and_warnings(make_pool):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pool = make_pool()
    return pool, [str(w.message) for w in caught]


# The Gram form's pool against the per-start loop, as the largest row-norm
# relative deviation: measured at most 5.1e-14 on the cases below, 7.5e-14
# on a 5000-point pool with an intercept (20 starts of 119 steps).
GRAM_POOL_RTOL = 1e-12


@pytest.mark.parametrize("gd_lr, diverged", [(0.05, 0), (1e6, 6)],
                         ids=["converging", "diverging"])
@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_stepped_starts_match_the_per_start_loop(kind, intercept, gd_lr,
                                                 diverged):
    task = "linear" if kind == "linear_regression" else "logistic"
    P = make_synthetic(task, 300, 3, 0.5, seed=12)
    loss = LossModel(kind, intercept)
    args = (P, loss, 6, 40, gd_lr, 13)
    pool, caught = _pool_and_warnings(
        lambda: trajectory_queries(*args[:4], gd_lr=gd_lr, seed=13))
    ref, ref_caught = _pool_and_warnings(lambda: _per_start_pool(*args))
    assert caught == ref_caught and len(caught) == diverged
    assert pool.shape == ref.shape
    if kind == "logistic_regression":
        assert np.array_equal(pool, ref)
    else:
        dev = np.linalg.norm(pool - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert dev.max() <= GRAM_POOL_RTOL
