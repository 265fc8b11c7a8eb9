import math

import numpy as np
import pytest

from corelearn import (
    ContractError,
    Coreset,
    DegenerateInputError,
    MeasurableQuerySpace,
    NumericError,
    Query,
    WeightedLabeledSet,
    expected_cost,
    set_cost,
    set_costs,
    total_cost,
)
from corelearn.losses import LossModel


def test_total_cost_exact_fit(linreg):
    assert total_cost([[1.0]], [1.0], [2.0], linreg, Query([2.0])) == 0.0


def test_total_cost_hand_value(linreg):
    # 0.5 * 1^2 + 0.5 * 2^2
    got = total_cost([[1.0], [2.0]], [0.5, 0.5], [0.0, 0.0], linreg, Query([1.0]))
    assert got == pytest.approx(2.5, abs=1e-12)


def test_total_cost_logreg_zero_query(logreg):
    got = total_cost([[3.0, -2.0]], [1.0], [1.0], logreg, Query([0.0, 0.0]))
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_total_cost_dimension_mismatch(linreg):
    with pytest.raises(ContractError):
        total_cost([[1.0, 2.0]], [1.0], [0.0], linreg, Query([1.0]))


def test_total_cost_weight_count_mismatch(linreg):
    with pytest.raises(ContractError):
        total_cost([[1.0]], [1.0, 1.0], [0.0], linreg, Query([1.0]))


def test_total_cost_linearity_in_weights(linreg):
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = rng.standard_normal((6, 3))
        w = rng.random(6)
        b = rng.standard_normal(6)
        q = Query(rng.standard_normal(3))
        alpha = float(rng.random() * 5)
        c1 = total_cost(pts, alpha * w, b, linreg, q)
        c2 = alpha * total_cost(pts, w, b, linreg, q)
        assert c1 == pytest.approx(c2, rel=1e-10)


def test_expected_cost_point_mass(tiny_set, linreg):
    q = Query([1.0])
    space = MeasurableQuerySpace(tiny_set, linreg, (q,), [1.0])
    assert expected_cost(space) == set_cost(tiny_set, linreg, q)


def test_expected_cost_even_mixture(linreg):
    # two queries with costs 1 and 3 under the half/half measure
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    qa, qb = Query([1.0]), Query([math.sqrt(3.0)])
    space = MeasurableQuerySpace(P, linreg, (qa, qb), [0.5, 0.5])
    assert expected_cost(space) == pytest.approx(2.0, abs=1e-12)


def test_expected_cost_ignores_zero_mass(linreg):
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    qa, qb = Query([1.0]), Query([math.sqrt(3.0)])
    space = MeasurableQuerySpace(P, linreg, (qa, qb), [1.0, 0.0])
    assert expected_cost(space) == pytest.approx(1.0, abs=1e-12)


def test_expected_cost_uniform_equals_mean(linreg):
    rng = np.random.default_rng(11)
    P = WeightedLabeledSet(rng.standard_normal((5, 2)), rng.random(5),
                           rng.standard_normal(5))
    universe = tuple(Query(rng.standard_normal(2)) for _ in range(8))
    space = MeasurableQuerySpace(P, linreg, universe, np.full(8, 1.0 / 8))
    mean = np.mean([set_cost(P, linreg, q) for q in universe])
    assert expected_cost(space) == pytest.approx(mean, abs=1e-12)


def test_identity_coreset_matches_input_exactly(linreg):
    rng = np.random.default_rng(3)
    P = WeightedLabeledSet(rng.standard_normal((30, 2)), rng.random(30),
                           rng.standard_normal(30))
    C = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    for _ in range(10):
        q = Query(rng.standard_normal(2))
        assert set_cost(C, linreg, q) == set_cost(P, linreg, q)


def test_normalize_weights():
    s = WeightedLabeledSet([[0.0], [0.0]], [2.0, 2.0], [0.0, 0.0])
    assert np.allclose(s.normalized().weights, [0.5, 0.5], atol=1e-12)
    s1 = WeightedLabeledSet([[0.0]], [1.0], [0.0])
    assert s1.normalized().weights[0] == 1.0
    s2 = WeightedLabeledSet([[0.0], [0.0]], [3.0, 1.0], [0.0, 0.0])
    assert np.allclose(s2.normalized().weights, [0.75, 0.25], atol=1e-12)
    assert abs(s2.normalized().weights.sum() - 1.0) < 1e-12


def test_normalize_all_zero_weights_fails():
    s = WeightedLabeledSet([[0.0]], [0.0], [0.0])
    with pytest.raises(DegenerateInputError):
        s.normalized()


def test_set_invariants():
    with pytest.raises(ContractError):
        WeightedLabeledSet(np.zeros((0, 2)), [], [])
    with pytest.raises(ContractError):
        WeightedLabeledSet([[1.0]], [-1.0], [0.0])
    with pytest.raises(ContractError):
        WeightedLabeledSet([[np.nan]], [1.0], [0.0])


@pytest.mark.parametrize("field", ["points", "weights", "labels"])
def test_coreset_rejects_non_finite(field):
    arrays = {"points": [[1.0], [2.0]], "weights": [0.5, 0.5], "labels": [0.0, 1.0]}
    arrays[field] = np.array(arrays[field], dtype=float)
    arrays[field].flat[1] = np.nan
    with pytest.raises(ContractError, match=field):
        Coreset(**arrays)


def test_set_costs_matches_set_cost_and_keeps_its_checks(linreg):
    rng = np.random.default_rng(4)
    P = WeightedLabeledSet(rng.standard_normal((7, 2)), rng.random(7),
                           rng.standard_normal(7))
    qm = rng.standard_normal((5, 2))
    ref = [set_cost(P, linreg, q) for q in qm]
    assert np.allclose(set_costs(P, linreg, qm), ref, rtol=1e-12, atol=0.0)
    negative = Coreset(P.points, -P.weights, P.labels)
    with pytest.raises(ContractError, match="nonnegative"):
        set_costs(negative, linreg, qm)
    huge = WeightedLabeledSet([[1e200]], [1.0], [0.0])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        set_costs(huge, linreg, [[1e200]])


def test_measure_must_sum_to_one(tiny_set, linreg):
    with pytest.raises(ContractError):
        MeasurableQuerySpace(tiny_set, linreg, (Query([1.0]),), [0.9])


def test_query_requires_finite_params():
    with pytest.raises(ContractError):
        Query([np.inf])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_measure_rejects_non_finite(tiny_set, linreg, bad):
    universe = (Query([1.0]), Query([2.0]), Query([3.0]))
    with pytest.raises(ContractError, match="non-finite"):
        MeasurableQuerySpace(tiny_set, linreg, universe, [0.5, bad, 0.5])


def test_universe_query_matrix_built_once(tiny_set, linreg):
    universe = (Query([1.0]), Query([2.0]))
    space = MeasurableQuerySpace(tiny_set, linreg, universe, [0.5, 0.5])
    qm = space.query_matrix()
    assert qm is space.query_matrix()
    assert np.array_equal(qm, [[1.0], [2.0]])
    assert not qm.flags.writeable


def test_universe_rejects_mismatched_dimensions(tiny_set, linreg):
    universe = (Query([1.0]), Query([2.0]), Query([1.0, 2.0]), Query([3.0]))
    with pytest.raises(ContractError, match="query 2"):
        MeasurableQuerySpace(tiny_set, linreg, universe, np.full(4, 0.25))


# -- the query-space sampler --------------------------------------------


def _space_with(measure):
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    universe = tuple(Query([float(i)]) for i in range(len(measure)))
    return MeasurableQuerySpace(P, LossModel("linear_regression"), universe,
                                measure)


def _seeded_measures():
    gen = np.random.default_rng(20240)
    for n in (2, 3, 7, 50, 200, 5000):
        for alpha in (0.05, 1.0, 20.0):
            yield gen.dirichlet(np.full(n, alpha))
    for n in (3, 9, 200):
        for zeros in ([0], [n // 2], [n - 1], [0, n - 1]):
            mu = gen.dirichlet(np.ones(n))
            mu[zeros] = 0.0
            yield mu
    mu = gen.dirichlet(np.ones(200))
    mu[:10] = mu[90:110] = mu[-10:] = 0.0  # runs of zero mass
    yield mu
    for n, at in ((1, 0), (5, 0), (5, 2), (5, 4)):
        mu = np.zeros(n)
        mu[at] = 1.0
        yield mu


@pytest.mark.parametrize("shape", [(1,), (37,), (20000,), (3, 11)])
def test_draw_equals_generator_choice(shape):
    for i, mu in enumerate(_seeded_measures()):
        mu = mu / np.sum(mu)
        space = _space_with(mu)
        ours, ref = np.random.default_rng(i), np.random.default_rng(i)
        idx = space.draw(ours, shape)
        expected = ref.choice(space.size, size=shape, p=space.measure)
        assert idx.dtype == expected.dtype and idx.shape == expected.shape
        assert np.array_equal(idx, expected), (i, mu.shape)
        assert ours.random() == ref.random()  # same stream position after


class _FixedUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        return self.u.reshape(shape)


@pytest.mark.parametrize("mu", [
    [0.25, 0.0, 0.25, 0.5],  # every CDF step on a guide bucket edge
    [0.3, 0.0, 0.2, 0.1, 0.4],  # steps inside buckets
])
def test_draw_at_cdf_and_bucket_boundaries(mu):
    space = _space_with(np.array(mu))
    cdf = np.cumsum(mu)
    cdf /= cdf[-1]  # as Generator.choice builds it
    steps = cdf[:-1]
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], steps,
                        np.nextafter(steps, 0.0), np.nextafter(steps, 1.0)])
    idx = space.draw(_FixedUniforms(u), (len(u),))
    assert idx.tolist() == cdf.searchsorted(u, side="right").tolist()
