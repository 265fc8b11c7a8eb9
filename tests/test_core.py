import math
import pickle

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
)
from corelearn.core import MEMO_ENTRIES, remember, scored
from corelearn.losses import LossModel
from corelearn.theory import exact_set_M


def test_total_cost_exact_fit(linreg):
    S = WeightedLabeledSet([[1.0]], [1.0], [2.0])
    assert set_cost(S, linreg, [2.0]) == 0.0


def test_total_cost_hand_value(linreg):
    # 0.5 * 1^2 + 0.5 * 2^2
    S = WeightedLabeledSet([[1.0], [2.0]], [0.5, 0.5], [0.0, 0.0])
    assert set_cost(S, linreg, [1.0]) == pytest.approx(2.5, abs=1e-12)


def test_total_cost_logreg_zero_query(logreg):
    S = WeightedLabeledSet([[3.0, -2.0]], [1.0], [1.0])
    got = set_cost(S, logreg, [0.0, 0.0])
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_total_cost_dimension_mismatch(linreg):
    S = WeightedLabeledSet([[1.0, 2.0]], [1.0], [0.0])
    with pytest.raises(ContractError, match="query dim"):
        set_cost(S, linreg, [1.0])


def test_total_cost_weight_count_mismatch():
    with pytest.raises(ContractError, match=r"weights have shape \(2,\), "
                                            r"expected \(1,\): one per point"):
        WeightedLabeledSet([[1.0]], [1.0, 1.0], [0.0])


def test_total_cost_linearity_in_weights(linreg):
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = rng.standard_normal((6, 3))
        w = rng.random(6)
        b = rng.standard_normal(6)
        q = rng.standard_normal(3)
        alpha = float(rng.random() * 5)
        c1 = set_cost(WeightedLabeledSet(pts, alpha * w, b), linreg, q)
        c2 = alpha * set_cost(WeightedLabeledSet(pts, w, b), linreg, q)
        assert c1 == pytest.approx(c2, rel=1e-10)


def test_expected_cost_point_mass(tiny_set, linreg):
    q = Query([1.0])
    space = MeasurableQuerySpace(tiny_set, linreg, (q,), [1.0])
    assert expected_cost(space) == set_cost(tiny_set, linreg, q.params)


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
    mean = np.mean([set_cost(P, linreg, q.params) for q in universe])
    assert expected_cost(space) == pytest.approx(mean, abs=1e-12)


def test_identity_coreset_matches_input_exactly(linreg):
    rng = np.random.default_rng(3)
    P = WeightedLabeledSet(rng.standard_normal((30, 2)), rng.random(30),
                           rng.standard_normal(30))
    C = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    for _ in range(10):
        q = rng.standard_normal(2)
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


def test_set_arrays_are_read_only_copies(linreg):
    points = np.array([[1.0], [2.0], [4.0]])
    weights = np.array([0.5, 0.25, 0.25])
    P = WeightedLabeledSet(points, weights, [0.0, 1.0, 3.0])
    for name in ("points", "weights", "labels"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(P, name)[0] = 9.0
    Q = np.array([[0.5], [1.5]])
    _, before = scored(P, linreg, Q)
    points *= 10.0
    weights[:] = 1.0
    assert P.points.tolist() == [[1.0], [2.0], [4.0]]
    assert P.weights.tolist() == [0.5, 0.25, 0.25]
    assert np.array_equal(scored(P, linreg, Q)[1], before)
    assert np.array_equal(set_costs(P, linreg, Q), before)
    # the costs are found by the queries' content, so an edited Q is rescored
    Q[0, 0] = 7.0
    _, after = scored(P, linreg, Q)
    assert np.array_equal(after, set_costs(P, linreg, Q))
    assert after[0] != before[0] and after[1] == before[1]


@pytest.mark.parametrize("cls", [WeightedLabeledSet, Coreset])
def test_a_pickled_set_keeps_its_contract(cls, linreg):
    """A set crosses a process boundary (a sweep worker's final coresets)
    as its arrays alone: it comes back read-only, equal, and keeping
    nothing it computed before."""
    S = cls([[1.0, 2.0], [3.0, 5.0]], [0.5, 1.5], [1.0, -2.0])
    scored(S, linreg, np.array([[0.5, 0.5]]))
    assert S._memo
    copy = pickle.loads(pickle.dumps(S))
    assert type(copy) is cls and copy is not S
    for name in ("points", "weights", "labels"):
        assert np.array_equal(getattr(copy, name), getattr(S, name))
        assert not getattr(copy, name).flags.writeable
    assert copy._memo == {}


def test_sets_and_spaces_compare_by_identity(tiny_set, linreg):
    """Sets, coresets and query spaces hold arrays, so == is identity and
    hash works, rather than an elementwise comparison that raises."""
    C = Coreset(tiny_set.points, tiny_set.weights, tiny_set.labels)
    space = MeasurableQuerySpace(tiny_set, linreg, [[1.0]], [1.0])
    twin = MeasurableQuerySpace(tiny_set, linreg, [[1.0]], [1.0])
    for a, b in ((tiny_set, tiny_set.normalized()), (C, C.normalized()),
                 (space, twin)):
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_memo_keeps_at_most_its_bound_dropping_the_oldest(tiny_set, linreg):
    rng = np.random.default_rng(9)
    for _ in range(3 * MEMO_ENTRIES):
        scored(tiny_set, linreg, rng.standard_normal((2, 1)))
        assert len(tiny_set._memo) <= MEMO_ENTRIES
    assert len(tiny_set._memo) == MEMO_ENTRIES
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    computed = []
    for key in [*range(MEMO_ENTRIES + 1), MEMO_ENTRIES, 0]:
        assert remember(P, key, lambda: computed.append(key) or -key) == -key
    # key 0 was dropped for key MEMO_ENTRIES, which is still kept
    assert computed == [*range(MEMO_ENTRIES + 1), 0]


def test_memo_keeps_only_results_that_returned():
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    attempts = []

    def compute():
        attempts.append(1)
        if len(attempts) < 3:
            raise RuntimeError(f"attempt {len(attempts)}")
        return "done"

    for n in (1, 2):
        with pytest.raises(RuntimeError, match=f"attempt {n}"):
            remember(P, "key", compute)
    assert remember(P, "key", compute) == remember(P, "key", compute) == "done"
    assert len(attempts) == 3


@pytest.mark.parametrize("cls", [WeightedLabeledSet, Coreset],
                         ids=["set", "coreset"])
@pytest.mark.parametrize("arrays, match", [
    (([[1.0]], [1.0, 1.0], [0.0]),
     "{owner} weights have shape (2,), expected (1,): one per point"),
    ((np.zeros((0, 2)), [], []),
     "{owner} points must hold at least one point, got shape (0, 2)"),
    (([[1.0]], [1.0], [np.inf]), "non-finite entries in {owner} labels"),
    (([[1.0]], [-1.0], [0.0]), "weights must be nonnegative"),
], ids=["sizes", "empty", "non-finite", "negative"])
def test_sets_share_one_contract(cls, arrays, match):
    with pytest.raises(ContractError, match=cls.__name__) as info:
        cls(*arrays)
    assert match.format(owner=cls.__name__) in str(info.value)


def test_coreset_rejects_negative_weights():
    with pytest.raises(ContractError, match="weights"):
        Coreset([[1.0], [2.0]], [-1.0, 0.5], [0.0, 1.0])


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
    with pytest.raises(ContractError, match="nonnegative"):
        set_costs(Coreset(P.points, -P.weights, P.labels), linreg, qm)
    huge = WeightedLabeledSet([[1e200]], [1.0], [0.0])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        set_costs(huge, linreg, [[1e200]])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_set_costs_rejects_a_non_finite_query(logreg, bad):
    """On separable data the logistic cost at q = inf is 0 (softplus(-inf)),
    a cost no query has: the checked cost path rejects the row, naming it,
    while the loss kernels, which the pool's far rows and the Newton line
    search step through, still take it."""
    P = WeightedLabeledSet([[10.0], [20.0], [-15.0], [-30.0]],
                           np.full(4, 0.25), [1.0, 1.0, -1.0, -1.0])
    with pytest.raises(ContractError, match="^non-finite entries in query 1$"):
        set_costs(P, logreg, [[1.0], [bad], [2.0]])
    with pytest.raises(ContractError, match="^non-finite entries in query 0$"):
        set_cost(P, logreg, [bad])
    with np.errstate(invalid="ignore"):
        assert logreg.costs(P.points, P.labels, P.weights, [[bad]]).shape == (1,)
        grad = logreg.query_grad(P.points, P.labels, P.weights, [bad])[1]
    assert grad.shape == (1,)


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
    qm = space.universe
    assert qm is space.universe
    assert np.array_equal(qm, [[1.0], [2.0]])
    assert not qm.flags.writeable


def test_universe_of_queries_is_its_matrix(linreg):
    rng = np.random.default_rng(12)
    P = WeightedLabeledSet(rng.standard_normal((7, 2)), rng.random(7),
                           rng.standard_normal(7))
    qm = rng.standard_normal((9, 2))
    mu = rng.dirichlet(np.ones(9))
    of_queries = MeasurableQuerySpace(P, linreg, tuple(Query(q) for q in qm), mu)
    of_matrix = MeasurableQuerySpace(P, linreg, qm, mu)
    assert of_queries.universe.tobytes() == of_matrix.universe.tobytes()
    assert of_matrix.universe.shape == (9, 2)
    assert qm.flags.writeable  # the space keeps a copy
    draws = [space.draw(np.random.default_rng(5), (3, 40))
             for space in (of_queries, of_matrix)]
    assert np.array_equal(*draws)
    assert exact_set_M(of_queries) == exact_set_M(of_matrix)
    assert expected_cost(of_queries) == expected_cost(of_matrix)


@pytest.mark.parametrize("universe, message", [
    ((), "^universe holds no queries$"),
    (np.zeros((0, 2)), "^universe holds no queries$"),
    ([1.0, 2.0], r"matrix, got shape \(2,\)"),
    ([[1.0], [np.nan]], "non-finite entries in universe"),
    ([["a"]], "not numbers"),
])
def test_universe_matrix_is_checked(tiny_set, linreg, universe, message):
    with pytest.raises(ContractError, match=message):
        MeasurableQuerySpace(tiny_set, linreg, universe, [1.0])


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
        expected = ref.choice(len(space.universe), size=shape, p=space.measure)
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
