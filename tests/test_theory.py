import math

import numpy as np
import pytest

from corelearn import (
    Coreset,
    LossModel,
    MeasurableQuerySpace,
    Query,
    QueryBatch,
    TrainConfig,
    WeightedLabeledSet,
    claim2_k,
    err_avg,
    estimate_M,
    expected_cost,
    hoeffding_k,
    iid_sample,
    relate_eps,
    train,
    verify_claim1,
    verify_claim2,
)
from corelearn import theory
from corelearn.core import ContractError, set_costs, stream_rng
from corelearn.theory import Claim1Result, exact_set_M


def test_hoeffding_k_values():
    assert hoeffding_k(0.1, 0.05, 1.0) == 738  # ceil(2 ln40 / 0.01)
    assert claim2_k(0.1, 0.05, 1.0) == 893  # ceil(2 * 1.21 * ln40 / 0.01)


def test_hoeffding_k_homogeneity():
    base = 2.0 * math.log(2.0 / 0.05) / 0.01
    assert hoeffding_k(0.1, 0.05, 2.0) == math.ceil(4.0 * base)


def test_hoeffding_k_special_point():
    # eps = M and delta = 2/e^2 gives exactly 2 * 2 = 4
    assert hoeffding_k(1.0, 2.0 / math.e ** 2, 1.0) == 4
    # inflated variant at the same point: 2 * (2M)^2 * 2 = 16
    assert claim2_k(1.0, 2.0 / math.e ** 2, 1.0) == 16


def test_k_monotonicity():
    ks = [hoeffding_k(e, 0.05, 1.0) for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    ks = [hoeffding_k(0.1, d, 1.0) for d in (0.01, 0.05, 0.2, 0.5)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    ks = [hoeffding_k(0.1, 0.05, m) for m in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    ks = [claim2_k(0.1, 0.05, m) for m in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_claim2_k_limit_ratio():
    for eps in (1e-3, 1e-4):
        r = claim2_k(eps, 0.05, 1.0) / hoeffding_k(eps, 0.05, 1.0)
        assert r == pytest.approx(1.0, abs=5e-3)


def test_claim2_k_is_hoeffding_k_at_inflated_M():
    for eps in (1e-3, 0.05, 0.1, 0.7, 3.0):
        for delta in (1e-6, 0.05, 0.5):
            for M in (1e-3, 0.3, 1.0, 7.5):
                b = (1.0 + eps) * M
                want = math.ceil(2.0 * b * b * math.log(2.0 / delta) / (eps * eps))
                assert claim2_k(eps, delta, M) == want == hoeffding_k(eps, delta, b)


def test_k_contracts():
    with pytest.raises(ContractError):
        hoeffding_k(0.0, 0.05, 1.0)
    with pytest.raises(ContractError):
        hoeffding_k(0.1, 1.5, 1.0)
    with pytest.raises(ContractError):
        claim2_k(0.1, 0.05, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractError, match="eps must be finite"):
            hoeffding_k(bad, 0.05, 1.0)
        with pytest.raises(ContractError, match="M must be finite"):
            hoeffding_k(0.1, 0.05, bad)
        with pytest.raises(ContractError, match="eps must be finite"):
            claim2_k(bad, 0.05, 1.0)


@pytest.mark.parametrize("eps, M", [("1e-200", "1"), ("1e-170", "1"),
                                    ("0.1", "1e200")],
                         ids=["eps-underflow", "eps-subnormal", "M-overflow"])
def test_k_rejects_a_sample_size_past_float_range(capsys, eps, M):
    from corelearn.cli import main
    for k_of in (hoeffding_k, claim2_k):
        with pytest.raises(ContractError, match="not a finite integer at "
                           f"eps={float(eps)!r}"):
            k_of(float(eps), 0.05, float(M))
    assert main(["bounds", "--eps", eps, "--delta", "0.05", "--M", M]) == 1
    assert "not a finite integer" in capsys.readouterr().err


def test_k_huge_but_finite_is_an_integer(capsys):
    from corelearn.cli import main
    k = hoeffding_k(1e-150, 0.05, 1.0)
    assert type(k) is int
    assert k == math.ceil(2.0 * math.log(40.0) / (1e-150 * 1e-150))
    assert main(["bounds", "--eps", "1e-150", "--delta", "0.05", "--M", "1"]) == 0
    assert f"k1={k}" in capsys.readouterr().out


@pytest.mark.parametrize("eps, M, k", [("0.1", "1e-200", 1), ("1e-300", "1e-300", 8)],
                         ids=["M-squared-underflows", "both-squares-out-of-range"])
def test_k_squares_the_ratio_of_M_and_eps(capsys, eps, M, k):
    """k depends on M/eps alone: a sample of no draws is never sized, and a
    ratio of 1 is sized ceil(2 ln 40) = 8 however small M and eps are."""
    from corelearn.cli import main
    assert hoeffding_k(float(eps), 0.05, float(M)) == k
    assert claim2_k(float(eps), 0.05, float(M)) == k
    assert main(["bounds", "--eps", eps, "--delta", "0.05", "--M", M]) == 0
    assert f"k1={k} k2={k}" in capsys.readouterr().out


def test_relate_eps():
    assert relate_eps(0.05, 2.0) == pytest.approx(0.1)
    assert relate_eps(0.0, 3.0) == 0.0
    assert relate_eps(0.7, 1.0) == 0.7
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractError, match="eps_ratio must be finite"):
            relate_eps(bad, 1.0)
        with pytest.raises(ContractError, match="M must be finite"):
            relate_eps(0.1, bad)


def _space_from_costs(linreg, target_costs, measure=None):
    """Universe of 1-d queries on a unit point achieving given linreg costs."""
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    universe = tuple(Query([math.sqrt(c)]) for c in target_costs)
    if measure is None:
        measure = np.full(len(universe), 1.0 / len(universe))
    return MeasurableQuerySpace(P, linreg, universe, measure)


def test_estimate_M(linreg):
    space = _space_from_costs(linreg, [4.0])
    M = estimate_M(space.ground, linreg, space.universe, level="set")
    assert M == pytest.approx(4.4)


def test_estimate_M_on_a_coreset_is_scored_afresh(linreg):
    C = Coreset([[1.0], [2.0]], [0.5, 0.5], [0.0, 1.0])
    pool = np.array([[1.0], [3.0]])
    # at q = 3: 0.5 * 3^2 + 0.5 * 5^2
    assert estimate_M(C, linreg, pool, level="set") == 1.1 * 17.0
    # a set with other weights is another set, with costs of its own
    C = Coreset(C.points, [1.0, 0.0], C.labels)
    assert estimate_M(C, linreg, pool, level="set") == 1.1 * 9.0


def test_full_data_costs_are_scored_once_per_query_matrix(linreg, monkeypatch):
    space = _random_space(linreg, 6, 9)
    P = space.ground
    split = QueryBatch(np.random.default_rng(6).standard_normal((5, 2)))
    scored_on_P = []
    costs = LossModel.costs

    def counting(self, points, labels, weights, queries):
        if points is P.points:
            scored_on_P.append(np.asarray(queries).tobytes())
        return costs(self, points, labels, weights, queries)

    monkeypatch.setattr(LossModel, "costs", counting)
    M = exact_set_M(space)
    verify_claim1(space, eps=0.5 * M, delta=0.1, trials=10)
    C = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    verify_claim2(P, C, space, eps=0.5 * M, delta=0.1, trials=10, M=M)
    expected_cost(space)
    assert scored_on_P == [space.universe.tobytes()]
    err_avg(P, C, linreg, split)
    estimate_M(P, linreg, split, level="set")
    assert scored_on_P == [space.universe.tobytes(), split.array.tobytes()]


@pytest.mark.parametrize("level", ["point", "Set", None])
def test_estimate_M_has_one_level(linreg, level):
    # the default is the set level; any other value is a ContractError
    P = WeightedLabeledSet([[1.0], [2.0]], [0.5, 0.5], [0.0, 0.0])
    assert estimate_M(P, linreg, [[2.0]]) == 1.1 * 10.0
    with pytest.raises(ContractError, match="unknown level"):
        estimate_M(P, linreg, [[2.0]], level=level)


def test_estimate_M_zero_losses(linreg):
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    assert estimate_M(P, linreg, np.array([[0.0]])) == 0.0


def test_estimate_M_monotone_in_pool(linreg):
    P = WeightedLabeledSet([[1.0]], [1.0], [0.0])
    small = np.array([[1.0], [2.0]])
    large = np.array([[1.0], [2.0], [5.0]])
    assert estimate_M(P, linreg, small) <= estimate_M(P, linreg, large)


def test_claim1_point_mass(linreg):
    space = _space_from_costs(linreg, [2.0], measure=[1.0])
    res = verify_claim1(space, eps=0.1, delta=0.05, trials=50, seed=0)
    assert res.violation_rate == 0.0


def test_claim1_eps_at_least_range(linreg):
    space = _space_from_costs(linreg, [0.0, 1.0])
    M = exact_set_M(space)
    res = verify_claim1(space, eps=1.01 * M, delta=0.05, trials=200, seed=1)
    assert res.violation_rate == 0.0


def test_claim1_two_point_worst_case(linreg):
    # costs {0, M}: the highest-variance bounded case
    space = _space_from_costs(linreg, [0.0, 4.0])
    res = verify_claim1(space, eps=0.4, delta=0.05, trials=2000, seed=2)
    assert res.violation_rate <= res.delta + res.slack()


def test_claim2_identity_pair(linreg):
    space = _space_from_costs(linreg, [1.0, 2.0, 3.0])
    P = space.ground
    C = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    res = verify_claim2(P, C, space, eps=0.1, delta=0.1, trials=20, seed=0)
    assert res.ok
    assert res.premise1_gap == 0.0
    assert res.expectation_gap == 0.0
    assert res.violation_rate == 0.0


def test_claim2_constructed_slack_pair(linreg):
    # coreset = scaled copy: weight sum off by eps, costs off by factor (1+eps)
    eps = 0.05
    space = _space_from_costs(linreg, [0.5, 1.0])
    P = space.ground
    C = Coreset(P.points.copy(), P.weights * (1.0 + eps), P.labels.copy())
    res = verify_claim2(P, C, space, eps=eps, delta=0.1, trials=20, seed=1)
    assert res.ok
    assert res.premise1_gap == pytest.approx(eps)
    # expectation gap = eps * E[f] = eps * 0.75 < 3 eps
    assert res.expectation_gap == pytest.approx(eps * 0.75)
    assert res.violation_rate == 0.0


def test_claim2_premise_violation_reported(linreg):
    space = _space_from_costs(linreg, [1.0, 2.0])
    P = space.ground
    C = Coreset(P.points.copy(), P.weights * 3.0, P.labels.copy())
    res = verify_claim2(P, C, space, eps=0.1, delta=0.1, trials=5, seed=2)
    assert res.failed_premise == "weight_sum"
    assert res.violation_rate is None


def test_claim2_sample_premise_violation(linreg):
    # weight sums match but the costs differ wildly -> premise 2 fails
    space = _space_from_costs(linreg, [1.0, 2.0])
    P = space.ground
    C = Coreset(P.points * 10.0, P.weights.copy(), P.labels.copy())
    res = verify_claim2(P, C, space, eps=0.1, delta=0.1, trials=5, seed=3)
    assert res.failed_premise == "sample_average"
    assert res.violation_rate is None


def test_claim2_default_M_is_the_set_level_bound(linreg):
    # costs of P at q = 1 and q = 2: 0.5 + 2 and 2 + 8; the largest cost of
    # one point is 16, at p = 2, q = 2
    P = WeightedLabeledSet([[1.0], [2.0]], [0.5, 0.5], [0.0, 0.0])
    space = MeasurableQuerySpace(P, linreg, [[1.0], [2.0]], [0.5, 0.5])
    C = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    res = verify_claim2(P, C, space, eps=1.0, delta=0.1, trials=5, seed=0)
    assert res.M == exact_set_M(space) == 10.0
    assert res.k == claim2_k(1.0, 0.1, 10.0)


@pytest.mark.parametrize("trials", [0, -3])
def test_claims_reject_trials_below_one(linreg, trials):
    space = _space_from_costs(linreg, [1.0, 2.0])
    P = space.ground
    C = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    with pytest.raises(ContractError, match="trials"):
        verify_claim1(space, eps=0.1, delta=0.05, trials=trials)
    with pytest.raises(ContractError, match="trials"):
        verify_claim2(P, C, space, eps=0.1, delta=0.1, trials=trials)


# -- the blocked trials against a per-trial rng.choice loop --------------


def _reference_claim1(space, eps, delta, trials, seed):
    costs = set_costs(space.ground, space.loss, space.universe)
    expect = float(np.sum(space.measure * costs))
    M = float(np.max(np.abs(costs)))
    k = hoeffding_k(eps, delta, M)
    rng = stream_rng(seed, "verify_claim1")
    violations = 0
    for _ in range(trials):
        idx = rng.choice(len(space.universe), size=k, p=space.measure)
        if abs(float(np.mean(costs[idx])) - expect) > eps:
            violations += 1
    return Claim1Result(violations / trials, k, M, eps, delta, trials)


def _reference_premise2_gap(P, C, space, k, trials, seed):
    costs_p = set_costs(P, space.loss, space.universe)
    costs_c = set_costs(C, space.loss, space.universe)
    rng = stream_rng(seed, "verify_claim2")
    gaps = np.empty(trials)
    for t in range(trials):
        idx = rng.choice(len(space.universe), size=k, p=space.measure)
        gaps[t] = abs(float(np.mean(costs_p[idx]) - np.mean(costs_c[idx])))
    return float(np.median(gaps))


def _random_space(linreg, seed, size):
    gen = np.random.default_rng(seed)
    P = WeightedLabeledSet(gen.standard_normal((12, 2)), gen.random(12) / 12,
                           gen.standard_normal(12))
    universe = tuple(Query(q) for q in gen.standard_normal((size, 2)))
    mu = gen.dirichlet(np.full(size, 0.5))
    mu[gen.integers(size)] = 0.0
    return MeasurableQuerySpace(P, linreg, universe, mu / np.sum(mu))


def _bimodal_space(linreg, seed, size):
    """Costs near 0 and near 4 under a seeded measure with one zero mass:
    close to the highest-variance case, so claim 1 sees violations."""
    gen = np.random.default_rng(seed)
    costs = 4.0 * (np.arange(size) % 2) + 0.2 * gen.random(size)
    mu = gen.dirichlet(np.full(size, 5.0))
    mu[gen.integers(size)] = 0.0
    return _space_from_costs(linreg, costs, mu / np.sum(mu))


# MC_BLOCK 1000 puts 7 trials of k = 141 in a block, which 2000 trials do not
# fill evenly; MC_BLOCK 100 is below k, one trial a block.
@pytest.mark.parametrize("block", [theory.MC_BLOCK, 1000, 100])
def test_claim1_equals_per_trial_choice(linreg, monkeypatch, block):
    monkeypatch.setattr(theory, "MC_BLOCK", block)
    for seed, size in ((3, 3), (1, 7), (2, 40)):
        space = _bimodal_space(linreg, seed, size)
        eps = 0.1 * exact_set_M(space)
        # delta near 1 keeps k small, so a few of the 2000 trials violate
        res = verify_claim1(space, eps=eps, delta=0.99, trials=2000, seed=seed)
        assert res == _reference_claim1(space, eps, 0.99, 2000, seed)
        assert res.k == 141 and res.violation_rate > 0


@pytest.mark.parametrize("block", [theory.MC_BLOCK, 1000, 100])
def test_claim2_equals_per_trial_choice(linreg, monkeypatch, block):
    monkeypatch.setattr(theory, "MC_BLOCK", block)
    for seed, size in ((3, 2), (4, 9), (5, 60)):
        space = _random_space(linreg, seed, size)
        P = space.ground
        gen = np.random.default_rng(seed)
        C = Coreset(P.points + 0.05 * gen.standard_normal(P.points.shape),
                    P.weights.copy(), P.labels.copy())
        M = exact_set_M(space)
        res = verify_claim2(P, C, space, eps=0.5 * M, delta=0.1, trials=33,
                            seed=seed, M=M)
        assert res.premise2_gap > 0
        assert res.premise2_gap == _reference_premise2_gap(P, C, space, res.k,
                                                            33, seed)


def test_claims_on_a_logistic_universe(logreg):
    """The claims do not depend on the loss: on a logistic universe, claim 1
    passes, and an average-trained coreset meets claim 2's premises with an
    expectation gap below 3 eps."""
    rng = np.random.default_rng(1005)
    n = 30
    w = rng.random(n)
    P = WeightedLabeledSet(rng.standard_normal((n, 2)), w / w.sum(),
                           np.where(rng.standard_normal(n) < 0, -1.0, 1.0))
    space = MeasurableQuerySpace(P, logreg, rng.standard_normal((8, 2)),
                                 rng.dirichlet(np.ones(8)))
    eps = 0.05 * exact_set_M(space)
    assert verify_claim1(space, eps, 0.05, trials=500, seed=1).passes()
    cfg = TrainConfig(coreset_size=5, epochs=100, learning_rate=0.01, lam=1.0,
                      batch_size=200, seed=3, algorithm="average")
    coreset, _ = train(P, iid_sample(space, 200, seed=2), None, logreg, cfg)
    res = verify_claim2(P, coreset, space, eps, 0.05, trials=50, seed=4)
    assert res.ok, f"premise failed: {res.failed_premise}"
    assert res.expectation_gap < 3.0 * eps


def test_claims_agree_on_an_all_zero_cost_universe(linreg):
    """Every cost 0 makes M = 0, which both claims reject."""
    space = _space_from_costs(linreg, [0.0])
    P = space.ground
    C = Coreset(P.points.copy(), P.weights.copy(), P.labels.copy())
    with pytest.raises(ContractError, match=r"M must be finite and > 0"):
        verify_claim1(space, eps=0.1, delta=0.05, trials=10)
    with pytest.raises(ContractError, match=r"M must be finite and > 0"):
        verify_claim2(P, C, space, eps=0.1, delta=0.05, trials=10)
