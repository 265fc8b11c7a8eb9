"""Hoeffding sample-size calculators and Monte-Carlo verification.

Two sample-size formulas are provided: the plain one for approximating the
expected full-data cost by a sample average, and the inflated (1+eps)M
variant under which a weight-sum-matched coreset's expected cost lands
within 3*eps of the data's. Both take one loss bound M, the max over queries
of the data's total cost |f(P, w, q)|: exact_set_M over a finite universe,
estimate_M over a pool. The formulas are verified empirically on finite
query universes, where expectations are exact.

The data's costs over a universe or a pool are read through core.scored,
which keeps them on the data set: exact_set_M, expected_cost, verify_claim1,
the data side of verify_claim2 and estimate_M score one query matrix on one
data set once between them, while the data set keeps it. Only a coreset's
costs are computed here afresh, with set_costs. A QueryBatch may stand
wherever a query matrix is taken.

The Monte-Carlo trials draw their queries through the universe's one sampler,
MeasurableQuerySpace.draw: uniforms from the trial's generator, mapped to
indices through the measure's CDF and a guide table (Chen & Asau, 1974), so
that the indices are exactly those rng.choice(size, k, p=measure) returns
while most draws cost one table lookup instead of a binary search. Trials
are drawn in blocks of about MC_BLOCK samples, a (trials, k) array at a time
in the generator's stream order, so memory stays flat in the trial count and
each trial's sample mean is one row of np.mean(costs[idx], axis=1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    Coreset,
    MeasurableQuerySpace,
    WeightedLabeledSet,
    check_coreset,
    check_count,
    check_probability,
    check_real,
    expected_cost,
    scored,
    set_costs,
    split_matrix,
    stream_rng,
)


# Samples drawn per block of Monte-Carlo trials (at least one trial a block).
MC_BLOCK = 2 ** 14


def hoeffding_k(eps: float, delta: float, M: float) -> int:
    """Samples needed so the mean cost deviates from its expectation by more
    than eps with probability at most delta: ceil(2 (M/eps)^2 ln(2/delta)),
    and at least one. The ratio M/eps is squared, not M and eps apart, so
    that neither square under- or overflows where the ratio does not. Where
    (M/eps)^2 overflows, k is not a finite integer, and that is a
    ContractError too."""
    check_real(eps, "eps")
    check_probability(delta, "delta")
    check_real(M, "M")
    r = M / eps
    k = 2.0 * math.log(2.0 / delta) * r * r
    if not math.isfinite(k):
        raise ContractError(f"sample size 2 (M/eps)^2 ln(2/delta) is not a "
                            f"finite integer at eps={eps!r}, M={M!r}")
    return max(1, math.ceil(k))


def claim2_k(eps: float, delta: float, M: float) -> int:
    """Inflated variant with the coreset's (1+eps)M cost bound."""
    check_real(eps, "eps")
    check_real(M, "M")
    return hoeffding_k(eps, delta, (1.0 + eps) * M)


def relate_eps(eps_ratio: float, M: float) -> float:
    """Convert an average-ratio error bound into an average-difference bound."""
    check_real(eps_ratio, "eps_ratio", closed=True)
    check_real(M, "M")
    return eps_ratio * M


M_SAFETY = 1.1


def estimate_M(dataset, loss, query_pool, level: str = "set") -> float:
    """Empirical loss bound over a query pool, times a 1.1 safety factor:
    the max over queries of the weighted total cost. level is "set", the
    one level there is. A finite pool underestimates a true supremum, hence
    the safety factor. A pool with no queries is a ContractError
    (core.split_matrix).
    """
    if level != "set":
        raise ContractError(f"unknown level {level!r}")
    qm = split_matrix(query_pool, "query_pool", loss.query_dim(dataset.dim))
    costs = scored(dataset, loss, qm, "query_pool")[1]
    return M_SAFETY * float(np.max(np.abs(costs)))


def _trial_means(space, rng, trials, k, *costs):
    """Per-trial sample means of each cost vector over the universe: trial t
    averages the costs at k i.i.d. draws from the measure, in the order of
    trials separate space.draw(rng, k) calls. Returns one (trials,) array
    per cost vector."""
    per_block = max(1, MC_BLOCK // k)
    means = [np.empty(trials) for _ in costs]
    for start in range(0, trials, per_block):
        stop = min(start + per_block, trials)
        idx = space.draw(rng, (stop - start, k))
        for out, c in zip(means, costs):
            out[start:stop] = np.mean(c[idx], axis=1)
    return means


def exact_set_M(space: MeasurableQuerySpace) -> float:
    """True max of |f(set, w, q)| over a finite universe (no safety factor)."""
    costs = scored(space.ground, space.loss, space.universe)[1]
    return float(np.max(np.abs(costs)))


@dataclass(frozen=True)
class Claim1Result:
    violation_rate: float
    k: int
    M: float
    eps: float
    delta: float
    trials: int

    def slack(self) -> float:
        """3-sigma binomial buffer on top of delta for the pass/fail test."""
        return 3.0 * math.sqrt(self.delta * (1.0 - self.delta) / self.trials)

    def passes(self) -> bool:
        return self.violation_rate <= self.delta + self.slack()


def verify_claim1(space: MeasurableQuerySpace, eps: float, delta: float,
                  trials: int = 2000, seed: int = 0) -> Claim1Result:
    """Monte-Carlo check of the sample-average concentration bound.

    Uses the exact set-level M over the universe and the exact expectation;
    each trial samples k queries i.i.d. from the measure and tests whether
    the sample-average cost deviates from the expectation by more than eps.
    A universe whose costs are all 0 has M = 0, which hoeffding_k rejects,
    as verify_claim2 does through claim2_k.
    """
    check_count(trials, "trials", 1)
    rng = stream_rng(seed, "verify_claim1")
    M = exact_set_M(space)
    k = hoeffding_k(eps, delta, M)
    costs = scored(space.ground, space.loss, space.universe)[1]
    means, = _trial_means(space, rng, trials, k, costs)
    violations = int(np.count_nonzero(np.abs(means - expected_cost(space)) > eps))
    return Claim1Result(violations / trials, k, M, eps, delta, trials)


@dataclass(frozen=True)
class Claim2Result:
    failed_premise: str | None
    premise1_gap: float
    premise2_gap: float
    expectation_gap: float
    violation_rate: float | None
    k: int
    M: float
    eps: float

    @property
    def ok(self):
        return self.failed_premise is None


def verify_claim2(P: WeightedLabeledSet, coreset: Coreset,
                  space: MeasurableQuerySpace, eps: float, delta: float,
                  trials: int = 100, seed: int = 0,
                  M: float | None = None) -> Claim2Result:
    """Check the coreset generalization conclusion for a supplied (P, C) pair.

    Premise 1: |sum w - sum u| <= eps (exact).
    Premise 2: |avg_Q f(P) - avg_Q f(C)| <= eps on an i.i.d. sample of
    k = claim2_k(eps, delta, M) queries, M by default max_q |f(P, q)|.
    If both hold, the expected costs under the finite measure must differ by
    less than 3*eps; since the expectations are exact, the violation rate is
    the same in every trial.
    """
    check_count(trials, "trials", 1)
    rng = stream_rng(seed, "verify_claim2")
    check_coreset(P, coreset)
    qm, costs_p = scored(P, space.loss, space.universe)
    if M is None:
        M = float(np.max(np.abs(costs_p)))
    k = claim2_k(eps, delta, M)

    costs_c = set_costs(coreset, space.loss, qm)
    exp_gap = abs(float(np.sum(space.measure * (costs_p - costs_c))))

    p1_gap = abs(float(np.sum(P.weights)) - float(np.sum(coreset.weights)))
    if p1_gap > eps + 1e-12:
        return Claim2Result("weight_sum", p1_gap, math.nan, exp_gap,
                            None, k, M, eps)

    means_p, means_c = _trial_means(space, rng, trials, k, costs_p, costs_c)
    p2_gap = float(np.median(np.abs(means_p - means_c)))
    if p2_gap > eps + 1e-12:
        return Claim2Result("sample_average", p1_gap, p2_gap, exp_gap,
                            None, k, M, eps)

    violation = 1.0 if exp_gap >= 3.0 * eps + 1e-10 else 0.0
    return Claim2Result(None, p1_gap, p2_gap, exp_gap, violation, k, M, eps)
