"""Coreset learning by gradient descent.

Two objectives are implemented over a training set of queries:

* average: | mean_q f(P,w,q) - mean_q f(C,u,q) | + lambda * |sum w - sum u|,
  one full-batch step per epoch;
* practical: sum over a minibatch of |1 - f(C,u,q)/f(P,w,q)|, plus the same
  weight-sum penalty, one step per seeded minibatch.

Both run through one training loop over one float64 vector that holds the
coreset's points, weights and labels. Each step is Adam with bias
correction, a global-norm gradient clip, and a clamp of the coreset weights
to >= 0. After every epoch the objective over all training queries is
recorded, and the best epoch (by validation error when there is a
validation split) can be returned. The subgradient of |x| at 0 is taken as
0, which makes the exact-copy coreset a fixed point.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Coreset, ContractError, NumericError, WeightedLabeledSet, stream_rng
from .losses import LossModel
from .queries import as_query_matrix

RATIO_FLOOR = 1e-12
# global-norm bound on each step's gradient
GRAD_CLIP = 1e3
# Adam's moment decay rates and the denominator's guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ALG_AVERAGE = "average"
ALG_PRACTICAL = "practical"

INIT_SUBSAMPLE = "subsample"
INIT_GAUSSIAN = "gaussian"


@dataclass
class TrainConfig:
    coreset_size: int = 50
    epochs: int = 10
    learning_rate: float = 0.01
    lam: float = 1.0
    batch_size: int = 25
    seed: int = 0
    algorithm: str = ALG_PRACTICAL
    learn_weights: bool = True
    learn_labels: bool = True
    early_stop_on_validation: bool = True
    init_strategy: str = INIT_SUBSAMPLE

    def __post_init__(self):
        if self.coreset_size < 1:
            raise ContractError("coreset_size must be >= 1")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be > 0")
        if self.lam < 0:
            raise ContractError("lambda must be >= 0")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if self.algorithm not in (ALG_AVERAGE, ALG_PRACTICAL):
            raise ContractError(f"unknown algorithm {self.algorithm!r}")

    @staticmethod
    def paper_linreg(**overrides):
        """Linear-regression defaults: 10 epochs, batch 25, lr 0.01, lambda 1."""
        cfg = dict(epochs=10, batch_size=25, learning_rate=0.01, lam=1.0,
                   algorithm=ALG_PRACTICAL, learn_weights=True)
        cfg.update(overrides)
        return TrainConfig(**cfg)

    @staticmethod
    def paper_logreg(**overrides):
        """Logistic-regression defaults: 1000 epochs, batch 100, lr 0.001,
        weights frozen at 1/m."""
        cfg = dict(epochs=1000, batch_size=100, learning_rate=0.001, lam=0.0,
                   algorithm=ALG_PRACTICAL, learn_weights=False)
        cfg.update(overrides)
        return TrainConfig(**cfg)


@dataclass
class OptimizerState:
    """Adam moment accumulators, shaped like the parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @staticmethod
    def for_params(params: np.ndarray) -> "OptimizerState":
        return OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(state: OptimizerState, params: np.ndarray, grads: np.ndarray,
              lr: float) -> None:
    """One Adam update of params, in place. A zero gradient entry moves its
    parameter by exactly 0.0 as long as its moments are zero."""
    if grads.shape != params.shape:
        raise ContractError(
            f"gradient shape {grads.shape} does not match parameters {params.shape}")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.m *= b1
    state.m += (1 - b1) * grads
    state.v *= b2
    state.v += (1 - b2) * grads * grads
    m_hat = state.m / (1 - b1 ** t)
    v_hat = state.v / (1 - b2 ** t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= lr
    m_hat /= v_hat
    params -= m_hat


def project_weights(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Clamp weights elementwise to >= 0 (into out, if given)."""
    return np.maximum(0.0, u, out=out)


def init_coreset(P: WeightedLabeledSet, m: int, seed: int,
                 strategy: str = INIT_SUBSAMPLE) -> Coreset:
    """Starting coreset: m points with weights all 1/m."""
    if m < 1:
        raise ContractError("coreset size must be >= 1")
    rng = stream_rng(seed, "init_coreset")
    if strategy == INIT_SUBSAMPLE:
        if m <= P.n:
            idx = rng.permutation(P.n)[:m]
        else:
            idx = rng.integers(0, P.n, size=m)
        pts = P.points[idx].copy()
        labels = P.labels[idx].copy()
    elif strategy == INIT_GAUSSIAN:
        center = P.points.mean(axis=0)
        scale = P.points.std(axis=0) + 1e-12
        pts = center + scale * rng.standard_normal((m, P.dim))
        labels = float(P.labels.mean()) + P.labels.std() * rng.standard_normal(m)
    else:
        raise ContractError(f"unknown init strategy {strategy!r}")
    weights = np.full(m, 1.0 / m)
    return Coreset(pts, weights, labels)


@dataclass
class TrainReport:
    train_losses: list = field(default_factory=list)
    val_errors: list = field(default_factory=list)
    best_epoch: int = -1
    final_coreset: Coreset | None = None
    filtered_train_queries: int = 0

    def to_dict(self):
        return {
            "train_losses": [float(x) for x in self.train_losses],
            "val_errors": [float(x) for x in self.val_errors],
            "best_epoch": int(self.best_epoch),
            "filtered_train_queries": int(self.filtered_train_queries),
        }


def above_ratio_floor(P: WeightedLabeledSet, loss: LossModel, Q):
    """The queries of Q whose full-data cost exceeds RATIO_FLOOR.

    Returns their (k, d') matrix, their full-data costs f(P, w, q) and the
    number of queries dropped; a ratio f_C / f_P is undefined for the others.
    """
    qm = as_query_matrix(Q)
    f_p = loss.costs(P.points, P.labels, P.weights, qm)
    keep = f_p > RATIO_FLOOR
    return qm[keep], f_p[keep], int(np.sum(~keep))


def _split(theta: np.ndarray, m: int, d: int):
    """Views (points (m, d), weights (m,), labels (m,)) into one flat vector."""
    return theta[:m * d].reshape(m, d), theta[m * d:m * d + m], theta[m * d + m:]


def _fit(P: WeightedLabeledSet, qm: np.ndarray, loss: LossModel,
         cfg: TrainConfig, term, schedule, val=None):
    """Adam on the coreset (C, u, y), held as views into one float64 vector.

    term(costs, idx) maps the coreset's costs on the queries qm[idx] to the
    objective's data term and its derivative with respect to those costs;
    the weight-sum penalty lam * |sum w - sum u| is added to it. schedule
    yields each epoch's list of batches idx. Frozen learnables get a zero
    gradient, which Adam turns into a zero move. After each epoch the
    objective over all of qm is its train loss, and scores the epoch unless
    val, a (queries, term) pair, gives a validation error to score it by.
    """
    init = init_coreset(P, cfg.coreset_size, cfg.seed, cfg.init_strategy)
    m, d = init.m, init.dim
    theta = np.concatenate([init.points.ravel(), init.weights, init.labels])
    coreset = Coreset(*_split(theta, m, d))
    grad = np.zeros_like(theta)
    g_pts, g_wts, g_lab = _split(grad, m, d)
    state = OptimizerState.for_params(theta)
    report = TrainReport()
    w_sum = float(np.sum(P.weights))

    def penalty():
        gap = w_sum - float(np.sum(coreset.weights))
        return abs(gap) * cfg.lam, np.sign(gap)

    def cost(queries):
        return loss.costs(coreset.points, coreset.labels, coreset.weights, queries)

    best_score = np.inf
    best = coreset.copy()
    for epoch, batches in zip(range(cfg.epochs), schedule):
        for step, idx in enumerate(batches):
            pen, pen_sign = penalty()

            def coeffs(costs):
                value, d_costs = term(costs, idx)
                if not np.isfinite(value + pen):
                    raise NumericError(
                        f"non-finite training loss at epoch {epoch}, step {step}")
                return d_costs

            _, d_pts, d_lab, d_wts = loss.weighted_grads(
                coreset.points, coreset.labels, coreset.weights, qm[idx], coeffs)
            g_pts[:] = d_pts
            if cfg.learn_labels:
                g_lab[:] = d_lab
            if cfg.learn_weights:
                g_wts[:] = d_wts - cfg.lam * pen_sign
            norm = float(np.sqrt(grad @ grad))
            if norm > GRAD_CLIP:
                grad *= GRAD_CLIP / norm
            adam_step(state, theta, grad, cfg.learning_rate)
            project_weights(coreset.weights, out=coreset.weights)

        score = term(cost(qm), slice(None))[0] + penalty()[0]
        report.train_losses.append(score)
        if val is not None:
            val_qm, val_term = val
            score = val_term(cost(val_qm), slice(None))[0]
            report.val_errors.append(score)
        if score < best_score:
            best_score = score
            best = coreset.copy()
            report.best_epoch = epoch

    report.final_coreset = coreset.copy()
    out = best if cfg.early_stop_on_validation else coreset
    return out.copy(), report


def autocl_average(P: WeightedLabeledSet, Q_train, loss: LossModel,
                   cfg: TrainConfig):
    """Learn a coreset minimizing the gap between average losses over Q_train.

    One full-batch gradient step per epoch, scored after the step.
    """
    qm = as_query_matrix(Q_train)
    if qm.shape[0] < 1:
        raise ContractError("need at least one training query")
    # the data-side average is constant across epochs; compute it once
    f_p_avg = float(np.mean(loss.costs(P.points, P.labels, P.weights, qm)))

    def term(costs, idx):
        diff = f_p_avg - float(np.mean(costs))
        # subgradient of |diff|, 0 at the kink
        return abs(diff), np.full(costs.shape[0], -np.sign(diff) / costs.shape[0])

    return _fit(P, qm, loss, cfg, term, itertools.repeat([slice(None)]))


def _ratio_term(f_p):
    """Per-query relative error |1 - f_C/f_P| against full-data costs f_p.

    The value is the mean over the queries; the derivative is that of their
    sum, the minibatch loss that a step descends.
    """
    def term(costs, idx):
        ratios = 1.0 - costs / f_p[idx]
        # d|1 - f_C/f_P|/d f_C = sign(ratio) * (-1/f_P)
        return float(np.mean(np.abs(ratios))), np.sign(ratios) * (-1.0 / f_p[idx])
    return term


def _minibatches(k: int, batch_size: int, seed: int):
    """Each epoch's batches: a fresh seeded permutation of range(k), chunked."""
    rng = stream_rng(seed, "practical_batches")
    while True:
        order = rng.permutation(k)
        yield [order[lo:lo + batch_size] for lo in range(0, k, batch_size)]


def autocl_practical(P: WeightedLabeledSet, Q_train, Q_val, loss: LossModel,
                     cfg: TrainConfig):
    """Learn a coreset minimizing the per-query relative error over Q_train.

    Minibatched; queries whose full-data cost falls below RATIO_FLOOR are
    dropped up front (the ratio is undefined there). If validation queries
    are supplied, the epoch with the lowest validation error is returned
    when cfg.early_stop_on_validation is set.
    """
    qm, f_p, n_dropped = above_ratio_floor(P, loss, Q_train)
    if n_dropped:
        warnings.warn(
            f"dropping {n_dropped} training queries with near-zero full-data cost")
    if qm.shape[0] < 1:
        raise ContractError("no usable training queries above the ratio floor")
    val = None
    if Q_val is not None:
        val_qm, f_p_val, _ = above_ratio_floor(P, loss, Q_val)
        if val_qm.shape[0]:
            val = (val_qm, _ratio_term(f_p_val))
    batches = _minibatches(qm.shape[0], cfg.batch_size, cfg.seed)
    coreset, report = _fit(P, qm, loss, cfg, _ratio_term(f_p), batches, val)
    report.filtered_train_queries = n_dropped
    return coreset, report


def train(P: WeightedLabeledSet, Q_train, Q_val, loss: LossModel, cfg: TrainConfig):
    """Dispatch on cfg.algorithm."""
    if cfg.algorithm == ALG_AVERAGE:
        return autocl_average(P, Q_train, loss, cfg)
    return autocl_practical(P, Q_train, Q_val, loss, cfg)
