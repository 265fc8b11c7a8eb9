"""Coreset learning by gradient descent.

Two objectives over a training set of queries differ only in their data
term, a function term(costs, f_p) of f(C,u,q) and f(P,w,q) on a minibatch:

* average: | mean_q f(P,w,q) - mean_q f(C,u,q) |;
* practical: mean_q |1 - f(C,u,q)/f(P,w,q)|;

and each adds lambda * |sum w - sum u|. Both run through one training loop
over one float64 vector that holds the coreset's points, weights and
labels, and that only the loop sees. The loop drops the training and
validation queries whose full-data cost is at or below RATIO_FLOOR. It
starts from m points of the data, weights 1/m, and learns the points, the
labels and, unless cfg.learn_weights is off, the weights. An epoch takes a
step per batch of a fresh seeded permutation of the queries, or one step
on all of them in their given order when one batch holds them. Each step
is Adam with bias correction, a global-norm gradient clip, and a clamp of
the coreset weights to >= 0. The best-scored epoch is returned: by the
data term over the validation queries when any survive the floor, by the
training objective otherwise; TrainReport says what each epoch records.
The loop hands out only Coresets built from the vector, the best epoch's
and the final one (report.final_coreset), and a Coreset is a read-only
copy, so no later step changes what it returned.
The subgradient of |x| at 0 is taken as 0, so an exact copy of the data
whose costs equal the data's bit for bit is a fixed point.

A step's arithmetic lives in LossModel._weighted_grads, the routine behind
the checking public LossModel.weighted_grads. The loop checks and augments
its arrays once per run, so each step is one call of that routine on the
vector's views, writing the gradients into the gradient vector's views,
then the clip, adam_step and the clamp. The loop allocates one workspace
per run (LossModel._workspace), which holds the kernel's buffers at
m x min(batch_size, k) and an epoch's scoring (LossModel._costs): each
step computes its loss matrices in the workspace's views for its batch
size, built once per run, so that no step and no epoch allocates an
(m, k) array.

The practical objective widens that kink to a dead zone: a ratio
|1 - f_C/f_P| at or below RATIO_DEAD_ZONE, a few ulps, gets sign 0. f_C and
f_P of one query come from BLAS reductions whose last bit depends on the
query's column position in the (n, k) loss matrix, so an exact copy's
ratios are ~1e-15 rather than 0, and Adam, blind to a gradient's scale,
would turn them into learning-rate-sized steps. No reduction removes the
rounding: w @ F rounds some columns differently when the columns of F are
permuted, and np.einsum and np.add.reduce, though stable under
permutation, are not stable for subsets of a few columns and are slower.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# the benchmark harness imports RATIO_FLOOR from here
from .core import (RATIO_FLOOR, Coreset, ContractError, NumericError,
                   WeightedLabeledSet, check_count, check_real, floored,
                   floored_split, scored, stream_rng)
from .losses import LossModel

# global-norm bound on each step's gradient
GRAD_CLIP = 1e3
# Adam's moment decay rates and the denominator's guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# ratios |1 - f_C/f_P| this small are rounding, not error: see the module
RATIO_DEAD_ZONE = 64 * np.finfo(float).eps

ALG_AVERAGE = "average"
ALG_PRACTICAL = "practical"


@dataclass
class TrainConfig:
    coreset_size: int = 50
    algorithm: str = ALG_PRACTICAL
    epochs: int = 10
    learning_rate: float = 0.01
    lam: float = 1.0
    batch_size: int = 25
    seed: int = 0
    learn_weights: bool = True

    def __post_init__(self):
        for name, low in (("coreset_size", 1), ("epochs", 1),
                          ("batch_size", 1), ("seed", None)):
            check_count(getattr(self, name), name, low)
        check_real(self.learning_rate, "learning_rate")
        check_real(self.lam, "lambda", closed=True)
        if not isinstance(self.learn_weights, bool):
            raise ContractError(
                f"learn_weights must be True or False, got {self.learn_weights!r}")
        if self.algorithm not in (ALG_AVERAGE, ALG_PRACTICAL):
            raise ContractError(f"unknown algorithm {self.algorithm!r}")

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


def init_coreset(P: WeightedLabeledSet, m: int, seed: int) -> Coreset:
    """Starting coreset: m seeded points of P and their labels, weights 1/m."""
    check_count(m, "m", 1)
    rng = stream_rng(seed, "init_coreset")
    if m <= P.n:
        idx = rng.permutation(P.n)[:m]
    else:
        idx = rng.integers(0, P.n, size=m)
    return Coreset(P.points[idx], np.full(m, 1.0 / m), P.labels[idx])


@dataclass
class TrainReport:
    """Per-epoch record of one training run.

    train_losses[e] is the training objective at epoch e: over all training
    queries after the epoch's steps when it selects the epoch (no validation
    query survives the ratio floor), and otherwise the batch-size-weighted
    mean of its minibatch values, each taken before its step. val_errors[e]
    is the validation data term after epoch e, empty without validation.
    best_epoch is the returned coreset's epoch. filtered_train_queries counts
    the training queries dropped at the ratio floor.
    """

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


def _split(theta: np.ndarray, m: int, d: int):
    """Views (points (m, d), weights (m,), labels (m,)) into one flat vector."""
    return theta[:m * d].reshape(m, d), theta[m * d:m * d + m], theta[m * d + m:]


def _fit(P: WeightedLabeledSet, Q_train, Q_val, loss: LossModel,
         cfg: TrainConfig, term):
    """Adam on the coreset (C, u, y), held as views into one float64 vector.

    Q_train (by core.floored_split) and Q_val are scored on P and floored at
    RATIO_FLOOR; dropped training queries warn. term(costs, f_p) is the data
    term: it maps the coreset's costs on a set of queries and the data's costs
    f_p on them to the term and its derivative with respect to the coreset's
    costs, and the weight-sum penalty lam * |sum w - sum u| is added to it.
    Frozen weights get a zero gradient, which Adam turns into a zero move. An
    epoch is scored by the validation data term when a validation query
    survives, by its train loss otherwise (see TrainReport). Returns the
    best-scored epoch's coreset and the report.
    """
    qm, f_p, n_dropped = floored_split(P, loss, Q_train, "Q_train")
    if n_dropped:
        warnings.warn(
            f"dropping {n_dropped} training queries with near-zero full-data cost")
    # the queries that score an epoch and their data costs: validation's
    # when any survive the floor, training's otherwise
    score_qm, score_f_p = qm, f_p
    if Q_val is not None:
        val_qm, val_f_p, _ = floored(*scored(P, loss, Q_val, "Q_val"))
        if val_qm.shape[0]:
            score_qm, score_f_p = val_qm, val_f_p
    validated = score_qm is not qm
    init = init_coreset(P, cfg.coreset_size, cfg.seed)
    m, d = init.n, init.dim
    theta = np.concatenate([init.points.ravel(), init.weights, init.labels])
    pts, wts, lab = _split(theta, m, d)
    grad = np.zeros_like(theta)
    g_pts, g_wts, g_lab = _split(grad, m, d)
    state = OptimizerState.for_params(theta)
    report = TrainReport(filtered_train_queries=n_dropped)
    w_sum = float(np.sum(P.weights))
    # each step hands the checked arrays straight to the gradient routine:
    # the features as the queries see them (pts itself, or with an
    # intercept a buffer whose last column is 1, refreshed after each
    # step), the label column, and the gradient views to write (none for
    # frozen weights, whose gradient stays 0)
    feats = loss.augment(pts)
    lab_col = lab[:, None]
    out = (g_pts, g_lab, g_wts if cfg.learn_weights else None)
    # one workspace for the run: a step's kernel arrays, viewed once per
    # batch width (a full batch and a ragged last one), and an epoch's
    # scoring
    width = min(cfg.batch_size, qm.shape[0])
    work, views = loss._workspace(
        m, {width, qm.shape[0] % width or width}, score_qm.shape[0])

    best_score, best = np.inf, init
    schedule = _minibatches(qm.shape[0], cfg.batch_size, cfg.seed)
    for epoch, batches in zip(range(cfg.epochs), schedule):
        # each step's objective before it moves, and its batch size
        stepped = []
        for step, idx in enumerate(batches):
            gap = w_sum - float(wts.sum())
            batch = qm[idx]
            _, value = loss._weighted_grads(feats, lab_col, wts, batch, term,
                                            f_p[idx], out, views[len(batch)])
            value += abs(gap) * cfg.lam
            if not math.isfinite(value):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, step {step}")
            stepped.append((value, len(batch)))
            if cfg.learn_weights:
                # the penalty's subgradient, sign(gap) with sign(0) = 0
                g_wts -= cfg.lam * ((gap > 0) - (gap < 0))
            norm = math.sqrt(grad @ grad)
            if norm > GRAD_CLIP:
                grad *= GRAD_CLIP / norm
            adam_step(state, theta, grad, cfg.learning_rate)
            project_weights(wts, out=wts)
            if loss.intercept:
                feats[:, :d] = pts

        score = term(loss._costs(feats, lab_col, wts, score_qm, work),
                     score_f_p)[0]
        if validated:
            report.train_losses.append(
                sum(v * k for v, k in stepped) / sum(k for _, k in stepped))
            report.val_errors.append(score)
        else:
            score += abs(w_sum - float(wts.sum())) * cfg.lam
            report.train_losses.append(score)
        if score < best_score:
            best_score = score
            best = Coreset(pts, wts, lab)
            report.best_epoch = epoch

    report.final_coreset = Coreset(pts, wts, lab)
    return best, report


def _minibatches(k: int, batch_size: int, seed: int):
    """Each epoch's batches: all k queries in their order as one batch when
    batch_size >= k, otherwise a fresh seeded permutation of range(k),
    chunked."""
    # the stream keeps its old name: another would move practical's batches
    rng = stream_rng(seed, "practical_batches")
    while True:
        if batch_size >= k:
            yield [slice(None)]
        else:
            order = rng.permutation(k)
            yield [order[lo:lo + batch_size] for lo in range(0, k, batch_size)]


def _gap_term(costs, f_p):
    """Average-loss gap |mean f_P - mean f_C| over a set of queries, from
    the coreset's costs and the data's costs f_p on them; its subgradient
    in each cost is -sign/k, 0 at the kink."""
    k = costs.shape[0]
    diff = float(np.add.reduce(f_p) / k) - float(np.add.reduce(costs) / k)
    return abs(diff), np.full(k, -np.sign(diff) / k)


def _ratio_term(costs, f_p):
    """Per-query relative error |1 - f_C/f_P| from the coreset's costs and
    the data's costs f_p on a set of queries.

    The value is the mean over the queries; the derivative is that of their
    sum, the minibatch loss that a step descends, with sign 0 inside the
    dead zone.
    """
    ratios = 1.0 - costs / f_p
    dev = np.abs(ratios)
    sign = np.where(dev > RATIO_DEAD_ZONE, np.sign(ratios), 0.0)
    # d|1 - f_C/f_P|/d f_C = sign(ratio) * (-1/f_P)
    return float(np.add.reduce(dev) / dev.shape[0]), sign * (-1.0 / f_p)


def autocl_average(P: WeightedLabeledSet, Q_train, Q_val, loss: LossModel,
                   cfg: TrainConfig):
    """Learn a coreset minimizing the gap between average losses over Q_train
    (see train)."""
    return _fit(P, Q_train, Q_val, loss, cfg, _gap_term)


def autocl_practical(P: WeightedLabeledSet, Q_train, Q_val, loss: LossModel,
                     cfg: TrainConfig):
    """Learn a coreset minimizing the per-query relative error over Q_train
    (see train)."""
    return _fit(P, Q_train, Q_val, loss, cfg, _ratio_term)


def train(P: WeightedLabeledSet, Q_train, Q_val, loss: LossModel, cfg: TrainConfig):
    """Learn a coreset of P by cfg.algorithm's objective over Q_train.

    Both objectives score and floor Q_train and Q_val at RATIO_FLOOR, step
    through minibatches of cfg.batch_size (one of every query, in their
    given order, when it holds them all), and return the best-scored
    epoch's coreset and its TrainReport: by Q_val's data term when any of
    it survives the floor, by the training objective otherwise. A Q_train
    with no queries, or none above the floor, is a ContractError.
    """
    if cfg.algorithm == ALG_AVERAGE:
        return autocl_average(P, Q_train, Q_val, loss, cfg)
    return autocl_practical(P, Q_train, Q_val, loss, cfg)
