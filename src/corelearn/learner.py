"""Coreset learning by gradient descent.

Two objectives are implemented over a training set of queries:

* average: | mean_q f(P,w,q) - mean_q f(C,u,q) | + lambda * |sum w - sum u|
* practical: sum over a minibatch of |1 - f(C,u,q)/f(P,w,q)|, plus the same
  weight-sum penalty, applied once per optimizer step.

Updates use Adam with bias correction, a global-norm gradient clip, and a
clamp of the coreset weights to >= 0 after every step. The subgradient of
|x| at 0 is taken as 0, which makes the exact-copy coreset a fixed point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Coreset, ContractError, NumericError, WeightedLabeledSet, stream_rng
from .losses import LossModel

RATIO_FLOOR = 1e-12

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
    grad_clip: float = 1e3

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
    """Adam moment accumulators, one pair of tensors per learnable."""

    m: dict
    v: dict
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8

    @staticmethod
    def for_params(params: dict) -> "OptimizerState":
        return OptimizerState(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(state: OptimizerState, params: dict, grads: dict, lr: float) -> None:
    """One Adam update, in place, over a dict of named tensors."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ContractError(f"gradient shape mismatch for {k!r}")
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = state.m[k] / (1 - b1 ** t)
        v_hat = state.v[k] / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps_adam)


def project_weights(u: np.ndarray) -> np.ndarray:
    """Clamp weights elementwise to >= 0."""
    return np.maximum(0.0, u)


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


def _query_matrix(Q):
    if hasattr(Q, "array"):
        return np.asarray(Q.array, dtype=float)
    return np.atleast_2d(np.asarray(Q, dtype=float))


def _clip_grads(grads: dict, max_norm: float) -> None:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def _learnables(coreset: Coreset, cfg: TrainConfig) -> dict:
    params = {"points": coreset.points}
    if cfg.learn_labels:
        params["labels"] = coreset.labels
    if cfg.learn_weights:
        params["weights"] = coreset.weights
    return params


def _weight_sum_term(coreset, w_sum, lam):
    gap = w_sum - float(np.sum(coreset.weights))
    return abs(gap) * lam, np.sign(gap)


def autocl_average(P: WeightedLabeledSet, Q_train, loss: LossModel,
                   cfg: TrainConfig):
    """Learn a coreset minimizing the gap between average losses over Q_train.

    One full-batch gradient step per epoch.
    """
    qm = _query_matrix(Q_train)
    k = qm.shape[0]
    if k < 1:
        raise ContractError("need at least one training query")
    coreset = init_coreset(P, cfg.coreset_size, cfg.seed, cfg.init_strategy)
    params = _learnables(coreset, cfg)
    state = OptimizerState.for_params(params)
    report = TrainReport()
    w_sum = float(np.sum(P.weights))
    # the data-side average is constant across epochs; compute it once
    f_p_avg = float(np.mean(loss.costs(P.points, P.labels, P.weights, qm)))

    best_obj = np.inf
    best = coreset.copy()
    for epoch in range(cfg.epochs):
        coeffs = np.full(k, 1.0 / k)
        costs, d_pts, d_lab, d_wts = loss.weighted_grads(
            coreset.points, coreset.labels, coreset.weights, qm, coeffs)
        f_c_avg = float(np.mean(costs))
        diff = f_p_avg - f_c_avg
        pen, pen_sign = _weight_sum_term(coreset, w_sum, cfg.lam)
        objective = abs(diff) + pen
        if not np.isfinite(objective):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        report.train_losses.append(objective)
        if objective < best_obj:
            best_obj = objective
            best = coreset.copy()
            report.best_epoch = epoch

        s = np.sign(diff)  # subgradient of |.|, 0 at the kink
        grads = {"points": -s * d_pts}
        if cfg.learn_labels:
            grads["labels"] = -s * d_lab
        if cfg.learn_weights:
            grads["weights"] = -s * d_wts - cfg.lam * pen_sign
        _clip_grads(grads, cfg.grad_clip)
        adam_step(state, params, grads, cfg.learning_rate)
        coreset.weights[:] = project_weights(coreset.weights)

    report.final_coreset = coreset.copy()
    out = best if cfg.early_stop_on_validation else coreset
    return out.copy(), report


def _ratio_errors(coreset, loss, qm, f_p):
    f_c = loss.costs(coreset.points, coreset.labels, coreset.weights, qm)
    return np.abs(1.0 - f_c / f_p)


def autocl_practical(P: WeightedLabeledSet, Q_train, Q_val, loss: LossModel,
                     cfg: TrainConfig):
    """Learn a coreset minimizing the per-query relative error over Q_train.

    Minibatched; queries whose full-data cost falls below RATIO_FLOOR are
    dropped up front (the ratio is undefined there). If validation queries
    are supplied, the epoch with the lowest validation error is returned
    when cfg.early_stop_on_validation is set.
    """
    qm = _query_matrix(Q_train)
    f_p_all = loss.costs(P.points, P.labels, P.weights, qm)
    keep = f_p_all > RATIO_FLOOR
    n_dropped = int(np.sum(~keep))
    if n_dropped:
        warnings.warn(
            f"dropping {n_dropped} training queries with near-zero full-data cost")
    qm = qm[keep]
    f_p = f_p_all[keep]
    k = qm.shape[0]
    if k < 1:
        raise ContractError("no usable training queries above the ratio floor")

    val_qm = None
    f_p_val = None
    if Q_val is not None:
        val_qm = _query_matrix(Q_val)
        if val_qm.shape[0] > 0:
            f_pv = loss.costs(P.points, P.labels, P.weights, val_qm)
            vkeep = f_pv > RATIO_FLOOR
            val_qm = val_qm[vkeep]
            f_p_val = f_pv[vkeep]
        if val_qm.shape[0] == 0:
            val_qm = None

    coreset = init_coreset(P, cfg.coreset_size, cfg.seed, cfg.init_strategy)
    params = _learnables(coreset, cfg)
    state = OptimizerState.for_params(params)
    report = TrainReport(filtered_train_queries=n_dropped)
    w_sum = float(np.sum(P.weights))
    rng = stream_rng(cfg.seed, "practical_batches")

    best_score = np.inf
    best = coreset.copy()
    for epoch in range(cfg.epochs):
        order = rng.permutation(k)
        for lo in range(0, k, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            f_p_batch = f_p[idx]
            pen, pen_sign = _weight_sum_term(coreset, w_sum, cfg.lam)

            def coeffs(costs):
                ratios = 1.0 - costs / f_p_batch
                if not np.isfinite(float(np.sum(np.abs(ratios))) + pen):
                    raise NumericError(
                        f"non-finite training loss at epoch {epoch}, "
                        f"step {lo // cfg.batch_size}")
                # d|1 - f_C/f_P|/d f_C = sign(ratio) * (-1/f_P)
                return np.sign(ratios) * (-1.0 / f_p_batch)

            _, d_pts, d_lab, d_wts = loss.weighted_grads(
                coreset.points, coreset.labels, coreset.weights, qm[idx], coeffs)
            grads = {"points": d_pts}
            if cfg.learn_labels:
                grads["labels"] = d_lab
            if cfg.learn_weights:
                grads["weights"] = d_wts - cfg.lam * pen_sign
            _clip_grads(grads, cfg.grad_clip)
            adam_step(state, params, grads, cfg.learning_rate)
            coreset.weights[:] = project_weights(coreset.weights)

        pen, _ = _weight_sum_term(coreset, w_sum, cfg.lam)
        epoch_obj = float(np.mean(_ratio_errors(coreset, loss, qm, f_p))) + pen
        report.train_losses.append(epoch_obj)
        score = epoch_obj
        if val_qm is not None:
            val_err = float(np.mean(_ratio_errors(coreset, loss, val_qm, f_p_val)))
            report.val_errors.append(val_err)
            score = val_err
        if score < best_score:
            best_score = score
            best = coreset.copy()
            report.best_epoch = epoch

    report.final_coreset = coreset.copy()
    out = best if cfg.early_stop_on_validation else coreset
    return out.copy(), report


def train(P: WeightedLabeledSet, Q_train, Q_val, loss: LossModel, cfg: TrainConfig):
    """Dispatch on cfg.algorithm."""
    if cfg.algorithm == ALG_AVERAGE:
        return autocl_average(P, Q_train, loss, cfg)
    return autocl_practical(P, Q_train, Q_val, loss, cfg)
