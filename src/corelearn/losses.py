"""Per-point losses with analytic gradients w.r.t. point, label, weight, query.

Two loss families are supported: squared-residual linear regression and
negative log-likelihood logistic regression with +/-1 labels. An optional
intercept is handled by appending a constant-1 feature, so the query vector
gains one coordinate and all gradient formulas stay uniform.

Each family is written once, in LossModel._link: the losses at predictions
z = <p, q> and, on request, their derivatives w.r.t. z and the label. The
values (pointwise, pointwise_matrix, blocks, costs), the coreset gradients
(weighted_grads) and the query's cost and gradient (query_grad) are all
built on it by the chain rule through z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError

LINEAR = "linear_regression"
LOGISTIC = "logistic_regression"


# Full-data costs are evaluated over blocks of queries holding at most this
# many (point, query) pairs, so memory stays flat however many queries come.
BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class LossModel:
    kind: str = LINEAR
    intercept: bool = False

    def __post_init__(self):
        if self.kind not in (LINEAR, LOGISTIC):
            raise ContractError(f"unknown loss kind: {self.kind!r}")

    def query_dim(self, data_dim: int) -> int:
        return data_dim + 1 if self.intercept else data_dim

    def augment(self, points: np.ndarray) -> np.ndarray:
        """Feature matrix as seen by the query (constant column if intercept)."""
        points = np.atleast_2d(points)
        if not self.intercept:
            return points
        ones = np.ones((points.shape[0], 1))
        return np.hstack([points, ones])

    # -- values ---------------------------------------------------------

    def _features(self, points, query_dim):
        a = self.augment(np.atleast_2d(np.asarray(points, dtype=float)))
        if a.shape[1] != query_dim:
            raise ContractError(
                f"query dim {query_dim} does not match feature dim {a.shape[1]}"
            )
        return a

    def _link(self, z, labels, grad=False):
        """Losses f(z, b) at predictions z and labels b, which broadcast
        against z; the one place where each family's formula is written.

        Returns (f, df/dz, df/db), the two derivatives None without grad. z
        is overwritten, and the losses are computed in its memory or in a
        temporary of its size.
        """
        if self.kind == LINEAR:
            # f = (z - b)^2
            z -= labels
            dz = db = None
            if grad:
                dz = 2.0 * z
                db = -dz
            z *= z
            return z, dz, db
        # f = softplus(-m) = log(1 + e^-m) with margin m = b z. Labels may be
        # real here: learned coreset labels drift off +/-1. Value and slope
        # come from one e = exp(-|m|), so neither overflows at any finite m.
        m = z * labels if grad else np.multiply(z, labels, out=z)
        e = np.abs(m)
        np.negative(e, out=e)
        np.exp(e, out=e)
        dz = db = None
        if grad:
            # df/dm = -sigmoid(-m): -e / (1 + e) for m >= 0, -1 / (1 + e) else
            s = e + 1.0
            np.divide(np.where(m >= 0, e, 1.0), s, out=s)
            np.negative(s, out=s)
            db = np.multiply(z, s, out=z)
            dz = s
            dz *= labels
        # softplus(-m) = max(-m, 0) + log1p(e)
        np.minimum(m, 0.0, out=m)
        f = np.log1p(e, out=e)
        f -= m
        return f, dz, db

    def pointwise(self, points, labels, q) -> np.ndarray:
        """Per-point loss values f(p_i, b_i, q), shape (n,)."""
        q = np.asarray(q, dtype=float)
        a = self._features(points, q.shape[0])
        labels = np.atleast_1d(np.asarray(labels, dtype=float))
        return self._link(a @ q, labels)[0]

    def pointwise_matrix(self, points, labels, queries) -> np.ndarray:
        """Loss values for every (point, query) pair, shape (n, k)."""
        qm = np.atleast_2d(np.asarray(queries, dtype=float))
        a = self._features(points, qm.shape[1])
        labels = np.asarray(labels, dtype=float)
        return self._link(a @ qm.T, labels[:, None])[0]

    def blocks(self, points, labels, queries):
        """pointwise_matrix over consecutive blocks of queries.

        Yields (lo, block), where block is pointwise_matrix for the queries
        from row lo on. A block holds at most BLOCK_ELEMENTS pairs, and at
        least one query.
        """
        qm = np.atleast_2d(np.asarray(queries, dtype=float))
        step = max(1, BLOCK_ELEMENTS // np.atleast_2d(points).shape[0])
        for lo in range(0, qm.shape[0], step):
            yield lo, self.pointwise_matrix(points, labels, qm[lo:lo + step])

    def costs(self, points, labels, weights, queries) -> np.ndarray:
        """Weighted total cost per query, weights @ pointwise_matrix, shape (k,).

        The (n, k) loss matrix is never held whole: see blocks().
        """
        weights = np.asarray(weights, dtype=float)
        out = np.empty(np.atleast_2d(queries).shape[0])
        for lo, block in self.blocks(points, labels, queries):
            out[lo:lo + block.shape[1]] = weights @ block
        return out

    # -- gradients ------------------------------------------------------

    def weighted_grads(self, points, labels, weights, queries, coeffs):
        """Costs per query and gradients of sum_q coeffs_q * f(C, u, q).

        points: (m, d), labels/weights: (m,), queries: (k, d').
        coeffs: (k,) array, or a function that maps the costs (k,) to the
        (k,) coefficients, so that they can depend on the costs of this very
        evaluation without a second one.
        Returns (costs (k,), d_points (m, d), d_labels (m,), d_weights (m,)).
        The label gradient treats the label as a real even for the logistic
        loss, which is what joint label learning needs.
        """
        qm = np.atleast_2d(np.asarray(queries, dtype=float))
        points = np.atleast_2d(np.asarray(points, dtype=float))
        labels = np.asarray(labels, dtype=float)
        weights = np.asarray(weights, dtype=float)
        d = points.shape[1]
        z = self._features(points, qm.shape[1]) @ qm.T  # (m, k)
        per_point, dz, db = self._link(z, labels[:, None], grad=True)
        costs = weights @ per_point
        coeffs = np.asarray(coeffs(costs) if callable(coeffs) else coeffs,
                            dtype=float)
        # sum_q coeffs_q * u_i * (d f_iq / d z_iq) * q
        d_points = weights[:, None] * (dz @ (coeffs[:, None] * qm[:, :d]))
        d_labels = weights * (db @ coeffs)
        d_weights = per_point @ coeffs
        return costs, d_points, d_labels, d_weights

    def query_grad(self, points, labels, weights, q) -> tuple[float, np.ndarray]:
        """Total cost sum_i w_i f(p_i, b_i, q) and its gradient w.r.t. the
        query vector, (cost, grad (d',)), from one pass over the points."""
        q = np.asarray(q, dtype=float)
        a = self._features(points, q.shape[0])
        labels = np.asarray(labels, dtype=float)
        weights = np.asarray(weights, dtype=float)
        f, dz, _ = self._link(a @ q, labels, grad=True)
        return float(np.sum(weights * f)), a.T @ (weights * dz)
