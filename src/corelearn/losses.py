"""Per-point losses with analytic gradients w.r.t. point, label, weight, query.

Two loss families are supported: squared-residual linear regression and
negative log-likelihood logistic regression with +/-1 labels. An optional
intercept is handled by appending a constant-1 feature, so the query vector
gains one coordinate and all gradient formulas stay uniform.

Each family is written once, in LossModel._link: the losses at predictions
z = <p, q> and, on request, their derivatives w.r.t. z and the label. The
values (pointwise_matrix, its one-query column pointwise, costs), the coreset
gradients (weighted_grads) and the query's cost and gradient (query_grad) are
all built on it by the chain rule through z. The logistic slope is written
once too, in _softplus_terms, which _link shares with the query pool's step
(query_grads): it needs each query's gradient and only a proof, by one bound
for both families, that its cost is finite.

Squared loss has a second form of its gradient, the Gram form: a set's
statistics G = A^T W A and h = A^T W b (normal_equations; A the augmented
features) give it as 2 (G q - h), O(d'^2) per query after one pass over
the points (Maalouf, Jubran & Feldman, "Fast and Accurate Least-Mean-Squares
Solvers", NeurIPS 2019). It serves the query pool's step only, and every
cost is direct. G at weights w f''/2 (_half_curvature) is half the
Hessian, solve_optimal's.

The public entries check their inputs by two rules: the points, labels
and weights by core.set_arrays, the weighted sets' own rule, then the
queries by core.query_matrix at the points' query dim. The coreset
gradients' arithmetic lives in LossModel._weighted_grads, which takes
arrays that are already checked and augmented and a data term
term(costs, f_p); weighted_grads is its checking entry, and the learner
calls it directly once per step.

A training run allocates its kernels' arrays once (LossModel._workspace):
_link computes in the buffers it is handed (fresh ones when none are), and
each step's _weighted_grads and each epoch's scoring (_costs, costs'
arithmetic bit for bit) write into views of that one buffer. So no step
and no epoch allocates an array of its loss matrix's size, and training's
speed does not depend on the allocator's history: glibc maps every
allocation past its mmap threshold (128 KB until a large free raises it)
afresh and faults it in page by page. costs, the full-data kernel, goes
block by block through pointwise_matrix, the public kernel that
bench/spans.py times and counts; a block holds at most BLOCK_ELEMENTS
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContractError, query_matrix, set_arrays

LINEAR = "linear_regression"
LOGISTIC = "logistic_regression"


# Full-data costs are evaluated over blocks of queries holding at most this
# many (point, query) pairs, so memory stays flat however many queries come:
# 512 KB a block buffer, so that the two a logistic block takes fit in a
# 2 MB L2 cache together.
BLOCK_ELEMENTS = 1 << 16

# The largest residual |a.q - b| at which query_grads takes a total cost as
# finite without computing it: its square, and so each logistic margin,
# times the total weight (at least 1) stays below 1e300, far from overflow.
RESIDUAL_LIMIT = 1e150


def _softplus_terms(m, slope, work=None):
    """(e, s) at logistic margins m: e = exp(-|m|) and, if slope, the slope
    s = d softplus(-m) / dm = -sigmoid(-m), else None. Value and slope come
    from the one e, so neither overflows at any finite m; m is not changed.
    e, s and a temporary are written into work[0], work[1] and work[2],
    arrays shaped like m (work[0] alone without slope), or into fresh ones
    when work is None.
    """
    if work is None:
        work = np.empty((3 if slope else 1,) + m.shape)
    e = np.abs(m, out=work[0])
    np.negative(e, out=e)
    np.exp(e, out=e)
    if not slope:
        return e, None
    # -e / (1 + e) for m >= 0, -1 / (1 + e) else: e lies in [0, 1], so
    # max(e, m < 0) picks the numerator
    s = np.add(e, 1.0, out=work[1])
    num = np.less(m, 0.0, out=work[2])
    np.maximum(e, num, out=num)
    np.divide(num, s, out=s)
    np.negative(s, out=s)
    return e, s


def _columns(work, count, rows, cols):
    """count C-contiguous (rows, cols) matrices, stacked, in the head of the
    flat buffer work: what np.matmul(out=) and _link write into."""
    return work[:count * rows * cols].reshape(count, rows, cols)


@dataclass(frozen=True)
class LossModel:
    kind: str = LINEAR
    intercept: bool = False

    def __post_init__(self):
        if self.kind not in (LINEAR, LOGISTIC):
            raise ContractError(f"unknown loss kind: {self.kind!r}")
        if not isinstance(self.intercept, bool):
            raise ContractError(
                f"intercept must be True or False, got {self.intercept!r}")

    def query_dim(self, data_dim: int) -> int:
        return data_dim + 1 if self.intercept else data_dim

    def augment(self, points: np.ndarray) -> np.ndarray:
        """Feature matrix as seen by the query (constant column if intercept)."""
        if not self.intercept:
            return points
        ones = np.ones((points.shape[0], 1))
        return np.hstack([points, ones])

    # -- values ---------------------------------------------------------

    def _link_buffers(self, grad):
        """How many arrays shaped like z _link works in."""
        if self.kind == LINEAR:
            return 2 if grad else 0
        return 4 if grad else 1

    def _link(self, z, labels, grad=False, work=None):
        """Losses f(z, b) at predictions z and labels b, which broadcast
        against z; the one place where each family's formula is written.

        Returns (f, df/dz, df/db), the two derivatives None without grad. z
        is overwritten, and every result is computed in z or in work:
        _link_buffers(grad) arrays shaped like z, or fresh ones when work
        is None. No other array of z's size is allocated.
        """
        if work is None:
            work = np.empty((self._link_buffers(grad),) + z.shape)
        if self.kind == LINEAR:
            # f = (z - b)^2
            z -= labels
            dz = db = None
            if grad:
                dz = np.multiply(2.0, z, out=work[0])
                db = np.negative(dz, out=work[1])
            z *= z
            return z, dz, db
        # f = softplus(-m) = log(1 + e^-m) with margin m = b z. Labels may be
        # real here: learned coreset labels drift off +/-1. With grad, z is
        # kept for df/db and m goes to work[0].
        m = np.multiply(z, labels, out=work[0] if grad else z)
        e, s = _softplus_terms(m, grad, work[1:] if grad else work)
        dz = db = None
        if grad:
            db = np.multiply(z, s, out=z)
            dz = s
            dz *= labels
        # softplus(-m) = max(-m, 0) + log1p(e)
        np.minimum(m, 0.0, out=m)
        f = np.log1p(e, out=e)
        f -= m
        return f, dz, db

    def _half_curvature(self, z, labels):
        """f''/2, half _link's d^2 f / dz^2, at predictions z and labels b: 1
        for squared loss, b^2 sigmoid(b z) sigmoid(-b z) / 2 for logistic."""
        if self.kind == LINEAR:
            return 1.0
        e = _softplus_terms(z * labels, False)[0]
        return labels * labels * e / (1.0 + e) ** 2 / 2.0

    def pointwise(self, points, labels, q) -> np.ndarray:
        """Per-point losses f(p_i, b_i, q), shape (n,): pointwise_matrix at
        q."""
        return self.pointwise_matrix(points, labels,
                                     np.reshape(q, (1, -1)))[:, 0]

    def pointwise_matrix(self, points, labels, queries) -> np.ndarray:
        """Loss values for every (point, query) pair, shape (n, k)."""
        points, labels = set_arrays(points, labels)
        qm = query_matrix(queries, "queries", self.query_dim(points.shape[1]))
        return self._link(self.augment(points) @ qm.T, labels[:, None])[0]

    def costs(self, points, labels, weights, queries) -> np.ndarray:
        """Weighted total cost per query, weights @ pointwise_matrix, shape (k,).

        The (n, k) loss matrix is never held whole: the queries are taken
        in blocks of at most BLOCK_ELEMENTS // n, each one pointwise_matrix
        call, so that bench/spans.py, which wraps pointwise_matrix, times
        and counts this kernel. Past BLOCK_ELEMENTS (2^16) points a block
        is one query, and its arrays then grow as 8n bytes each.
        """
        points, labels, weights = set_arrays(points, labels, weights)
        qm = query_matrix(queries, "queries", self.query_dim(points.shape[1]))
        step = max(1, BLOCK_ELEMENTS // points.shape[0])
        out = np.empty(qm.shape[0])
        for lo in range(0, qm.shape[0], step):
            # the old block is freed only after the next is built, which keeps
            # glibc from trimming the heap and faulting it in again per block
            block = self.pointwise_matrix(points, labels, qm[lo:lo + step])
            out[lo:lo + step] = weights @ block
        return out

    def _workspace(self, rows, widths, k_score):
        """A training run's buffers at rows points, allocated once: the
        flat buffer _costs scores k_score queries in, and for each batch
        width in widths the views _weighted_grads takes, in its head."""
        count = 1 + self._link_buffers(True)
        score = (1 + self._link_buffers(False)) * rows * min(
            max(1, BLOCK_ELEMENTS // rows), k_score)
        work = np.empty(max(count * rows * max(widths), score))
        return work, {k: tuple(_columns(work, count, rows, k)) for k in widths}

    def _costs(self, a, labels, weights, qm, work):
        """costs' arithmetic in a caller's buffer, bit for bit: a the (n, d')
        augmented features, labels their (n, 1) column, weights (n,), qm
        the (k, d') queries, work the flat buffer from _workspace. Every
        block of queries is evaluated in work's head with np.matmul(out=)
        and the in-place _link.
        """
        n, k = a.shape[0], qm.shape[0]
        step = max(1, BLOCK_ELEMENTS // n)
        count = 1 + self._link_buffers(False)
        out = np.empty(k)
        for lo in range(0, k, step):
            block = qm[lo:lo + step]
            z, *scratch = _columns(work, count, n, block.shape[0])
            f = self._link(np.matmul(a, block.T, out=z), labels,
                           work=scratch)[0]
            np.matmul(weights, f, out=out[lo:lo + step])
        return out

    # -- gradients ------------------------------------------------------

    def weighted_grads(self, points, labels, weights, queries, coeffs):
        """Costs per query and gradients of sum_q coeffs_q * f(C, u, q).

        points: (m, d), labels/weights: (m,), queries: (k, d').
        coeffs: (k,) array, one coefficient per query.
        Returns (costs (k,), d_points (m, d), d_labels (m,), d_weights (m,)).
        The label gradient treats the label as a real even for the logistic
        loss, which is what joint label learning needs.
        """
        points, labels, weights = set_arrays(points, labels, weights)
        qm = query_matrix(queries, "queries", self.query_dim(points.shape[1]))
        m, d = points.shape
        if np.shape(coeffs) != (qm.shape[0],):
            raise ContractError(f"coeffs have shape {np.shape(coeffs)}, "
                                f"expected ({qm.shape[0]},): one per query")
        coeffs = np.asarray(coeffs, dtype=float)
        out = (np.empty((m, d)), np.empty(m), np.empty(m))
        costs, _ = self._weighted_grads(self.augment(points), labels[:, None],
                                        weights, qm,
                                        lambda costs, _: (0.0, coeffs),
                                        None, out, None)
        return (costs,) + out

    def _weighted_grads(self, a, labels, weights, qm, term, f_p, out, work):
        """weighted_grads' arithmetic, on checked float arrays.

        a: the (m, d') features as the queries see them (augmented), labels:
        their (m, 1) column, weights: (m,), qm: the (k, d') batch of queries,
        term(costs, f_p): maps the batch's costs and f_p, the data's costs
        on the batch as the caller passes them, to (value, coeffs (k,)).
        The gradients of sum_q coeffs_q * f(C, u, q) w.r.t. the points (the
        first d columns of a), the labels and the weights are written into
        out = (d_points (m, d), d_labels (m,), d_weights (m,) or None to
        skip it), unless value is not finite. Returns (costs, value).
        work: the predictions' and _link's (m, k) arrays, _workspace's
        views for width k, or None for fresh ones.
        """
        if work is None:
            work = np.empty((1 + self._link_buffers(True), a.shape[0],
                             qm.shape[0]))
        per_point, dz, db = self._link(np.matmul(a, qm.T, out=work[0]),
                                       labels, grad=True, work=work[1:])
        costs = weights @ per_point
        value, coeffs = term(costs, f_p)
        if not math.isfinite(value):
            return costs, value
        d_points, d_labels, d_weights = out
        # sum_q coeffs_q * u_i * (d f_iq / d z_iq) * q
        np.matmul(dz, coeffs[:, None] * qm[:, :d_points.shape[1]], out=d_points)
        d_points *= weights[:, None]
        np.matmul(db, coeffs, out=d_labels)
        d_labels *= weights
        if d_weights is not None:
            np.matmul(per_point, coeffs, out=d_weights)
        return costs, value

    def query_grad(self, points, labels, weights, q) -> tuple[float, np.ndarray]:
        """Total cost sum_i w_i f(p_i, b_i, q) and its gradient w.r.t. the
        query vector, (cost, grad (d',)), from one pass over the points."""
        points, labels, weights = set_arrays(points, labels, weights)
        q = query_matrix([q], "q", self.query_dim(points.shape[1]))[0]
        a = self.augment(points)
        f, dz, _ = self._link(a @ q, labels, grad=True)
        return float(weights @ f), a.T @ (weights * dz)

    def query_grads(self, points, labels, weights):
        """The function that maps a (s, d') matrix of queries to whether the
        total cost is finite and its gradient w.r.t. the query at each row,
        (finite (s,) bool, grads (s, d')), for gradient descent on the set.

        One bound proves a row's cost finite for both families. With
        reach = max|a_i| and offset = max|b_i|, a row is near when
        reach * |q| + offset <= RESIDUAL_LIMIT / sqrt(W), W = max(1, sum|w|).
        There every residual |a.q - b| is at most RESIDUAL_LIMIT / sqrt(W)
        and every logistic margin |b a.q| <= offset * reach * |q| at most
        its square, so either total cost is at most about 1e300 + W. A near
        row gets its gradient alone: the logistic slope pass, query_grad's
        bit for bit, or the squared loss's Gram form 2 (G q - h), from
        normal_equations computed here once, which agrees with query_grad
        to about 1e-13 relative. Every other row (far, or with a nan or inf
        bound) is query_grad's, cost and all, and is finite when it and its
        cost are.

        The set is checked (core.set_arrays) and augmented here, once.
        """
        points, labels, weights = set_arrays(points, labels, weights)
        a = self.augment(points)
        # |a.q| <= reach * |q| for every point
        reach = math.sqrt(np.max(np.einsum("ij,ij->i", a, a)))
        offset = float(np.max(np.abs(labels)))
        limit = RESIDUAL_LIMIT / math.sqrt(max(1.0, np.abs(weights).sum()))
        if self.kind == LINEAR:
            G, h = self.normal_equations(points, labels, weights)

        def grads(queries):
            queries = query_matrix(queries, "queries", a.shape[1])
            near = reach * np.linalg.norm(queries, axis=1) + offset <= limit
            finite = np.ones(queries.shape[0], dtype=bool)
            if self.kind == LINEAR:
                grad = 2.0 * (queries @ G.T - h)
            else:
                grad = np.empty(queries.shape)
                for i in np.flatnonzero(near):
                    # query_grad's gradient, in its order, without the cost
                    m = a @ queries[i]
                    m *= labels
                    dz = _softplus_terms(m, True)[1]
                    dz *= labels
                    grad[i] = a.T @ (weights * dz)
            # far, or a nan or inf bound
            for i, q in zip(np.flatnonzero(~near), queries[~near]):
                cost, grad[i] = self.query_grad(points, labels, weights, q)
                # an infinite row's cost can be finite: softplus(-inf) is 0
                finite[i] = math.isfinite(cost) and np.isfinite(q).all()
            return finite, grad
        return grads

    def normal_equations(self, points, labels, weights):
        """A weighted set's statistics (G, h) = (A^T W A, A^T W b), A the
        augmented features: the squared loss's total cost has gradient
        2 (G q - h) at q, and G q = h at its minimizers."""
        points, labels, weights = set_arrays(points, labels, weights)
        a = self.augment(points)
        G = a.T @ (weights[:, None] * a)
        h = a.T @ (weights * labels)
        return G, h
