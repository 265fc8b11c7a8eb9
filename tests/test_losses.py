import math

import numpy as np
import pytest

from conftest import (SEEDED_SHAPES, central_diff, rel_close, seeded_problem,
                      shape_id)
from corelearn import (ContractError, WeightedLabeledSet, make_synthetic,
                       set_cost, set_costs)
from corelearn import losses
from corelearn.losses import LossModel, _columns


def test_linreg_values(linreg):
    assert linreg.pointwise([[1.0, 1.0]], [3.0], [1.0, 2.0])[0] == 0.0
    assert linreg.pointwise([[2.0]], [0.0], [1.0])[0] == 4.0
    assert linreg.pointwise([[1.0, 2.0]], [1.0], [2.0, 0.5])[0] == pytest.approx(4.0)


def test_logreg_values(logreg):
    assert logreg.pointwise([[5.0, -1.0]], [1.0], [0.0, 0.0])[0] == pytest.approx(
        math.log(2.0))
    assert logreg.pointwise([[1.0]], [1.0], [1.0])[0] == pytest.approx(
        math.log(1.0 + math.exp(-1.0)))


def test_logreg_monotone_toward_zero(logreg):
    vals = [logreg.pointwise([[1.0]], [1.0], [z])[0] for z in (0.0, 1.0, 5.0, 20.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 0.0


def test_logreg_extreme_margin_is_finite(logreg):
    for sign in (1.0, -1.0):
        v = logreg.pointwise([[1e3]], [sign], [1.0])[0]
        assert np.isfinite(v)
        assert v >= 0.0


def test_linreg_sign_symmetry(linreg):
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.standard_normal(3)
        b = float(rng.standard_normal())
        q = rng.standard_normal(3)
        assert linreg.pointwise([p], [b], q)[0] == pytest.approx(
            linreg.pointwise([-p], [-b], q)[0])


def test_nonnegativity(linreg, logreg):
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.standard_normal(2)
        q = rng.standard_normal(2)
        assert linreg.pointwise([p], [float(rng.standard_normal())], q)[0] >= 0.0
        assert logreg.pointwise([p], [1.0 if rng.random() < 0.5 else -1.0], q)[0] >= 0.0


def test_hand_gradients_linreg(linreg):
    _, dq = linreg.query_grad([[1.0]], [0.0], [1.0], [1.0])
    assert np.allclose(dq, [2.0])
    # exact fit: everything but the weight slot vanishes, and f itself is 0
    costs, dp, db, du = linreg.weighted_grads([[1.0]], [1.0], [1.0], [[1.0]], [1.0])
    cost, dq = linreg.query_grad([[1.0]], [1.0], [1.0], [1.0])
    assert costs[0] == 0.0 and cost == 0.0
    assert np.allclose(dp, 0.0) and db[0] == 0.0 and du[0] == 0.0
    assert np.allclose(dq, 0.0)


def test_hand_gradient_logreg(logreg):
    cost, dq = logreg.query_grad([[1.0]], [1.0], [1.0], [0.0])
    assert cost == pytest.approx(math.log(2.0))
    assert np.allclose(dq, [-0.5])


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_gradients_match_finite_differences(kind):
    """weighted_grads and query_grad against central differences of the
    values, over seeded random shapes, with and without intercept."""
    rng = np.random.default_rng(42)
    for trial in range(60):
        m, k, d = (int(x) for x in rng.integers(1, 6, size=3))
        loss = LossModel(kind, intercept=bool(rng.random() < 0.5))
        pts = rng.standard_normal((m, d))
        if kind == "linear_regression":
            labels = rng.standard_normal(m)
        else:  # +/-1, and every other trial real labels as in label learning
            labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
            if trial % 2:
                labels *= rng.uniform(0.5, 1.5, m)
        w = rng.random(m) + 0.1
        qm = rng.standard_normal((k, loss.query_dim(d)))
        coeffs = rng.standard_normal(k)

        def total(pts_, labels_, w_):
            return coeffs @ (w_ @ loss.pointwise_matrix(pts_, labels_, qm))

        costs, dp, dl, dw = loss.weighted_grads(pts, labels, w, qm, coeffs)
        assert np.array_equal(costs, w @ loss.pointwise_matrix(pts, labels, qm))
        fd_p = central_diff(lambda x: total(x.reshape(m, d), labels, w), pts.ravel())
        fd_l = central_diff(lambda x: total(pts, x, w), labels)
        fd_w = central_diff(lambda x: total(pts, labels, x), w)

        q = qm[0]
        cost, dq = loss.query_grad(pts, labels, w, q)
        assert cost == set_cost(WeightedLabeledSet(pts, w, labels), loss, q)
        fd_q = central_diff(lambda x: w @ loss.pointwise(pts, labels, x), q)
        for got, fd in ((dp.ravel(), fd_p), (dl, fd_l), (dw, fd_w), (dq, fd_q)):
            assert rel_close(got, fd)


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
@pytest.mark.parametrize("shape", SEEDED_SHAPES, ids=shape_id)
def test_one_query_costs_reduce_like_set_costs(shape, kind, intercept):
    """set_cost and query_grad's cost are set_costs' k=1 case, bit for bit."""
    loss, S, qm = seeded_problem(shape, kind, intercept)
    for q in qm:
        ref = set_costs(S, loss, q[None])[0]
        assert set_cost(S, loss, q) == ref
        assert loss.query_grad(S.points, S.labels, S.weights, q)[0] == ref


# query_grads' Gram form against query_grad, relative to query_grad's
# gradient norm: measured at most 4.0e-15 on these shapes.
GRAM_RTOL = 1e-12

# Far rows, past query_grads' one bound for both losses, so each row is
# query_grad's. At 1e152 every cost is still finite, and a logistic row
# would be near by a bound on the margin alone; from 1e160 on the norm in
# the bound overflows, and every squared loss's cost does too.
FAR_SCALES = (1e152, 1e160, 1e300, 1e307)


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
@pytest.mark.parametrize("shape", SEEDED_SHAPES, ids=shape_id)
def test_query_grads_match_query_grad(shape, kind, intercept, monkeypatch):
    """Each row of query_grads is finite exactly where query_grad's cost is,
    and its gradient is query_grad's: bit for bit for the logistic loss,
    within GRAM_RTOL for the squared loss's Gram form. A near row makes no
    query_grad call; a far row is query_grad's own, non-finite cost included."""
    loss, S, qm = seeded_problem(shape, kind, intercept)
    grads = loss.query_grads(S.points, S.labels, S.weights)
    calls = []
    direct = LossModel.query_grad
    monkeypatch.setattr(LossModel, "query_grad",
                        lambda *args: calls.append(1) or direct(*args))
    far = np.concatenate([qm * scale for scale in FAR_SCALES])
    with np.errstate(over="ignore", invalid="ignore"):
        finite, got = grads(qm)
        assert not calls
        far_finite, far_got = grads(far)
        assert len(calls) == len(far)
        ref = [loss.query_grad(S.points, S.labels, S.weights, q) for q in qm]
        far_ref = [loss.query_grad(S.points, S.labels, S.weights, q)
                   for q in far]
    assert finite.shape == (len(qm),) and got.shape == qm.shape
    for row_finite, grad, (ref_cost, ref_grad) in zip(finite, got, ref):
        assert row_finite == math.isfinite(ref_cost)
        if kind == "logistic_regression":
            assert np.array_equal(grad, ref_grad)
        else:
            assert (np.linalg.norm(grad - ref_grad)
                    <= GRAM_RTOL * np.linalg.norm(ref_grad))
    assert np.array_equal(far_finite, [math.isfinite(c) for c, _ in far_ref])
    assert np.array_equal(far_got, [g for _, g in far_ref], equal_nan=True)
    assert far_finite[:len(qm)].all()
    if kind == "linear_regression":
        assert not far_finite[len(qm):].any()


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_query_grads_check_their_inputs(kind):
    """query_grads checks the set once, and each query matrix's width."""
    loss = LossModel(kind, intercept=True)
    pts = [[1.0, 2.0], [0.5, -1.0]]
    with pytest.raises(ContractError, match="labels"):
        loss.query_grads(pts, [1.0], [1.0, 1.0])
    with pytest.raises(ContractError, match="weights"):
        loss.query_grads(pts, [1.0, -1.0], [1.0])
    grads = loss.query_grads(pts, [1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ContractError, match="query dim 2"):
        grads(np.zeros((4, 2)))
    finite, grad = grads(np.zeros((4, 3)))
    assert finite.all() and grad.shape == (4, 3)


@pytest.mark.parametrize("intercept", [False, True])
def test_normal_equations_are_the_sets_statistics(intercept):
    loss, S, _ = seeded_problem(SEEDED_SHAPES[0], "linear_regression", intercept)
    G, h = loss.normal_equations(S.points, S.labels, S.weights)
    a = loss.augment(S.points)
    assert np.allclose(G, a.T @ np.diag(S.weights) @ a)
    assert np.allclose(h, a.T @ (S.weights * S.labels))
    with pytest.raises(ContractError, match="weights have shape"):
        loss.normal_equations(S.points, S.labels, S.weights[1:])


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_half_curvature_weights_give_half_the_hessian(kind):
    """normal_equations' G at weights w f''/2 is half the Hessian of the total
    cost, the Newton matrix of solve_optimal; labels are real, as on a
    learned coreset."""
    loss, S, Q = seeded_problem(SEEDED_SHAPES[1], kind, True)
    S = WeightedLabeledSet(S.points, S.weights, S.labels * 1.7)
    q = Q[0]
    curvature = S.weights * loss._half_curvature(loss.augment(S.points) @ q,
                                                 S.labels)
    G = loss.normal_equations(S.points, S.labels, curvature)[0]
    hessian = np.stack([central_diff(
        lambda x: loss.query_grad(S.points, S.labels, S.weights, x)[1][j], q)
        for j in range(q.shape[0])])
    assert rel_close(2.0 * G, hessian, rtol=1e-5, floor=1e-7)


def test_intercept_augments_query_dim():
    loss = LossModel("linear_regression", intercept=True)
    # <[2], q> + q_0 with q = [3, 1], b = 0 -> residual 7
    v = loss.pointwise([[2.0]], [0.0], [3.0, 1.0])[0]
    assert v == pytest.approx(49.0)
    assert loss.query_dim(1) == 2


def test_pointwise_matrix_agrees_with_pointwise(linreg, logreg):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((6, 2))
    qm = rng.standard_normal((4, 2))
    for loss, labels in ((linreg, rng.standard_normal(6)),
                        (logreg, np.where(rng.random(6) < 0.5, -1.0, 1.0))):
        mat = loss.pointwise_matrix(pts, labels, qm)
        for j in range(4):
            assert np.allclose(mat[:, j], loss.pointwise(pts, labels, qm[j]))


def test_unknown_kind_rejected():
    with pytest.raises(ContractError):
        LossModel("svm")


# -- fused logistic kernel and blocked costs ---------------------------------


def test_fused_logistic_matches_reference(logreg):
    m = np.concatenate([np.linspace(-800.0, 800.0, 100001),
                        np.random.default_rng(7).uniform(-800.0, 800.0, 10000)])
    # at label 1 the prediction is the margin, and df/dz = -sigmoid(-m)
    f, dz, db = logreg._link(m.copy(), 1.0, grad=True)
    with np.errstate(over="ignore"):
        ref_f = np.logaddexp(0.0, -m)
        ref_s = 1.0 / (1.0 + np.exp(m))
    for got, ref in ((f, ref_f), (-dz, ref_s)):
        assert np.all(np.isfinite(got))
        err = np.abs(got - ref)
        assert np.all((err <= 1e-15) | (err <= 1e-15 * np.abs(ref)))
    assert np.array_equal(db, m * dz)
    f_only, no_dz, no_db = logreg._link(m.copy(), 1.0)
    assert no_dz is None and no_db is None and np.array_equal(f_only, f)


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
@pytest.mark.parametrize("intercept", [False, True])
def test_costs_match_full_matrix_across_blocks(monkeypatch, kind, intercept):
    rng = np.random.default_rng(8)
    n, d, k = 10, 3, 17
    monkeypatch.setattr(losses, "BLOCK_ELEMENTS", 64)  # 6 queries per block
    loss = LossModel(kind, intercept=intercept)
    pts = rng.standard_normal((n, d))
    labels = (np.where(rng.random(n) < 0.5, -1.0, 1.0)
              if kind == "logistic_regression" else rng.standard_normal(n))
    w = rng.random(n)
    qm = rng.standard_normal((k, loss.query_dim(d)))
    ref = w @ loss.pointwise_matrix(pts, labels, qm)
    sizes = []
    pointwise_matrix = LossModel.pointwise_matrix

    def counting(self, points, labels, queries):
        sizes.append(len(queries))
        return pointwise_matrix(self, points, labels, queries)

    monkeypatch.setattr(LossModel, "pointwise_matrix", counting)
    got = loss.costs(pts, labels, w, qm)
    assert sizes == [6, 6, 5]
    assert got.shape == (k,)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
@pytest.mark.parametrize("intercept", [False, True])
def test_costs_in_a_workspace_are_costs_bit_for_bit(monkeypatch, kind,
                                                    intercept):
    """_costs, a training run's scoring, evaluates the blocks costs hands
    to pointwise_matrix in _workspace's buffer, stale values and all, to
    the same bits."""
    rng = np.random.default_rng(9)
    n, d, k = 10, 3, 17
    monkeypatch.setattr(losses, "BLOCK_ELEMENTS", 64)  # 6 queries per block
    loss = LossModel(kind, intercept=intercept)
    pts = rng.standard_normal((n, d))
    labels = (np.where(rng.random(n) < 0.5, -1.0, 1.0)
              if kind == "logistic_regression" else rng.standard_normal(n))
    w = rng.random(n)
    qm = rng.standard_normal((k, loss.query_dim(d))) * 40.0
    work, views = loss._workspace(n, {4, 1}, k)
    assert set(views) == {4, 1}
    work.fill(np.nan)
    got = loss._costs(loss.augment(pts), labels[:, None], w, qm, work)
    assert np.array_equal(got, loss.costs(pts, labels, w, qm))


def _fresh_link(kind, z, labels, grad):
    """Each family's formulas with every temporary a fresh array, as _link
    computed them before it took a workspace."""
    if kind == "linear_regression":
        r = z - labels
        return r * r, 2.0 * r if grad else None, -(2.0 * r) if grad else None
    m = z * labels
    e = np.exp(-np.abs(m))
    f = np.log1p(e) - np.minimum(m, 0.0)
    if not grad:
        return f, None, None
    s = -(np.maximum(e, m < 0) / (e + 1.0))
    return f, s * labels, z * s


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_link_in_a_workspace_is_the_fresh_link_bit_for_bit(kind, grad):
    """_link in a supplied workspace, narrower than the buffers it views as
    in a ragged last batch and filled with nan beforehand, gives the bits
    of _link on fresh arrays and of the formulas as first written, at
    margins across +/-800, and allocates no array of z's size."""
    rng = np.random.default_rng(31)
    loss = LossModel(kind)
    rows, width, k = 40, 7, 5
    z = rng.permutation(np.linspace(-800.0, 800.0, rows * k)).reshape(rows, k)
    z[::3] = rng.uniform(-3.0, 3.0, (len(z[::3]), k))
    labels = np.where(rng.random((rows, 1)) < 0.5, -1.0, 1.0)
    labels[::4] *= rng.uniform(0.5, 1.5, (len(labels[::4]), 1))
    count = loss._link_buffers(grad)
    work = np.full(count * rows * width, np.nan)
    z_in = z.copy()
    got = loss._link(z_in, labels, grad, _columns(work, count, rows, k))
    fresh = loss._link(z.copy(), labels, grad)
    first = _fresh_link(kind, z, labels, grad)
    for g, f, r in zip(got, fresh, first):
        if not grad and g is None:
            assert f is None and r is None
            continue
        assert np.array_equal(g, f) and np.array_equal(g, r)
        assert np.shares_memory(g, z_in) or np.shares_memory(g, work)


def test_costs_working_set_is_a_few_block_buffers():
    """Scoring 2,200 queries on 5,000 points holds a block's two arrays and
    the last block's losses, of at most BLOCK_ELEMENTS pairs each, about
    1.5 MB, whatever the number of blocks."""
    import tracemalloc
    loss = LossModel("logistic_regression")
    P = make_synthetic("logistic", 5000, 8, noise=0.3, seed=4)
    qm = np.random.default_rng(5).standard_normal((2200, 8))
    tracemalloc.start()
    try:
        loss.costs(P.points, P.labels, P.weights, qm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("margin", [30.0, -30.0])
def test_logistic_gradients_at_large_margin(margin):
    rng = np.random.default_rng(10)
    loss = LossModel("logistic_regression")
    m, d, k = 4, 3, 3
    q = rng.standard_normal(d)
    labels = np.array([1.0, -1.0, 1.0, 0.7])
    # each point's margin b * <p, q> is close to the requested one
    pts = rng.standard_normal((m, d)) * 0.01
    pts += np.outer(margin / labels, q) / (q @ q)
    qm = q + 0.001 * rng.standard_normal((k, d))
    w = rng.random(m) + 0.5
    coeffs = rng.standard_normal(k)
    marg = labels[:, None] * (pts @ qm.T)
    assert np.all(np.abs(np.abs(marg) - 30.0) < 1.0)

    def total(pts_, labels_, w_, q_):
        return coeffs @ (w_ @ loss.pointwise_matrix(pts_, labels_, q_))

    _, dp, dl, dw = loss.weighted_grads(pts, labels, w, qm, coeffs)
    fd_p = central_diff(lambda x: total(x.reshape(m, d), labels, w, qm), pts.ravel())
    fd_l = central_diff(lambda x: total(pts, x, w, qm), labels)
    fd_w = central_diff(lambda x: total(pts, labels, x, qm), w)
    for got, fd in ((dp.ravel(), fd_p), (dl, fd_l), (dw, fd_w)):
        assert rel_close(got, fd, rtol=1e-5, floor=0.0)
    _, dq = loss.query_grad(pts, labels, w, q)
    fd_q = central_diff(lambda x: w @ loss.pointwise(pts, labels, x), q)
    assert rel_close(dq, fd_q, rtol=1e-5, floor=0.0)


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("kind", ["linear_regression", "logistic_regression"])
def test_weighted_grads_is_the_private_routine_bit_for_bit(kind, intercept):
    """The checking entry and the routine a training step calls give the
    same bits, and both equal the gradients as first written: each product
    formed into a fresh array, not into the caller's."""
    rng = np.random.default_rng(23)
    loss = LossModel(kind, intercept)
    m, d, k = 6, 3, 8
    pts = rng.standard_normal((m, d))
    labels = rng.standard_normal(m)
    w = rng.random(m)
    qm = rng.standard_normal((k, loss.query_dim(d)))
    coeffs = rng.standard_normal(k)
    got = loss.weighted_grads(pts, labels, w, qm, coeffs)

    # a training step's arrays: the features in one buffer, the gradients
    # in views of one flat vector
    feats = np.ones((m, loss.query_dim(d)))
    feats[:, :d] = pts
    grad = np.zeros(m * d + 2 * m)
    out = (grad[:m * d].reshape(m, d), grad[m * d:m * d + m], grad[m * d + m:])
    f_p, seen = rng.random(k), []

    def term(costs, data_costs):
        seen.append(data_costs)
        return 0.5, coeffs

    # a step's workspace: sized for a wider batch, stale values in it
    count = 1 + loss._link_buffers(True)
    work = np.full(count * m * (k + 3), np.nan)
    costs, value = loss._weighted_grads(feats, labels[:, None], w, qm, term,
                                        f_p, out,
                                        _columns(work, count, m, k))
    assert value == 0.5 and len(seen) == 1 and seen[0] is f_p
    for a, b in zip(got, (costs,) + out):
        assert np.array_equal(a, b)

    per_point, dz, db = loss._link(loss.augment(pts) @ qm.T, labels[:, None],
                                   grad=True)
    first = (w @ per_point, w[:, None] * (dz @ (coeffs[:, None] * qm[:, :d])),
             w * (db @ coeffs), per_point @ coeffs)
    for a, b in zip(got, first):
        assert np.array_equal(a, b)


def test_private_routine_skips_gradients_at_a_non_finite_value(linreg):
    """A non-finite term value leaves the gradient buffers as they were."""
    out = (np.full((2, 1), 7.0), np.full(2, 7.0), np.full(2, 7.0))
    _, value = linreg._weighted_grads(np.ones((2, 1)), np.zeros((2, 1)),
                                      np.ones(2), np.ones((3, 1)),
                                      lambda costs, f_p: (np.inf, costs),
                                      np.ones(3), out, None)
    assert value == np.inf
    assert all(np.all(a == 7.0) for a in out)


_PTS, _Q = np.ones((3, 2)), np.ones((5, 2))


@pytest.mark.parametrize("call, name", [
    (lambda L: L.weighted_grads(_PTS, [1.0], np.ones(3), _Q, np.ones(5)),
     "labels"),
    (lambda L: L.costs(_PTS, [1.0], np.ones(3), _Q), "labels"),
    (lambda L: L.query_grad(_PTS, [1.0], np.ones(3), _Q[0]), "labels"),
    (lambda L: L.pointwise_matrix(_PTS, [1.0], _Q), "labels"),
    (lambda L: L.weighted_grads(_PTS, np.ones(3), [1.0], _Q, np.ones(5)),
     "weights"),
    (lambda L: L.costs(_PTS, np.ones(3), [1.0], _Q), "weights"),
    (lambda L: L.query_grad(_PTS, np.ones(3), [1.0], _Q[0]), "weights"),
    (lambda L: L.weighted_grads(_PTS, np.ones(3), np.ones(3), _Q, np.ones(4)),
     "coeffs"),
    (lambda L: L.weighted_grads(_PTS, np.ones(3), np.ones(3), _Q,
                                lambda costs: 1.0),
     "coeffs"),
    (lambda L: L.weighted_grads(_PTS, np.ones(3), np.ones(3), _Q, 1.0),
     "coeffs"),
], ids=["grads-labels", "costs-labels", "query_grad-labels",
        "pointwise_matrix-labels", "grads-weights", "costs-weights",
        "query_grad-weights", "grads-coeffs", "grads-scalar-coeffs",
        "grads-float-coeffs"])
def test_public_entries_reject_mismatched_shapes(call, name):
    """One label or weight per point and one coefficient per query: anything
    else is a ContractError that names the argument, never a label or
    coefficient broadcast over the rest."""
    for kind in ("linear_regression", "logistic_regression"):
        with pytest.raises(ContractError, match=name):
            call(LossModel(kind))
