import numpy as np
import pytest

from corelearn import LossModel, WeightedLabeledSet


def central_diff(fn, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def rel_close(a, b, rtol=1e-5, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= floor + rtol * np.maximum(np.abs(a), np.abs(b)))


# Seeded random shapes (n, m, d, k) for the property tests: n data points,
# m coreset points, d features and k queries.
SEEDED_SHAPES = [tuple(int(v) for v in row) for row in
                 np.random.default_rng(2024).integers(
                     [2, 1, 1, 1], [200, 12, 6, 30], size=(10, 4))]


def shape_id(shape):
    return "n{}-m{}-d{}-k{}".format(*shape)


def seeded_problem(shape, kind, intercept):
    """The loss, data and k queries of one seeded shape (n, m, d, k): n
    points in d dimensions with positive weights, +/-1 labels for the
    logistic loss and real ones for the squared loss."""
    n, _, d, k = shape
    rng = np.random.default_rng(shape)
    loss = LossModel(kind, intercept)
    labels = rng.standard_normal(n)
    if kind == "logistic_regression":
        labels = np.where(labels < 0, -1.0, 1.0)
    P = WeightedLabeledSet(rng.standard_normal((n, d)), rng.random(n) + 0.1,
                           labels)
    return loss, P, rng.standard_normal((k, loss.query_dim(d)))


@pytest.fixture
def linreg():
    return LossModel("linear_regression")


@pytest.fixture
def logreg():
    return LossModel("logistic_regression")


@pytest.fixture
def tiny_set():
    return WeightedLabeledSet(
        points=np.array([[1.0], [2.0]]),
        weights=np.array([0.5, 0.5]),
        labels=np.array([0.0, 0.0]),
    )
