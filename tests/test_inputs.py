"""The input contract of the public entries: every scalar input is checked
by one of two rules in core, check_count (an integer, at least a bound) and
check_real (finite and > 0, or >= 0 when closed), and every flag takes a
bool only. Every query set is read by one rule, core.query_matrix, and
every weighted set's arrays, a set's or a loss entry's, by another,
core.set_arrays. A bad value is a ContractError that names the parameter."""

import math
import os
import re
import warnings

import numpy as np
import pytest

from corelearn import (
    Coreset,
    LossModel,
    MeasurableQuerySpace,
    OptimizerState,
    TrainConfig,
    QueryBatch,
    WeightedLabeledSet,
    adam_step,
    claim2_k,
    err_avg,
    estimate_M,
    hoeffding_k,
    iid_sample,
    init_coreset,
    leverage_coreset,
    make_synthetic,
    relate_eps,
    set_costs,
    split_queries,
    sweep,
    train,
    trajectory_queries,
    uniform_coreset,
    verify_claim1,
    verify_claim2,
)
from corelearn import baselines, queries, theory
from corelearn.cli import (ConfigError, build_parser, load_config, main,
                           resolve_dataset)
from corelearn.core import (ContractError, check_count, check_probability,
                            check_real, stream_rng)
from corelearn.datasets import DatasetError, Schema, load_dataset
from corelearn.queries import save_pool_csv

_RNG = np.random.default_rng(31)
_P = WeightedLabeledSet(_RNG.standard_normal((12, 2)), np.full(12, 1.0 / 12),
                        _RNG.standard_normal(12))
_C = Coreset(_P.points[:3], np.full(3, 1.0 / 3), _P.labels[:3])
_LOSS = LossModel()
_Q = _RNG.standard_normal((6, 2))
_SPACE = MeasurableQuerySpace(_P, _LOSS, _Q, np.full(6, 1.0 / 6))
_CFG = TrainConfig(coreset_size=3, epochs=1)
# weights summing to 3, against the data's 1: claim 2's premise 1 fails
_C_HEAVY = Coreset(_P.points[:3], np.ones(3), _P.labels[:3])


def _before(module, name, call):
    """call, with module.name replaced by a spy that fails the test if it
    runs: the bad value must be rejected before that work."""
    def spied(value):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            raise AssertionError(f"{name} ran before the check")

        setattr(module, name, spy)
        try:
            return call(value)
        finally:
            setattr(module, name, real)
    return spied

# entry name, parameter name as the message names it, the count's lower
# bound (None for none), and the call with the bad value in its place
_COUNTS = [
    ("TrainConfig", "coreset_size", 1, lambda v: TrainConfig(coreset_size=v)),
    ("TrainConfig", "epochs", 1, lambda v: TrainConfig(epochs=v)),
    ("TrainConfig", "batch_size", 1, lambda v: TrainConfig(batch_size=v)),
    ("TrainConfig", "seed", None, lambda v: TrainConfig(seed=v)),
    ("init_coreset", "m", 1, lambda v: init_coreset(_P, v, 0)),
    ("uniform_coreset", "m", 1, lambda v: uniform_coreset(_P, v)),
    ("leverage_coreset", "m", 1, lambda v: leverage_coreset(_P, v)),
    ("trajectory_queries", "n_starts", 1,
     lambda v: trajectory_queries(_P, _LOSS, v, 2)),
    ("trajectory_queries", "steps_per_start", 0,
     lambda v: trajectory_queries(_P, _LOSS, 1, v)),
    ("split_queries", "split size 1", 0,
     lambda v: split_queries(_Q, [1, v, 1])),
    ("iid_sample", "k", 1, lambda v: iid_sample(_SPACE, v)),
    ("sweep", "size", 1,
     lambda v: sweep(_P, _LOSS, [3, v], ["uniform"], 1, 0, _Q, None, _Q, _CFG)),
    ("sweep", "n_trials", 1,
     lambda v: sweep(_P, _LOSS, [3], ["uniform"], v, 0, _Q, None, _Q, _CFG)),
    ("verify_claim1", "trials", 1,
     lambda v: verify_claim1(_SPACE, 0.5, 0.1, trials=v)),
    ("verify_claim2", "trials", 1,
     lambda v: verify_claim2(_P, _C, _SPACE, 0.5, 0.1, trials=v)),
    ("make_synthetic", "n", 1, lambda v: make_synthetic("linear", v, 2)),
    ("make_synthetic", "d", 1, lambda v: make_synthetic("linear", 5, v)),
    # seeds may be negative, as in TrainConfig
    ("make_synthetic", "seed", None,
     lambda v: make_synthetic("linear", 5, 2, seed=v)),
    ("trajectory_queries", "seed", None,
     lambda v: trajectory_queries(_P, _LOSS, 1, 2, seed=v)),
    ("split_queries", "seed", None, _before(
        queries, "split_sizes", lambda v: split_queries(_Q, [1, 1, 1], seed=v))),
    ("iid_sample", "seed", None, lambda v: iid_sample(_SPACE, 2, seed=v)),
    ("uniform_coreset", "seed", None, lambda v: uniform_coreset(_P, 3, seed=v)),
    ("leverage_coreset", "seed", None, _before(
        baselines, "leverage_scores", lambda v: leverage_coreset(_P, 3, seed=v))),
    ("init_coreset", "seed", None, lambda v: init_coreset(_P, 3, v)),
    ("verify_claim1", "seed", None, _before(
        theory, "exact_set_M",
        lambda v: verify_claim1(_SPACE, 0.5, 0.1, trials=2, seed=v))),
    # a coreset that fails premise 1, on which verify_claim2 returns early
    ("verify_claim2", "seed", None, lambda v: verify_claim2(
        _P, _C_HEAVY, _SPACE, 0.5, 0.1, trials=2, seed=v)),
    ("sweep", "base_seed", None,
     lambda v: sweep(_P, _LOSS, [3], ["uniform"], 1, v, _Q, None, _Q, _CFG)),
]

# the same, with whether the real's range is closed (>= 0) or open (> 0)
_REALS = [
    ("TrainConfig", "learning_rate", False,
     lambda v: TrainConfig(learning_rate=v)),
    ("TrainConfig", "lambda", True, lambda v: TrainConfig(lam=v)),
    ("trajectory_queries", "gd_lr", False,
     lambda v: trajectory_queries(_P, _LOSS, 1, 2, gd_lr=v)),
    ("trajectory_queries", "init_scale", True,
     lambda v: trajectory_queries(_P, _LOSS, 1, 2, init_scale=v)),
    ("hoeffding_k", "eps", False, lambda v: hoeffding_k(v, 0.1, 1.0)),
    ("hoeffding_k", "M", False, lambda v: hoeffding_k(0.1, 0.1, v)),
    ("claim2_k", "eps", False, lambda v: claim2_k(v, 0.1, 1.0)),
    ("claim2_k", "M", False, lambda v: claim2_k(0.1, 0.1, v)),
    ("relate_eps", "eps_ratio", True, lambda v: relate_eps(v, 1.0)),
    ("relate_eps", "M", False, lambda v: relate_eps(0.1, v)),
    ("verify_claim1", "eps", False, lambda v: verify_claim1(_SPACE, v, 0.1)),
    ("verify_claim2", "eps", False,
     lambda v: verify_claim2(_P, _C, _SPACE, v, 0.1)),
    ("verify_claim2", "M", False,
     lambda v: verify_claim2(_P, _C, _SPACE, 0.5, 0.1, M=v)),
    ("make_synthetic", "noise", True,
     lambda v: make_synthetic("linear", 5, 2, noise=v)),
]

_DELTAS = [
    ("hoeffding_k", lambda v: hoeffding_k(0.1, v, 1.0)),
    ("claim2_k", lambda v: claim2_k(0.1, v, 1.0)),
    ("verify_claim1", lambda v: verify_claim1(_SPACE, 0.5, v)),
    ("verify_claim2", lambda v: verify_claim2(_P, _C, _SPACE, 0.5, v)),
]


def _count_cases():
    for entry, name, low, call in _COUNTS:
        bad = [("float", 2.5), ("bool", True), ("nan", math.nan),
               ("inf", math.inf)]
        if low is not None:
            bad.append(("below", low - 1))
        for label, value in bad:
            yield pytest.param(call, value, f"{name} must be ",
                               id=f"{entry}-{name}-{label}")


def _real_cases():
    for entry, name, closed, call in _REALS:
        bound = ">= 0" if closed else "> 0"
        below = -1e-300 if closed else 0.0
        for label, value in [("bool", True), ("below", below),
                             ("negative", -1.0), ("nan", math.nan),
                             ("inf", math.inf)]:
            yield pytest.param(call, value, f"{name} must be finite and {bound}",
                               id=f"{entry}-{name}-{label}")
    for entry, call in _DELTAS:
        for label, value in [("bool", True), ("zero", 0.0), ("one", 1.0),
                             ("nan", math.nan), ("inf", math.inf),
                             ("str", "x")]:
            yield pytest.param(call, value, "delta must be in (0, 1)",
                               id=f"{entry}-delta-{label}")


@pytest.mark.parametrize("call, value, message", [
    *_count_cases(), *_real_cases()])
def test_public_entries_reject_bad_scalars(call, value, message):
    with pytest.raises(ContractError) as info:
        call(value)
    assert message in str(info.value)


@pytest.mark.parametrize("call", [
    lambda v: LossModel(intercept=v), lambda v: TrainConfig(learn_weights=v)],
    ids=["LossModel-intercept", "TrainConfig-learn_weights"])
@pytest.mark.parametrize("value", ["no", 1, 0, None, np.bool_(True)],
                         ids=["str", "one", "zero", "none", "numpy-bool"])
def test_flags_take_a_bool_only(call, value):
    with pytest.raises(ContractError, match=r"must be True or False"):
        call(value)


def test_the_rules_messages_and_values():
    assert check_count(np.int64(3), "k", 1) == 3
    assert type(check_count(np.int64(3), "k")) is int
    with pytest.raises(ContractError, match=r"^k must be an integer, got 2\.5$"):
        check_count(2.5, "k", 1)
    with pytest.raises(ContractError, match=r"^k must be >= 1, got 0$"):
        check_count(0, "k", 1)
    assert check_real(1, "lr") == 1.0
    assert check_real(0.0, "scale", closed=True) == 0.0
    assert check_real(np.float32(0.5), "lr") == 0.5
    with pytest.raises(ContractError,
                       match=r"^lr must be finite and > 0, got nan$"):
        check_real(math.nan, "lr")
    with pytest.raises(ContractError,
                       match=r"^scale must be finite and >= 0, got True$"):
        check_real(True, "scale", closed=True)
    with pytest.raises(ContractError, match=r"^lr must be finite and > 0, got '1'$"):
        check_real("1", "lr")
    assert check_probability(np.float32(0.5), "delta") == 0.5
    assert type(check_probability(np.float32(0.5), "delta")) is float
    with pytest.raises(ContractError,
                       match=r"^delta must be in \(0, 1\), got 1\.5$"):
        check_probability(1.5, "delta")
    with pytest.raises(ContractError,
                       match=r"^delta must be in \(0, 1\), got None$"):
        check_probability(None, "delta")


@pytest.mark.parametrize("call, message", [
    (lambda v: sweep(_P, _LOSS, v, ["uniform"], 1, 0, _Q, None, _Q, _CFG),
     "sizes and methods must be non-empty sequences"),
    (lambda v: sweep(_P, _LOSS, [3], v, 1, 0, _Q, None, _Q, _CFG),
     "sizes and methods must be non-empty sequences"),
    (lambda v: split_queries(_Q, v), "split sizes must be three counts"),
], ids=["sweep-sizes", "sweep-methods", "split_queries-sizes"])
@pytest.mark.parametrize("value", [5, None, np.int64(3), [], "abc"],
                         ids=["int", "none", "numpy-int", "empty", "str"])
def test_size_lists_must_be_sequences(call, message, value):
    with pytest.raises(ContractError, match=message):
        call(value)


def test_zero_init_scale_and_an_int_rate_stay_valid():
    pool = trajectory_queries(_P, _LOSS, 2, 3, gd_lr=1, init_scale=0.0)
    assert pool.shape == (8, 2) and np.all(np.isfinite(pool))
    assert np.array_equal(pool[0], np.zeros(2))
    # an int rate is the same rate as its float
    assert np.array_equal(pool, trajectory_queries(_P, _LOSS, 2, 3, gd_lr=1.0,
                                                   init_scale=0.0))


@pytest.mark.parametrize("seed", [1.5, True, "1"],
                         ids=["float", "bool", "str"])
def test_stream_rng_takes_an_integer_seed_only(seed):
    message = re.escape(f"seed must be an integer, got {seed!r}")
    with pytest.raises(ContractError, match=f"^{message}$"):
        stream_rng(seed, "x")


def test_stream_rng_keeps_its_streams():
    """A negative seed and a NumPy integer draw the streams they always
    drew, bit for bit."""
    assert stream_rng(-3, "x").random() == 0.6029928300775581
    assert stream_rng(np.int64(7), "x").random() == 0.38165897999913967
    assert stream_rng(7, "x").random() == 0.38165897999913967


def test_negative_seeds_stay_valid():
    assert uniform_coreset(_P, 3, seed=-4).n == 3
    assert make_synthetic("linear", 5, 2, seed=-1).n == 5
    assert split_queries(_Q, [1, 1, 1], seed=np.int64(-2))[0].array.shape == (1, 2)


# entry name, the query set's name as the message names it, and the call
# with the bad query set in its place
_QUERY_SETS = [
    ("pointwise_matrix", "queries",
     lambda v: _LOSS.pointwise_matrix(_P.points, _P.labels, v)),
    ("costs", "queries",
     lambda v: _LOSS.costs(_P.points, _P.labels, _P.weights, v)),
    ("weighted_grads", "queries",
     lambda v: _LOSS.weighted_grads(_P.points, _P.labels, _P.weights, v,
                                    np.ones(2))),
    ("set_costs", "queries", lambda v: set_costs(_P, _LOSS, v)),
    ("train", "Q_train", lambda v: train(_P, v, None, _LOSS, _CFG)),
    ("train", "Q_val", lambda v: train(_P, _Q, v, _LOSS, _CFG)),
    ("err_avg", "Q_test", lambda v: err_avg(_P, _C, _LOSS, v)),
    ("estimate_M", "query_pool", lambda v: estimate_M(_P, _LOSS, v)),
    ("split_queries", "pool", lambda v: split_queries(v, [1, 0, 0])),
    ("QueryBatch", "array", QueryBatch),
    ("save_pool_csv", "pool", lambda v: save_pool_csv(v, os.devnull)),
    ("MeasurableQuerySpace", "universe",
     lambda v: MeasurableQuerySpace(_P, _LOSS, v, np.full(2, 0.5))),
    ("sweep", "Q_test",
     lambda v: sweep(_P, _LOSS, [3], ["uniform"], 1, 0, None, None, v, _CFG)),
    ("sweep", "Q_train",
     lambda v: sweep(_P, _LOSS, [3], ["learned"], 1, 0, v, None, _Q, _CFG)),
    ("sweep", "Q_val",
     lambda v: sweep(_P, _LOSS, [3], ["learned"], 1, 0, _Q, v, _Q, _CFG)),
]

_BAD_QUERY_SETS = [
    ("ragged", [[1.0, 2.0], [1.0]], "query 1 has dimension 1, query 0 has 2"),
    ("not-numbers", [["a", "b"], ["c", "d"]], "is not numbers"),
    ("1-d", np.array([1.0, 2.0]),
     r"must be a \(k, d'\) matrix, got shape \(2,\)"),
    ("3-d", np.ones((2, 2, 2)),
     r"must be a \(k, d'\) matrix, got shape \(2, 2, 2\)"),
]


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, f"^{name} {message}", id=f"{entry}-{name}-{label}")
    for entry, name, call in _QUERY_SETS
    for label, value, message in _BAD_QUERY_SETS])
def test_query_set_entries_share_one_rule(call, value, message):
    with pytest.raises(ContractError, match=message):
        call(value)


# the entries that read a query set for the loss on _P, whose query dim is
# 2, by query_matrix at that width: its name and the call with the set
_LOSS_QUERY_SETS = [
    ("pointwise_matrix", "queries",
     lambda v: _LOSS.pointwise_matrix(_P.points, _P.labels, v)),
    ("costs", "queries",
     lambda v: _LOSS.costs(_P.points, _P.labels, _P.weights, v)),
    ("weighted_grads", "queries",
     lambda v: _LOSS.weighted_grads(_P.points, _P.labels, _P.weights, v,
                                    np.ones(2))),
    ("query_grads", "queries",
     lambda v: _LOSS.query_grads(_P.points, _P.labels, _P.weights)(v)),
    ("query_grad", "q",
     lambda v: _LOSS.query_grad(_P.points, _P.labels, _P.weights, v[0])),
    ("set_costs", "queries", lambda v: set_costs(_P, _LOSS, v)),
    ("train", "Q_train", lambda v: train(_P, v, None, _LOSS, _CFG)),
    ("train", "Q_val", lambda v: train(_P, _Q, v, _LOSS, _CFG)),
    ("err_avg", "Q_test", lambda v: err_avg(_P, _C, _LOSS, v)),
    ("estimate_M", "query_pool", lambda v: estimate_M(_P, _LOSS, v)),
    ("sweep", "Q_test",
     lambda v: sweep(_P, _LOSS, [3], ["uniform"], 1, 0, None, None, v, _CFG)),
    ("MeasurableQuerySpace", "universe",
     lambda v: MeasurableQuerySpace(_P, _LOSS, v, np.full(2, 0.5))),
]


@pytest.mark.parametrize("call, name", [
    pytest.param(call, name, id=f"{entry}-{name}")
    for entry, name, call in _LOSS_QUERY_SETS])
def test_query_width_is_one_rule(call, name):
    """Queries whose length is not the loss's query dim are one
    ContractError, named by the input that holds them."""
    with pytest.raises(ContractError, match=f"^{name} query dim 3 does not "
                                            "match feature dim 2$"):
        call(np.ones((2, 3)))


# every reader of a weighted set's arrays, called on (points, labels,
# weights), and whether it reads the weights
_SET_READERS = {
    "WeightedLabeledSet": (lambda p, b, w: WeightedLabeledSet(p, w, b), True),
    "Coreset": (lambda p, b, w: Coreset(p, w, b), True),
    "pointwise": (lambda p, b, w: _LOSS.pointwise(p, b, np.zeros(2)), False),
    "pointwise_matrix": (lambda p, b, w: _LOSS.pointwise_matrix(p, b, _Q),
                         False),
    "costs": (lambda p, b, w: _LOSS.costs(p, b, w, _Q), True),
    "weighted_grads": (
        lambda p, b, w: _LOSS.weighted_grads(p, b, w, _Q, np.ones(6)), True),
    "query_grad": (lambda p, b, w: _LOSS.query_grad(p, b, w, np.zeros(2)),
                   True),
    "query_grads": (lambda p, b, w: _LOSS.query_grads(p, b, w), True),
    "normal_equations": (lambda p, b, w: _LOSS.normal_equations(p, b, w), True),
}

# a bad set (points, labels, weights), its one message, and whether only
# the weights are bad
_BAD_SETS = {
    "label-count": ((np.zeros((3, 2)), np.zeros(2), np.ones(3)),
                    "labels have shape (2,), expected (3,): one per point",
                    False),
    "weight-count": ((np.zeros((3, 2)), np.zeros(3), np.ones(4)),
                     "weights have shape (4,), expected (3,): one per point",
                     True),
    "2-d-weights": ((np.zeros((3, 2)), np.zeros(3), np.ones((3, 1))),
                    "weights have shape (3, 1), expected (3,): one per point",
                    True),
    "no-points": ((np.zeros((0, 2)), np.zeros(0), np.zeros(0)),
                  "points must hold at least one point, got shape (0, 2)",
                  False),
}


def _set_cases():
    for case, (arrays, message, weights_only) in _BAD_SETS.items():
        for reader, (call, reads_weights) in _SET_READERS.items():
            if weights_only and not reads_weights:
                continue
            is_set = reader in ("WeightedLabeledSet", "Coreset")
            yield pytest.param(call, arrays,
                               f"{reader} {message}" if is_set else message,
                               id=f"{reader}-{case}")


@pytest.mark.parametrize("call, arrays, message", _set_cases())
def test_every_reader_of_a_set_has_one_rule(call, arrays, message):
    """The sets and every loss entry read a set's arrays by one rule,
    core.set_arrays, with one message per fault; a set's names its class."""
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        call(*arrays)


def test_pointwise_reads_a_1d_point_set_as_one_column():
    """pointwise reads its points as every loss entry does: a 1-d array is
    n points of one feature, not one point."""
    got = _LOSS.pointwise([1.0, 2.0, -1.0], [0.0, 1.0, 1.0], [2.0])
    assert np.array_equal(got, [4.0, 9.0, 9.0])
    with pytest.raises(ContractError, match="query dim 3 does not match"):
        _LOSS.pointwise([1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0])


def test_an_empty_query_list_is_no_queries():
    assert QueryBatch([]).array.shape == (0, 0)
    assert set_costs(_P, _LOSS, []).shape == (0,)
    # at a loss's width, no queries are a (0, d') matrix for every kernel
    assert _LOSS.pointwise_matrix(_P.points, _P.labels, []).shape == (12, 0)
    costs, *grads = _LOSS.weighted_grads(_P.points, _P.labels, _P.weights,
                                         [], np.ones(0))
    assert costs.shape == (0,) and not any(g.any() for g in grads)
    with pytest.raises(ContractError, match="query pool must be non-empty"):
        estimate_M(_P, _LOSS, [])


def _file(tmp, name, text):
    (tmp / name).write_text(text)
    return tmp / name


def _handler(argv):
    """The subcommand handler's own result for argv, without main's exit
    code mapping."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def _config(tmp, text):
    return load_config(_file(tmp, "c.json", text))


def _unexpected(tmp, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(theory, "hoeffding_k", boom)
    return main(["bounds", "--eps", "0.1", "--delta", "0.05", "--M", "1"])


_ZERO_WEIGHTS = WeightedLabeledSet(_P.points, np.zeros(12), _P.labels)

# each input rejection with the error it raises, and its message ({tmp} the
# test's directory); an int error is main's exit code, the message its stderr
_REJECTIONS = [
    ("3-d-points", lambda tmp, mp: WeightedLabeledSet(
        np.zeros((2, 2, 2)), np.ones(2), np.ones(2)),
     ContractError, "WeightedLabeledSet points must be a 2-d array, got ndim=3"),
    ("2-d-weights", lambda tmp, mp: WeightedLabeledSet(
        np.zeros((2, 2)), np.ones((2, 1)), np.ones(2)),
     ContractError,
     "WeightedLabeledSet weights have shape (2, 1), expected (2,): one per point"),
    ("measure-length", lambda tmp, mp: MeasurableQuerySpace(
        _P, _LOSS, _Q, np.full(5, 0.2)),
     ContractError, "measure length must match universe size"),
    ("negative-measure", lambda tmp, mp: MeasurableQuerySpace(
        _P, _LOSS, _Q, [-0.5, 1.5, 0.0, 0.0, 0.0, 0.0]),
     ContractError, "measure entries must be nonnegative"),
    ("leverage-zero-weights",
     lambda tmp, mp: leverage_coreset(_ZERO_WEIGHTS, 3),
     ContractError, "all leverage scores are zero"),
    ("adam-gradient-shape", lambda tmp, mp: adam_step(
        OptimizerState.for_params(np.zeros(2)), np.zeros(2), np.zeros(3), 0.1),
     ContractError, "gradient shape (3,) does not match parameters (2,)"),
    ("synthetic-task", lambda tmp, mp: make_synthetic("cubic", 5, 2),
     DatasetError, "unknown synthetic task 'cubic'"),
    ("binary-labels", lambda tmp, mp: load_dataset(
        _file(tmp, "d.csv", "0.5,0\n1.5,2\n"),
        Schema(["0"], "1", binary_label=True)),
     DatasetError, "{tmp}/d.csv: binary labels must be 0/1 or -1/+1"),
    ("empty-with-header", lambda tmp, mp: load_dataset(
        _file(tmp, "d.csv", ""), Schema(["a"], "b", has_header=True)),
     DatasetError, "{tmp}/d.csv: empty file"),
    ("row-missing-column", lambda tmp, mp: load_dataset(
        _file(tmp, "d.csv", "0.5,1.0\n1.5\n"), Schema(["0"], "1")),
     DatasetError, "{tmp}/d.csv: line 2: missing column '1'"),
    ("estimate-M-without-config", lambda tmp, mp: _handler(
        ["bounds", "--eps", "0.1", "--delta", "0.05", "--estimate-M"]),
     ConfigError, "--estimate-M requires --config"),
    ("bounds-without-M", lambda tmp, mp: _handler(
        ["bounds", "--eps", "0.1", "--delta", "0.05"]),
     ConfigError, "give --M or --estimate-M"),
    ("no-dataset", lambda tmp, mp: _config(tmp, '{"dataset": {"synth": null}}'),
     ConfigError, "dataset needs either a path or a synth block"),
    ("path-without-schema", lambda tmp, mp: resolve_dataset(
        _config(tmp, '{"dataset": {"path": "d.csv"}}')),
     ConfigError, "dataset.path requires dataset.schema"),
    ("unreadable-config", lambda tmp, mp: load_config(tmp / "none.json"),
     ConfigError, "cannot read config {tmp}/none.json: [Errno 2] No such "
                  "file or directory: '{tmp}/none.json'"),
    ("config-not-an-object", lambda tmp, mp: _config(tmp, "[1, 2]"),
     ConfigError, "{tmp}/c.json: config must be a JSON object"),
    ("main-unexpected", _unexpected, 2, "runtime failure: boom\n"),
]


@pytest.mark.parametrize("call, error, message",
                         [row[1:] for row in _REJECTIONS],
                         ids=[row[0] for row in _REJECTIONS])
def test_inputs_are_rejected_with_their_errors(tmp_path, monkeypatch, capsys,
                                               call, error, message):
    message = message.format(tmp=tmp_path)
    with warnings.catch_warnings():
        # leverage sampling warns of the rank-deficient zero-weight matrix
        warnings.simplefilter("ignore")
        if isinstance(error, int):
            assert call(tmp_path, monkeypatch) == error
            assert capsys.readouterr().err == message
            return
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(tmp_path, monkeypatch)
