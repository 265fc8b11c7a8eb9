"""Spans and counts recorded from outside corelearn, around its public calls.

A traced run wraps the public functions and ``LossModel`` methods listed in
FUNCTIONS and LOSS_METHODS. Each wrapper is installed on every corelearn
module attribute that names the function, so the benchmark and corelearn's
own modules (``evaluate.sweep`` calling ``err_opt``, ``theory`` calling
``set_cost``) both go through it. Private helpers are not wrapped: their
time stays in the self time of the public function that calls them.

Spans (name, start, end, parent) are kept in memory for one segment (the
set-up, or one repetition of the workload body) and summarised when the
segment ends. The wrapper measures its own bookkeeping and removes it from
the self time of the enclosing span, so that for every segment

    sum of per-layer self times + bench self time + bookkeeping == segment wall.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import corelearn
from corelearn import losses

_clock = time.perf_counter


def _gd_steps(counts, fn, args, kwargs, out):
    n_starts = inspect.signature(fn).bind(*args, **kwargs).arguments["n_starts"]
    counts["queries.gd_steps"] += out.shape[0] - n_starts


def _train_report(counts, fn, args, kwargs, out):
    report = out[1]
    counts["learner.epochs"] += len(report.train_losses)
    counts["learner.useful_epochs"] += report.best_epoch + 1
    counts["learner.filtered_train_queries"] += report.filtered_train_queries


def _solver(counts, fn, args, kwargs, out):
    counts["baselines.solve_optimal.iterations"] += out.iterations
    counts["baselines.solve_optimal.not_converged"] += not out.converged


def _cells(counts, fn, args, kwargs, out):
    table = out[0] if isinstance(out, tuple) else out
    counts["evaluate.cells"] += len(table.rows)
    counts["evaluate.cells_failed"] += sum(not row["ok"] for row in table.rows)


def _claim1(counts, fn, args, kwargs, out):
    counts["theory.mc_trials"] += out.trials
    counts["theory.mc_samples"] += out.trials * out.k


def _claim2(counts, fn, args, kwargs, out):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    trials = bound.arguments["trials"]
    counts["theory.mc_trials"] += trials
    if out.failed_premise != "weight_sum":  # the premise-2 sampling ran
        counts["theory.mc_samples"] += trials * out.k


# "module.function" -> hook that adds counts derived from the call's result
FUNCTIONS = {
    "datasets.make_synthetic": None,
    "queries.trajectory_queries": _gd_steps,
    "queries.split_queries": None,
    "queries.iid_sample": None,
    "learner.train": _train_report,
    "learner.autocl_practical": None,
    "learner.autocl_average": None,
    "learner.adam_step": None,
    "baselines.uniform_coreset": None,
    "baselines.leverage_coreset": None,
    "baselines.solve_optimal": _solver,
    "evaluate.sweep": _cells,
    "evaluate.err_avg": None,
    "evaluate.err_opt": None,
    "theory.exact_set_M": None,
    "theory.estimate_M": None,
    "theory.verify_claim1": _claim1,
    "theory.verify_claim2": _claim2,
    "core.set_cost": None,
}


def _rows(points):
    return np.atleast_2d(np.asarray(points)).shape[0]


def _k(queries):
    return np.atleast_2d(np.asarray(queries)).shape[0]


# LossModel method -> (point, query) pairs evaluated by one call
LOSS_METHODS = {
    "pointwise": lambda points, labels, q: _rows(points),
    "pointwise_matrix": lambda points, labels, queries: _rows(points) * _k(queries),
    "weighted_grads": (lambda points, labels, weights, queries, coeffs:
                       _rows(points) * _k(queries)),
    "query_grad": lambda points, labels, weights, q: _rows(points),
}


def _elements(x):
    if isinstance(x, tuple):
        return sum(_elements(v) for v in x)
    return int(np.size(x))


def _loss_work(pairs_of):
    def hook(counts, fn, args, kwargs, out):
        call_args = args[1:] + tuple(kwargs.values())  # drop self
        counts["losses.pair_evals"] += pairs_of(*args[1:], **kwargs)
        # float64 operands read plus results written: a computed lower bound
        # on the bytes moved, blind to temporaries and cache misses
        counts["losses.bytes_computed"] += 8 * (
            sum(_elements(a) for a in call_args) + _elements(out))
    return hook


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.bookkeeping = 0.0
        self._stack = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = _clock()
            parent = tracer._stack[-1]
            # [name, start, end, parent, time covered by child spans]
            span = [name, 0.0, 0.0, parent, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span)
            t1 = span[1] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = span[2] = _clock()
                tracer._stack.pop()
            tracer.counts[name + ".calls"] += 1
            if hook is not None:
                hook(tracer.counts, fn, args, kwargs, out)
            t3 = _clock()
            overhead = (t1 - t0) + (t3 - t2)
            tracer.bookkeeping += overhead
            parent[4] += (t2 - t1) + overhead
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target on each corelearn module that refers to it."""
        patches = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "corelearn" or key.startswith("corelearn.")]
        for qualname, hook in FUNCTIONS.items():
            module_name, attr = qualname.split(".")
            orig = getattr(getattr(corelearn, module_name), attr)
            wrapper = self._wrap(qualname, orig, hook)
            for module in modules:
                if getattr(module, attr, None) is orig:
                    patches.append((module, attr, orig))
                    setattr(module, attr, wrapper)
        for method, pairs_of in LOSS_METHODS.items():
            orig = getattr(losses.LossModel, method)
            patches.append((losses.LossModel, method, orig))
            setattr(losses.LossModel, method,
                    self._wrap(f"losses.{method}", orig, _loss_work(pairs_of)))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    @contextmanager
    def segment(self, name):
        """Record one root span; yields a dict filled with its summary."""
        self.spans, self.counts, self.bookkeeping = [], Counter(), 0.0
        root = [name, _clock(), 0.0, None, 0.0]
        self.spans.append(root)
        self._stack = [root]
        summary = {}
        try:
            yield summary
        finally:
            root[2] = _clock()
            self._stack = []
            summary.update(self._summarise())

    def _summarise(self):
        """Inclusive time per function, self time per layer, and counts."""
        fn_s, layer_self = Counter(), Counter()
        for name, start, end, _parent, covered in self.spans:
            fn_s[name] += end - start
            layer_self[name.split(".")[0]] += end - start - covered
        root = self.spans[0]
        return {"wall_s": root[2] - root[1], "fn_s": fn_s,
                "layer_self_s": layer_self, "counts": Counter(self.counts),
                "bookkeeping_s": self.bookkeeping}
