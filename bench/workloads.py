"""The benchmark's three workloads, built from one seed.

Each workload has a set-up (dataset, query pool, split: what a user builds
before learning) and a body (the learning, evaluation or verification the
workload is about). The body is deterministic given the set-up, so every
repetition of it in a run does the same work and gives the same outputs.

All library calls go through ``corelearn``'s public names, looked up at call
time, so that a traced run sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

import corelearn as cl
from corelearn.learner import RATIO_FLOOR

# Sizes of one run. The full shapes follow acceptance criteria 8-10 in the
# data and query pool, with fewer epochs and trials so that one repetition
# of a body takes a few seconds and a run holds several. TINY only keeps the
# harness exercised by its smoke test; at that size the output checks hold
# for the smoke test's seed but not for every seed.
FULL = {
    "logreg": dict(n=5000, d=8, noise=0.3, starts=20, steps=119, gd_lr=0.5,
                   split=(2000, 200, 200), sizes=(100, 300), epochs=20),
    "linreg": dict(n=5000, d=3, noise=0.1, starts=20, steps=119, gd_lr=0.01,
                   split=(2000, 200, 200), sizes=(50, 80, 110, 140),
                   trials=2, epochs=20),
    "bounds": dict(universe=200, claim1_trials=2000, iid_k=2000, coreset=20,
                   epochs=100, claim2_trials=100),
}
TINY = {
    "logreg": dict(n=400, d=3, noise=1.0, starts=4, steps=99, gd_lr=0.5,
                   split=(300, 50, 50), sizes=(40, 80), epochs=30),
    "linreg": dict(n=400, d=2, noise=0.1, starts=4, steps=49, gd_lr=0.01,
                   split=(120, 40, 40), sizes=(20, 30, 40, 50),
                   trials=1, epochs=30),
    "bounds": dict(universe=20, claim1_trials=100, iid_k=100, coreset=5,
                   epochs=30, claim2_trials=10),
}

EPS_SHARE = 0.05  # claim eps as a share of the universe's exact set-level M
DELTA = 0.05


def sub_seed(seed, label):
    """Independent integer seed for one named input, derived from the workload seed."""
    return int(cl.stream_rng(seed, "bench", label).integers(2 ** 31))


@dataclass
class Record:
    """What one repetition of a body did: outputs, operations and checks."""

    outputs: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    err_avg_learned: list = field(default_factory=list)
    err_opt_learned: list = field(default_factory=list)

    def call(self, fn, *args, **kwargs):
        """Run one library operation and keep its result for the digest."""
        self.attempted += 1
        out = fn(*args, **kwargs)
        self.outputs.append((fn.__name__, out))
        return out

    def check(self, name, passed):
        self.attempted += 1
        self.failed += not passed
        self.checks.append((name, bool(passed)))


@dataclass
class Inputs:
    P: object
    loss: object
    pool: np.ndarray
    q_train: object
    q_val: object
    q_test: object
    space: object = None


def _build(task, kind, shape, seed):
    loss = cl.LossModel(kind)
    P = cl.make_synthetic(task, shape["n"], shape["d"], noise=shape["noise"],
                          seed=sub_seed(seed, "data"))
    pool = cl.trajectory_queries(P, loss, shape["starts"], shape["steps"],
                                 gd_lr=shape["gd_lr"], seed=sub_seed(seed, "pool"))
    q_train, q_val, q_test = cl.split_queries(pool, shape["split"],
                                              seed=sub_seed(seed, "split"))
    return Inputs(P, loss, pool, q_train, q_val, q_test)


def _universe(inp, shape, seed):
    """Finite query space: pool queries under a seeded non-uniform measure."""
    rng = cl.stream_rng(seed, "bench", "universe")
    idx = rng.choice(inp.pool.shape[0], size=shape["universe"], replace=False)
    mu = rng.dirichlet(np.ones(shape["universe"]))
    return cl.MeasurableQuerySpace(inp.P, inp.loss,
                                   tuple(cl.Query(q) for q in inp.pool[idx]),
                                   mu / mu.sum())


def setup(workload, seed, shapes):
    if workload == "logreg-train":
        return _build("logistic", "logistic_regression", shapes["logreg"], seed)
    inp = _build("linear", "linear_regression", shapes["linreg"], seed)
    if workload == "bounds-verify":
        inp.space = _universe(inp, shapes["bounds"], seed)
    return inp


def _full_costs(inp):
    return np.array([cl.set_cost(inp.P, inp.loss, q) for q in inp.q_test.array])


def _ratio_chain(rec, inp, f_p, coreset, err_avg):
    """Criterion-5 chain on a learned coreset: over the test queries,
    mean |f(P) - f(C)| <= relate_eps(err_avg, M), with M the set-level loss
    bound estimated on the same queries."""
    M = cl.estimate_M(inp.P, inp.loss, inp.q_test, level="set")
    keep = f_p > RATIO_FLOOR
    f_c = np.array([cl.set_cost(coreset, inp.loss, q)
                    for q in inp.q_test.array[keep]])
    gap = float(np.mean(np.abs(f_p[keep] - f_c)))
    rec.check("ratio-to-difference chain", gap <= cl.relate_eps(err_avg, M))


def logreg_train(inp, shapes, seed, rec):
    shape = shapes["logreg"]
    f_p = _full_costs(inp)
    for size in shape["sizes"]:
        cfg = cl.TrainConfig.paper_logreg(coreset_size=size, epochs=shape["epochs"],
                                          seed=sub_seed(seed, f"train/{size}"))
        coreset, _report = rec.call(cl.train, inp.P, inp.q_train, inp.q_val,
                                    inp.loss, cfg)
        uniform = rec.call(cl.uniform_coreset, inp.P, size,
                           seed=sub_seed(seed, f"uniform/{size}"))
        learned_avg = rec.call(cl.err_avg, inp.P, coreset, inp.loss, inp.q_test).value
        uniform_avg = rec.call(cl.err_avg, inp.P, uniform, inp.loss, inp.q_test).value
        rec.err_opt_learned.append(rec.call(cl.err_opt, inp.P, coreset, inp.loss))
        rec.call(cl.err_opt, inp.P, uniform, inp.loss)
        rec.err_avg_learned.append(learned_avg)
        rec.check(f"learned err_avg < uniform at size {size}",
                  learned_avg < uniform_avg)
        _ratio_chain(rec, inp, f_p, coreset, learned_avg)


def linreg_sweep(inp, shapes, seed, rec):
    shape = shapes["linreg"]
    cfg = cl.TrainConfig(epochs=shape["epochs"], batch_size=25, learning_rate=0.01,
                         lam=1.0, algorithm="practical")
    table, reports = cl.sweep(inp.P, inp.loss, list(shape["sizes"]),
                              ["learned", "uniform", "leverage"], shape["trials"],
                              sub_seed(seed, "sweep"), inp.q_train, inp.q_val,
                              inp.q_test, cfg, collect_reports=True)
    rec.outputs.append(("sweep", (table.rows, reports)))
    for row in table.rows:
        rec.attempted += 1
        rec.failed += not row["ok"]
    rec.check("every sweep cell ok", all(row["ok"] for row in table.rows))
    agg = table.aggregate()
    rec.outputs.append(("aggregate", agg))
    by = {(row["method"], row["size"]): row for row in agg}
    sizes = shape["sizes"]
    learned = [by["learned", s]["err_avg_mean"] for s in sizes]
    # the criterion 8 and 10 gates, as written in the acceptance suite
    rec.check("learned < uniform at >= 3 of 4 sizes",
              sum(le < by["uniform", s]["err_avg_mean"]
                  for le, s in zip(learned, sizes)) >= 3)
    rec.check("learned < leverage at >= 2 of 4 sizes",
              sum(le < by["leverage", s]["err_avg_mean"]
                  for le, s in zip(learned, sizes)) >= 2)
    rec.check("learned err_opt at the largest size <= 0.05",
              by["learned", sizes[-1]]["err_opt_mean"] <= 0.05)
    rec.err_avg_learned += [r["err_avg"] for r in table.rows if r["method"] == "learned"]
    rec.err_opt_learned += [r["err_opt"] for r in table.rows if r["method"] == "learned"]
    # the sweep keeps the learned coresets' final iterates in their reports
    final = reports[sizes[-1], "learned", 0].final_coreset
    final_avg = rec.call(cl.err_avg, inp.P, final, inp.loss, inp.q_test).value
    _ratio_chain(rec, inp, _full_costs(inp), final, final_avg)


def bounds_verify(inp, shapes, seed, rec):
    shape = shapes["bounds"]
    space = inp.space
    M = rec.call(cl.theory.exact_set_M, space)
    eps = EPS_SHARE * M
    claim1 = rec.call(cl.verify_claim1, space, eps, DELTA,
                      trials=shape["claim1_trials"], seed=sub_seed(seed, "claim1"))
    rec.check("claim 1 violation rate within delta + slack", claim1.passes())
    sample = rec.call(cl.iid_sample, space, shape["iid_k"], seed=sub_seed(seed, "iid"))
    cfg = cl.TrainConfig(coreset_size=shape["coreset"], epochs=shape["epochs"],
                         learning_rate=0.01, lam=1.0, batch_size=shape["iid_k"],
                         seed=sub_seed(seed, "average"), algorithm="average")
    coreset, _report = rec.call(cl.train, inp.P, sample, None, inp.loss, cfg)
    M_pool = rec.call(cl.estimate_M, inp.P, inp.loss, inp.pool, level="set")
    claim2 = rec.call(cl.verify_claim2, inp.P, coreset, space, eps, DELTA,
                      trials=shape["claim2_trials"], seed=sub_seed(seed, "claim2"),
                      M=M_pool)
    rec.check("claim 2 premises hold", claim2.ok)
    rec.check("claim 2 expectation gap < 3 eps", claim2.expectation_gap < 3.0 * eps)
    learned_avg = rec.call(cl.err_avg, inp.P, coreset, inp.loss, inp.q_test).value
    rec.err_avg_learned.append(learned_avg)
    rec.err_opt_learned.append(rec.call(cl.err_opt, inp.P, coreset, inp.loss))
    _ratio_chain(rec, inp, _full_costs(inp), coreset, learned_avg)


BODIES = {
    "logreg-train": logreg_train,
    "linreg-sweep": linreg_sweep,
    "bounds-verify": bounds_verify,
}


def feed(h, x):
    """Hash every non-timing value reachable from x, exactly."""
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for v in x:
            feed(h, v)
        h.update(b"]")
    elif isinstance(x, dict):
        h.update(b"{")
        for k in sorted(x, key=repr):
            if k != "wall_time_s":  # a sweep cell's timing
                feed(h, k)
                feed(h, x[k])
        h.update(b"}")
    elif is_dataclass(x):
        h.update(type(x).__name__.encode())
        feed(h, {f.name: getattr(x, f.name) for f in fields(x)})
    else:
        h.update(repr(x).encode())
