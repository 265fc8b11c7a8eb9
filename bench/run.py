"""Benchmark for corelearn: one workload, one seed, one run.

    python3 bench/run.py --workload linreg-sweep --seed 3 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``. The run
builds the workload's inputs from the seed, then repeats the workload body in
a closed loop (one caller; each repetition starts when the previous one
returns) until ``--seconds`` have passed. Every repetition runs the output
checks and hashes every non-timing output; all repetitions must agree.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: it traces the set-up once and alternates untraced and
traced repetitions of the body, so the tracing overhead is measured in the
same process. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment, the determinism digest and every metric by name
with its unit. ``--tiny`` swaps in tiny shapes for the smoke test.
"""

import os

# One BLAS thread on both sides of every comparison: with two, OpenBLAS
# burnt nearly twice the CPU time on these shapes for no shorter wall time.
# Must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# workloads.py and spans.py import corelearn, so they are imported inside
# functions, once main() has put src/ on the path and timed that import.
SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("logreg-train", "linreg-sweep", "bounds-verify")

E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_LOSS_FNS = ("pointwise", "pointwise_matrix", "weighted_grads", "query_grad")
LAYER_METRICS = (
    [(f"losses.{f}.{x}", u, "lower") for f in _LOSS_FNS
     for x, u in (("calls", "count"), ("s", "s"))]
    + [
        ("losses.self_s", "s", "lower"),
        ("losses.pair_evals", "count", "lower"),
        ("losses.pair_evals_per_s", "1/s", "higher"),
        ("losses.bytes_computed", "B", "lower"),
        ("learner.train.calls", "count", "lower"),
        ("learner.train.s", "s", "lower"),
        ("learner.autocl_practical.calls", "count", "lower"),
        ("learner.autocl_average.calls", "count", "lower"),
        ("learner.self_s", "s", "lower"),
        ("learner.adam_step.calls", "count", "lower"),
        ("learner.adam_step.s", "s", "lower"),
        ("learner.steps_per_s", "1/s", "higher"),
        ("learner.epochs", "count", "lower"),
        ("learner.useful_epoch_frac", "ratio", "higher"),
        ("learner.filtered_train_queries", "count", "lower"),
        ("queries.trajectory_queries.s", "s", "lower"),
        ("queries.gd_steps", "count", "lower"),
        ("queries.split_queries.s", "s", "lower"),
        ("queries.iid_sample.calls", "count", "lower"),
        ("queries.self_s", "s", "lower"),
        ("evaluate.sweep.calls", "count", "lower"),
        ("evaluate.cells", "count", "lower"),
        ("evaluate.cells_failed", "count", "lower"),
        ("evaluate.err_avg.calls", "count", "lower"),
        ("evaluate.err_avg.s", "s", "lower"),
        ("evaluate.err_opt.calls", "count", "lower"),
        ("evaluate.err_opt.s", "s", "lower"),
        ("evaluate.self_s", "s", "lower"),
        ("evaluate.err_avg_learned", "ratio", "lower"),
        ("evaluate.err_opt_learned", "ratio", "lower"),
        ("baselines.uniform_coreset.calls", "count", "lower"),
        ("baselines.leverage_coreset.calls", "count", "lower"),
        ("baselines.solve_optimal.calls", "count", "lower"),
        ("baselines.solve_optimal.s", "s", "lower"),
        ("baselines.solve_optimal.iterations", "count", "lower"),
        ("baselines.solve_optimal.not_converged", "count", "lower"),
        ("baselines.self_s", "s", "lower"),
        ("theory.exact_set_M.calls", "count", "lower"),
        ("theory.estimate_M.calls", "count", "lower"),
        ("theory.estimate_M.s", "s", "lower"),
        ("theory.verify_claim1.calls", "count", "lower"),
        ("theory.verify_claim2.calls", "count", "lower"),
        ("theory.mc_trials", "count", "lower"),
        ("theory.mc_samples", "count", "lower"),
        ("theory.mc_samples_per_s", "1/s", "higher"),
        ("theory.self_s", "s", "lower"),
        ("core.set_cost.calls", "count", "lower"),
        ("core.self_s", "s", "lower"),
        ("datasets.make_synthetic.s", "s", "lower"),
        ("proc.cpu_s", "s", "lower"),
        ("proc.cpu_per_wall", "ratio", "lower"),
        ("trace.setup_s", "s", "lower"),
        ("trace.body_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.bookkeeping_s", "s", "lower"),
        ("bench.self_s", "s", "lower"),
    ]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the smoke test")
    return ap.parse_args(argv)


def environment(args):
    import numpy as np

    import corelearn

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
        "corelearn": corelearn.__version__,
    }


class Repeats:
    """Closed-loop repetitions of one workload body and what they produced.

    The first repetition warms caches and allocators; it is checked and
    hashed like the others but left out of the timings.
    """

    def __init__(self, workload, seed, shapes):
        from workloads import BODIES
        self.body = BODIES[workload]
        self.seed, self.shapes = seed, shapes
        self.walls, self.cpus, self.digests, self.records = [], [], [], []
        self.attempted = self.failed = 0

    def once(self, inp):
        """Run the body once on inp; False if it raised."""
        import workloads
        rec = workloads.Record()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            self.body(inp, self.shapes, self.seed, rec)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            traceback.print_exc()
            self.attempted += rec.attempted + 1
            self.failed += rec.failed + 1
            return False
        if self.records:
            self.walls.append(time.perf_counter() - t0)
            self.cpus.append(time.process_time() - c0)
        h = hashlib.sha256()
        workloads.feed(h, rec.outputs)
        self.digests.append(h.hexdigest())
        self.records.append(rec)
        self.attempted += rec.attempted
        self.failed += rec.failed
        return True

    def check(self, name, passed):
        self.attempted += 1
        self.failed += not passed
        if not passed:
            print(f"check FAILED: {name}")


def _mean(xs):
    return sum(xs) / len(xs)


def untraced_run(args, import_s, shapes):
    """Set up and run the body in turn until the time is up, so that the
    set-up samples spread over the run like the body's."""
    from workloads import setup
    reps = Repeats(args.workload, args.seed, shapes)
    builds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        inp = setup(args.workload, args.seed, shapes)
        builds.append(time.perf_counter() - t0)
        if not reps.once(inp) or (time.perf_counter() >= deadline and reps.walls):
            break
    metrics = {}
    if reps.walls:
        metrics = {
            "setup_s": import_s + statistics.median(builds),
            "wall_s": statistics.median(reps.walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return reps, metrics


def traced_run(args, shapes):
    """Trace the set-up once, then alternate untraced and traced repetitions."""
    from spans import Tracer
    from workloads import setup
    tracer = Tracer()
    with tracer.installed(), tracer.segment("bench.setup") as setup_sum:
        inp = setup(args.workload, args.seed, shapes)
    reps = Repeats(args.workload, args.seed, shapes)
    bodies, traced_walls = [], []
    deadline = time.perf_counter() + args.seconds
    ok = reps.once(inp)
    while ok and reps.once(inp):
        with tracer.installed(), tracer.segment("bench.body") as body_sum:
            ok = reps.once(inp)
        if ok:
            traced_walls.append(reps.walls.pop())
            reps.cpus.pop()
            bodies.append(body_sum)
            ok = time.perf_counter() < deadline
    if not bodies:
        return reps, {}
    reps.check("exact counts repeat in every traced repetition",
               all(b["counts"] == bodies[0]["counts"] for b in bodies))
    return reps, layer_metrics(setup_sum, bodies, reps, traced_walls)


def layer_metrics(setup_sum, bodies, reps, traced_walls):
    """Per-layer numbers for one set-up plus one repetition of the body."""
    def per_rep(key, name):
        return setup_sum[key][name] + _mean([b[key][name] for b in bodies])

    def fn_s(name):
        return per_rep("fn_s", name)

    def count(name):
        return setup_sum["counts"][name] + bodies[0]["counts"][name]

    def self_s(layer):
        return per_rep("layer_self_s", layer)

    def ratio(num, den):
        return num / den if den else 0.0

    # counters, layer self times and function times follow from the name
    m = {}
    for name, unit, _better in LAYER_METRICS:
        layer = name.split(".")[0]
        if unit in ("count", "B"):
            m[name] = count(name)
        elif name.endswith(".self_s"):
            m[name] = self_s(layer)
        elif unit == "s" and layer not in ("proc", "trace"):
            m[name] = fn_s(name[:-len(".s")])
    m["losses.pair_evals_per_s"] = ratio(m["losses.pair_evals"], m["losses.self_s"])
    m["learner.steps_per_s"] = ratio(m["learner.adam_step.calls"], m["learner.train.s"])
    m["learner.useful_epoch_frac"] = ratio(count("learner.useful_epochs"),
                                           m["learner.epochs"])
    rec = reps.records[0]
    m["evaluate.err_avg_learned"] = _mean(rec.err_avg_learned)
    m["evaluate.err_opt_learned"] = _mean(rec.err_opt_learned)
    m["theory.mc_samples_per_s"] = ratio(
        m["theory.mc_samples"],
        fn_s("theory.verify_claim1") + fn_s("theory.verify_claim2"))
    m["proc.cpu_s"] = _mean(reps.cpus)
    m["proc.cpu_per_wall"] = sum(reps.cpus) / sum(reps.walls)
    m["trace.setup_s"] = setup_sum["wall_s"]
    m["trace.body_s"] = _mean([b["wall_s"] for b in bodies])
    m["trace.overhead_s"] = _mean(traced_walls) - _mean(reps.walls)
    m["trace.bookkeeping_s"] = (setup_sum["bookkeeping_s"]
                                + _mean([b["bookkeeping_s"] for b in bodies]))
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "corelearn" / "__init__.py").is_file():
        print(f"error: corelearn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import corelearn  # noqa: F401 - timed as part of set-up
    import_s = time.perf_counter() - t0

    from workloads import FULL, TINY
    shapes = TINY if args.tiny else FULL
    print("env " + json.dumps(environment(args), sort_keys=True))
    if args.trace:
        reps, metrics = traced_run(args, shapes)
        table = LAYER_METRICS
    else:
        reps, metrics = untraced_run(args, import_s, shapes)
        table = E2E_METRICS
    reps.check("every repetition gives the same outputs",
               len(set(reps.digests)) == 1)
    if reps.digests:
        print(f"digest {args.workload} seed={args.seed} {reps.digests[0]}")
    if reps.walls:
        print("repetitions wall_s " + " ".join(repr(w) for w in reps.walls))
    if reps.records:
        checks = reps.records[0].checks
        print(f"checks {sum(ok for _, ok in checks)}/{len(checks)} passed per repetition, "
              f"{len(reps.walls)} untraced repetitions")
        for name, ok in checks:
            if not ok:
                print(f"check FAILED: {name}")
    result = {"correct": reps.failed == 0 and bool(metrics),
              "attempted": reps.attempted, "failed": reps.failed,
              "metrics": {}}
    if metrics:
        for name, unit, _better in table:
            print(f"metric {name} = {metrics[name]!r} {unit}")
            result["metrics"][name] = {"value": metrics[name], "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
