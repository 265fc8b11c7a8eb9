"""Smoke test of the benchmark harness on tiny shapes.

    python3 -m pytest bench/test_bench.py -q

Every workload runs untraced and traced; each run must pass its output
checks and emit exactly the metrics BENCHMARK.json names, with their units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("losses", "learner", "queries", "evaluate", "baselines", "theory", "core")


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _digest(proc):
    return [line for line in proc.stdout.splitlines() if line.startswith("digest ")]


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload):
    untraced, traced = _run(workload, 0), _run(workload, 1)
    plain = _result(untraced)
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    layered = _result(traced)
    assert _units(layered) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {name: v["value"] for name, v in layered["metrics"].items()}
    # make_synthetic has no traced children, so its time is the datasets layer's self time
    self_total = (sum(m[f"{layer}.self_s"] for layer in LAYERS)
                  + m["datasets.make_synthetic.s"] + m["bench.self_s"]
                  + m["trace.bookkeeping_s"])
    assert self_total == pytest.approx(m["trace.setup_s"] + m["trace.body_s"], rel=1e-9)
    assert m["losses.pair_evals"] > 0 and m["learner.adam_step.calls"] > 0

    # tracing must not change any output
    assert _digest(untraced) and _digest(untraced) == _digest(traced)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
