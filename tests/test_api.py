"""The names that the benchmark harness in bench/ drives still exist.

The harness runs only in its own smoke job, so a deleted or renamed public
name would otherwise break the traced benchmark without failing this suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import corelearn
from corelearn import LossModel

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    for qualname in spans.FUNCTIONS:
        module_name, attr = qualname.split(".")
        module = importlib.import_module(f"corelearn.{module_name}")
        assert callable(getattr(module, attr, None)), qualname
    for method in spans.LOSS_METHODS:
        assert callable(getattr(LossModel, method, None)), method


def test_harness_entry_types_exist():
    from corelearn.learner import RATIO_FLOOR
    assert RATIO_FLOOR == corelearn.core.RATIO_FLOOR
    assert callable(corelearn.Query)
    assert callable(corelearn.set_cost)
    train, _, _ = corelearn.split_queries(np.zeros((3, 2)), (1, 1, 1))
    assert train.array.shape == (1, 2)
