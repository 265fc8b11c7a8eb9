"""CSV dataset ingestion, the one CSV writer, and synthetic stand-in generation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import WeightedLabeledSet, check_count, check_real, stream_rng
from .losses import LINEAR, LOGISTIC


class DatasetError(ValueError):
    """Unreadable or malformed dataset file."""


# make_synthetic's tasks, one name each (it labels the task's random
# stream), with the loss kind their labels are for
SYNTHETIC_TASKS = {"linear": LINEAR, "logistic": LOGISTIC}


@dataclass
class Schema:
    """Column layout of a CSV dataset.

    Columns are named when the file has a header, or referenced by index
    strings ("0", "1", ...) when it does not. A field that names no column
    this way is a DatasetError naming the field.
    """

    features: list
    label: str
    weight: str | None = None
    has_header: bool = False
    standardize: bool = False
    binary_label: bool = False  # map {0,1} to {-1,+1}

    def __post_init__(self):
        if (type(self.features) is not list or not self.features
                or not all(isinstance(f, str) for f in self.features)):
            raise DatasetError("schema features must be a non-empty list of "
                               f"column names, got {self.features!r}")
        if not isinstance(self.label, str):
            raise DatasetError(
                f"schema label must be a column name, got {self.label!r}")
        if self.weight is not None and not isinstance(self.weight, str):
            raise DatasetError("schema weight must be a column name or null, "
                               f"got {self.weight!r}")
        for flag in ("has_header", "standardize", "binary_label"):
            if not isinstance(getattr(self, flag), bool):
                raise DatasetError(f"schema {flag} must be True or False, "
                                   f"got {getattr(self, flag)!r}")
        if not self.has_header:
            named = [("features", f) for f in self.features]
            named += [("label", self.label), ("weight", self.weight)]
            for key, name in named:
                if name is not None and not (name.isascii() and name.isdigit()):
                    raise DatasetError(
                        f"schema {key} column {name!r} must be a column "
                        "index (0, 1, ...) in a file without a header")


def load_dataset(path, schema: Schema) -> WeightedLabeledSet:
    """Parse a CSV file into a weighted labeled set: parse_rows' columns,
    standardized (per-feature mean 0, variance 1) when requested, labels
    mapped to -1/+1 for binary_label, weights normalized to sum 1.
    """
    pts, w, lab = parse_rows(path, read_rows(path), schema)
    if schema.standardize:
        mean = pts.mean(axis=0)
        std = pts.std(axis=0)
        std[std == 0] = 1.0
        pts = (pts - mean) / std
    if schema.binary_label:
        vals = set(np.unique(lab))
        if vals <= {0.0, 1.0}:
            lab = 2.0 * lab - 1.0
        elif not vals <= {-1.0, 1.0}:
            raise DatasetError(f"{path}: binary labels must be 0/1 or -1/+1")
    return WeightedLabeledSet(pts, w, lab).normalized()


def read_rows(path) -> list:
    """The CSV file's rows, each a list of cells; a file that cannot be
    read is a DatasetError."""
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc


def parse_rows(path, rows, schema: Schema):
    """The schema's columns of the rows of the CSV file at path as float
    arrays: points (n, d), weights (n,) and labels (n,).

    Blank rows are skipped. Rows with missing or non-numeric cells, rows
    whose width differs from the header's, and negative weights produce
    errors naming the offending line and column; weights that are all zero
    are an error naming the file. Weights are 1 when no weight column is
    given.
    """
    names = [*schema.features, schema.label]
    names += [] if schema.weight is None else [schema.weight]
    if schema.has_header:
        if not rows:
            raise DatasetError(f"{path}: empty file")
        header = [h.strip() for h in rows[0]]
        rows = rows[1:]
        for name in names:
            if name not in header:
                raise DatasetError(f"{path}: missing column {name!r}")
            if header.count(name) > 1:
                raise DatasetError(
                    f"{path}: column {name!r} occurs {header.count(name)} "
                    "times in the header")
        cols = [header.index(name) for name in names]
    else:
        cols = [int(name) for name in names]

    def cell(row, i, name, line_no):
        if i >= len(row):
            raise DatasetError(f"{path}: line {line_no}: missing column {name!r}")
        text = row[i].strip()
        try:
            value = float(text)
        except ValueError as exc:
            raise DatasetError(
                f"{path}: line {line_no}: column {name!r}: non-numeric cell {text!r}"
            ) from exc
        if not math.isfinite(value):
            raise DatasetError(
                f"{path}: line {line_no}: column {name!r}: non-finite value {text!r}")
        return value

    table = []
    for line_no, row in enumerate(rows, 2 if schema.has_header else 1):
        if not row or all(not c.strip() for c in row):
            continue
        if schema.has_header and len(row) != len(header):
            raise DatasetError(f"{path}: line {line_no}: {len(row)} cells "
                               f"under a header of {len(header)} names")
        table.append([cell(row, i, name, line_no) for i, name in zip(cols, names)])
        if schema.weight is not None and table[-1][-1] < 0:
            raise DatasetError(f"{path}: line {line_no}: column {schema.weight!r}: "
                               f"negative weight {table[-1][-1]!r}")
    if not table:
        raise DatasetError(f"{path}: no data rows")
    d = len(schema.features)
    a = np.array(table)
    w = np.ones(len(a)) if schema.weight is None else a[:, d + 1]
    if not w.any():
        raise DatasetError(f"{path}: weights are all zero")
    return a[:, :d], w, a[:, d]


def write_csv(path, rows, header=None):
    """Write rows of cells, after an optional header, as csv lines ending in
    "\n": a float (NumPy's too) as the repr of the Python float, so that it
    reads back bit for bit, None as an empty cell, anything else as str."""
    def cell(x):
        if isinstance(x, float):
            return repr(float(x))
        return "" if x is None else str(x)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows([cell(x) for x in row] for row in rows)


def make_synthetic(task: str, n: int, d: int, noise: float = 0.1,
                   seed: int = 0) -> WeightedLabeledSet:
    """Gaussian features with a planted model.

    linear task: b = <p, q*> + noise * N(0,1).
    logistic task: b = sign(<p, q*> + noise * N(0,1)) -- separable up to noise.
    The task is a key of SYNTHETIC_TASKS.
    """
    if not isinstance(task, str) or task not in SYNTHETIC_TASKS:
        raise DatasetError(f"unknown synthetic task {task!r}, expected "
                           + " or ".join(map(repr, SYNTHETIC_TASKS)))
    check_count(n, "n", 1)
    check_count(d, "d", 1)
    check_real(noise, "noise", closed=True)
    rng = stream_rng(seed, "make_synthetic", task)
    X = rng.standard_normal((n, d))
    q_star = rng.standard_normal(d)
    q_star /= np.linalg.norm(q_star)
    margin = X @ q_star + noise * rng.standard_normal(n)
    if SYNTHETIC_TASKS[task] == LINEAR:
        labels = margin
    else:
        labels = np.where(margin >= 0, 1.0, -1.0)
    weights = np.full(n, 1.0 / n)
    return WeightedLabeledSet(X, weights, labels)
