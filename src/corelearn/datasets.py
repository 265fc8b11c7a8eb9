"""CSV dataset ingestion, the one CSV writer, and synthetic stand-in generation."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import WeightedLabeledSet, stream_rng
from .losses import LINEAR, LOGISTIC


class DatasetError(ValueError):
    """Unreadable or malformed dataset file."""


# make_synthetic's task names, each with the loss kind its labels are for
SYNTHETIC_TASKS = {
    "linear": LINEAR, "linreg": LINEAR, LINEAR: LINEAR,
    "logistic": LOGISTIC, "logreg": LOGISTIC, LOGISTIC: LOGISTIC,
}


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
        if not self.has_header:
            named = [("features", f) for f in self.features]
            named += [("label", self.label), ("weight", self.weight)]
            for key, name in named:
                if name is not None and not (name.isascii() and name.isdigit()):
                    raise DatasetError(
                        f"schema {key} column {name!r} must be a column "
                        "index (0, 1, ...) in a file without a header")


def load_dataset(path, schema: Schema) -> WeightedLabeledSet:
    """Parse a CSV file into a weighted labeled set.

    Rows with missing or non-numeric cells, and negative weights, produce
    errors naming the offending line and column; weights that are all zero
    are an error naming the file. Weights default to 1/n when no weight
    column is given. Standardization (per-feature mean 0, variance 1)
    is applied when requested.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if schema.has_header:
        if not rows:
            raise DatasetError(f"{path}: empty file")
        header = [h.strip() for h in rows[0]]
        rows = rows[1:]
        col_index = {name: i for i, name in enumerate(header)}
        for name in [*schema.features, schema.label, schema.weight]:
            if header.count(name) > 1:
                raise DatasetError(
                    f"{path}: column {name!r} occurs {header.count(name)} "
                    "times in the header")
    else:
        col_index = None
    if not rows:
        raise DatasetError(f"{path}: no data rows")

    def col(name, row, line_no):
        if col_index is not None:
            if name not in col_index:
                raise DatasetError(f"{path}: missing column {name!r}")
            i = col_index[name]
        else:
            i = int(name)
        if i >= len(row):
            raise DatasetError(f"{path}: line {line_no}: missing column {name!r}")
        cell = row[i].strip()
        try:
            value = float(cell)
        except ValueError as exc:
            raise DatasetError(
                f"{path}: line {line_no}: column {name!r}: non-numeric cell {cell!r}"
            ) from exc
        if not np.isfinite(value):
            raise DatasetError(
                f"{path}: line {line_no}: column {name!r}: non-finite value {cell!r}")
        return value

    points, labels, weights = [], [], []
    offset = 2 if schema.has_header else 1
    for j, row in enumerate(rows):
        line_no = j + offset
        if not row or all(not c.strip() for c in row):
            continue
        points.append([col(f, row, line_no) for f in schema.features])
        labels.append(col(schema.label, row, line_no))
        if schema.weight is not None:
            weights.append(col(schema.weight, row, line_no))
            if weights[-1] < 0:
                raise DatasetError(f"{path}: line {line_no}: column "
                                   f"{schema.weight!r}: negative weight {weights[-1]!r}")
    if not points:
        raise DatasetError(f"{path}: no data rows")
    if weights and not any(weights):
        raise DatasetError(f"{path}: weights are all zero")
    pts = np.array(points)
    lab = np.array(labels)
    n = pts.shape[0]
    w = np.array(weights) if weights else np.full(n, 1.0)

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
    dataset = WeightedLabeledSet(pts, w, lab).normalized()
    return dataset


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
        raise DatasetError(f"unknown synthetic task {task!r}")
    if n < 1 or d < 1:
        raise DatasetError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
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
