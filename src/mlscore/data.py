"""Dataset loading, validation, and per-feature standardization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np


class DataError(ValueError):
    """Raised for malformed inputs: bad CSV cells, bad labels, bad shapes."""


def _as_label(value: str, row: int, column: str) -> int:
    try:
        x = float(value)
    except ValueError:
        raise DataError(
            f"label at row {row}, column {column!r} is not numeric: {value!r}"
        ) from None
    if x == 0.0:
        return 0
    if x == 1.0:
        return 1
    raise DataError(f"label at row {row}, column {column!r} must be 0 or 1, got {value!r}")


@dataclass(frozen=True)
class Dataset:
    """Immutable n x d float matrix with named columns and optional 0/1 labels.

    Invariants are enforced at construction: finite values, at least two
    rows and one column, unique feature names, labels (when present) binary
    and aligned with the rows.
    """

    values: np.ndarray
    feature_names: list[str]
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float, order="C")
        if values.ndim != 2:
            raise DataError(f"values must be 2-d, got shape {values.shape}")
        n, d = values.shape
        if n < 2:
            raise DataError(f"need at least 2 samples, got {n}")
        if d < 1:
            raise DataError("need at least 1 feature")
        names = list(self.feature_names)
        if len(names) != d:
            raise DataError(f"{len(names)} feature names for {d} columns")
        if len(set(names)) != d:
            dupes = sorted({x for x in names if names.count(x) > 1})
            raise DataError(f"duplicate feature names: {dupes}")
        if not np.all(np.isfinite(values)):
            i, j = map(int, np.argwhere(~np.isfinite(values))[0])
            raise DataError(
                f"non-finite value at row {i + 1}, column {names[j]!r}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", names)
        if self.labels is not None:
            labels = np.array(self.labels, dtype=int)
            if labels.shape != (n,):
                raise DataError(f"labels shape {labels.shape} does not match {n} rows")
            bad = np.setdiff1d(np.unique(labels), [0, 1])
            if bad.size:
                raise DataError(f"labels must be 0/1, found {bad.tolist()}")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ScalerStats:
    """Per-feature means and sample standard deviations used by standardize."""

    means: np.ndarray
    std_devs: np.ndarray
    constant: np.ndarray  # bool mask; std_devs is 0 exactly on these features


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load a numeric CSV with a header row into a Dataset.

    Every cell must parse as a finite real number. Errors name the offending
    row (1-based, counted below the header) and column. When ``label_column``
    is given, that column is validated as 0/1, removed from the feature
    matrix, and attached as labels.

    The rows are converted to floats in one NumPy call, which parses each
    cell with Python's ``float``; only a file that fails the bulk checks is
    scanned cell by cell, to report its first fault in file order.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DataError(f"{path}: duplicate header columns: {dupes}")
        if label_column is not None and label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column) if label_column is not None else None
        rows = list(reader)

    table = None
    if all(len(raw) == len(header) for raw in rows):
        try:
            table = np.array(rows, dtype=float).reshape(len(rows), len(header))
        except ValueError:
            pass
    # a non-finite label fails the 0/1 test as well, so one finiteness
    # check over the whole table covers the feature columns
    sound = table is not None and bool(np.isfinite(table).all())
    if sound and label_idx is not None:
        sound = bool(np.isin(table[:, label_idx], (0.0, 1.0)).all())
    if not sound:
        _first_fault(path, header, rows, label_idx)

    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")
    if label_idx is None:
        return Dataset(values=table, feature_names=header)
    return Dataset(
        values=np.delete(table, label_idx, axis=1),
        feature_names=header[:label_idx] + header[label_idx + 1:],
        labels=table[:, label_idx].astype(int),
    )


def _first_fault(path, header: list[str], rows: list[list[str]], label_idx) -> NoReturn:
    """Raise the DataError for the first ragged row or bad cell in file order."""
    for i, raw in enumerate(rows, start=1):
        if len(raw) != len(header):
            raise DataError(
                f"{path}: row {i} has {len(raw)} cells, expected {len(header)}"
            )
        for j, cell in enumerate(raw):
            if j == label_idx:
                _as_label(cell.strip(), i, header[j])
                continue
            try:
                x = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: cannot parse cell at row {i}, column "
                    f"{header[j]!r}: {cell!r}"
                ) from None
            if not math.isfinite(x):
                raise DataError(
                    f"{path}: non-finite value at row {i}, column {header[j]!r}"
                )
    # np.array parses str cells with float(), so a table that failed the
    # bulk checks always has a fault the scan above finds
    raise DataError(f"{path}: cannot convert the table to numbers")


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to CSV; floats use repr so a reload is exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(ds.feature_names)
        if ds.labels is not None:
            header = header + [label_column]
        writer.writerow(header)
        for i in range(ds.n_samples):
            row = [repr(float(x)) for x in ds.values[i]]
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            writer.writerow(row)


def standardize(ds: Dataset) -> tuple[Dataset, ScalerStats]:
    """Center each feature and scale to unit sample variance (n-1 divisor).

    Constant features cannot be scaled; they come back as all-zero columns
    and are flagged in the returned stats rather than rejected.
    """
    X = ds.values
    means = X.mean(axis=0)
    sd = X.std(axis=0, ddof=1)
    # a zero sd also catches subnormal columns whose variance underflows
    constant = (X.max(axis=0) == X.min(axis=0)) | (sd == 0.0)
    sd = np.where(constant, 0.0, sd)
    safe = np.where(constant, 1.0, sd)
    out = (X - means) / safe
    out[:, constant] = 0.0
    scaled = Dataset(values=out, feature_names=ds.feature_names, labels=ds.labels)
    return scaled, ScalerStats(means=means, std_devs=sd, constant=constant)

