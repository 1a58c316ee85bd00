"""Dataset loading, validation, and per-feature standardization."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Raised for malformed inputs: bad CSV cells, bad labels, bad shapes."""


class LabelColumnError(DataError):
    """Raised by ``load_csv`` when the label column it is given is not in
    the header, which a command may report as a usage error."""


def _as_label(path, value: str, row: int, column: str) -> int:
    try:
        x = float(value)
    except ValueError:
        raise DataError(
            f"{path}: label at row {row}, column {column!r} is not numeric: {value!r}"
        ) from None
    if x == 0.0:
        return 0
    if x == 1.0:
        return 1
    raise DataError(
        f"{path}: label at row {row}, column {column!r} must be 0 or 1, got {value!r}"
    )


class _Owned:
    """Wraps an array that its maker hands to a Dataset and keeps no
    reference to, so that the Dataset takes it without a copy. Any other
    array is copied, so that no Dataset aliases an array its caller holds."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True)
class Dataset:
    """Immutable n x d float matrix with named columns and optional 0/1 labels.

    Invariants are enforced at construction: finite values, at least two
    rows and one column, unique feature names, labels (when present) binary
    and aligned with the rows. ``source_sha256`` is the hex sha256 of the
    bytes ``load_csv`` read the table from, None for a table made otherwise.
    """

    values: np.ndarray
    feature_names: list[str]
    labels: np.ndarray | None = None
    source_sha256: str | None = None

    def __post_init__(self):
        if isinstance(self.values, _Owned):
            values = np.asarray(self.values.array, dtype=float, order="C")
        else:
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
            try:
                given = np.array(self.labels, dtype=float)
            except (TypeError, ValueError) as exc:
                raise DataError(f"labels must be 0/1 numbers: {exc}") from None
            if given.shape != (n,):
                raise DataError(f"labels shape {given.shape} does not match {n} rows")
            # checked before the cast to int, which would truncate 0.5 to 0
            # and fail on NaN without naming the row
            bad = np.flatnonzero((given != 0.0) & (given != 1.0))
            if bad.size:
                i = int(bad[0])
                raise DataError(f"labels must be 0/1, got {float(given[i])} at row {i + 1}")
            labels = given.astype(int)
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


class _Hashed(io.FileIO):
    """A file opened for reading that feeds each byte read from it to
    ``sha256``; nothing seeks it, so the digest is that of the bytes read."""

    # read through readinto, so that no byte escapes the digest
    read, readall = io.RawIOBase.read, io.RawIOBase.readall

    def __init__(self, path):
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load a numeric CSV with a header row into a Dataset.

    Every cell must parse as a finite real number. Errors name the offending
    row (1-based, counted below the header) and column. When ``label_column``
    is given, that column is validated as 0/1, removed from the feature
    matrix, and attached as labels.

    The path is opened once and read once, with no seek, so a pipe or a
    FIFO reads as a file does; its bytes stream through the sha256 that
    becomes ``source_sha256``. They decode as UTF-8 with
    ``errors="surrogateescape"``, so a byte that is not UTF-8 stays in its
    cell as a lone surrogate. The header is read with ``csv.reader`` and the
    body in runs of whole lines (``_body``), each parsed by NumPy's C parser
    (``np.loadtxt``) and kept where it must equal what ``csv.reader`` and
    ``float`` give. At the first run that might read otherwise (a blank
    line, a quoted field still open at its end, a line longer than
    ``csv.field_size_limit()``, ``1_000``, the separators
    ``\\x1c``-``\\x1f``, every bad row) ``_checked_rows`` takes over for
    that run and the rest of the input. It reads one ``csv.reader`` row at
    a time, in one pass that converts the row's cells and raises its first
    fault where it finds it: bytes that are not UTF-8, then a wrong cell
    count, then the first bad cell in column order. A header fault comes
    first, and a cell longer than ``csv.field_size_limit()`` is a fault of
    its row. A UTF-8 byte-order mark at the start is dropped.
    """
    try:
        source = _Hashed(path)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    fh = io.TextIOWrapper(io.BufferedReader(source, 1 << 16), encoding="utf-8-sig",
                          errors="surrogateescape", newline="")
    with fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as exc:  # a cell over csv.field_size_limit()
            raise DataError(f"{path}: header: {exc}") from None
        if header is None:
            raise DataError(f"{path}: empty file")
        _check_utf8(f"{path}: header", header)
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DataError(f"{path}: duplicate header columns: {dupes}")
        if label_column is not None and label_column not in header:
            raise LabelColumnError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column) if label_column is not None else None

        table = _body(path, fh, header, label_idx)

    if len(table) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(table)}")
    digest = source.sha256.hexdigest()
    if label_idx is None:
        return Dataset(values=_Owned(table), feature_names=header, source_sha256=digest)
    return Dataset(
        values=_Owned(np.delete(table, label_idx, axis=1)),
        feature_names=header[:label_idx] + header[label_idx + 1:],
        labels=table[:, label_idx].astype(int),
        source_sha256=digest,
    )


# loadtxt strips these ASCII separators as whitespace; float() rejects them
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


# a run of body lines ends on the line that takes it past this many
# characters, which keeps its strings a small share of the table
_CHUNK_CHARS = 1 << 17


def _body(path, fh, header: list[str], label_idx) -> np.ndarray:
    """The rows of fh below the header as one table. Each run of lines that
    ``fh.readlines(_CHUNK_CHARS)`` gives goes to ``np.loadtxt`` until the
    first run that ``_c_table`` turns down; that run and the rest of fh go
    to ``_checked_rows``."""
    table = array("d")
    while lines := fh.readlines(_CHUNK_CHARS):
        part = _c_table(lines, len(header), label_idx)
        if part is None:
            _checked_rows(path, csv.reader(itertools.chain(lines, fh)), header,
                          label_idx, table)
            break
        table.frombytes(part.data.cast("B"))
    return np.frombuffer(table).reshape(-1, len(header))


def _c_table(lines: list[str], width: int, label_idx) -> np.ndarray | None:
    """The run of whole lines as parsed by ``np.loadtxt``, or None where
    that might differ from the ``csv.reader`` path."""
    # loadtxt warns on a run without data, and it skips a blank line that
    # csv.reader yields as a ragged record
    if not lines[0].strip("\r\n"):
        return None
    if any(c in line for line in lines for c in _LOADTXT_ONLY_SPACE):
        return None
    # an odd count of quotes leaves a quoted field open past the run's end;
    # the "in" test skips a line without one faster than count scans it
    if sum(line.count('"') for line in lines if '"' in line) % 2:
        return None
    # np.loadtxt takes a cell of any length, csv.reader none longer than
    # csv.field_size_limit(); a run it keeps holds one record per line
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:
        return None
    # fewer rows than lines means a skipped blank line or a quoted line break
    if table.shape != (len(lines), width) or not _sound(table, label_idx):
        return None
    return table


def _check_utf8(where: str, cells: list[str]) -> None:
    """Raise the DataError for the bytes that are not UTF-8 in cells, which
    surrogateescape decoding left as lone surrogates U+DC80-U+DCFF."""
    text = "".join(cells)
    if text.isascii():
        return
    bad = bytes(ord(c) - 0xDC00 for c in text if "\udc80" <= c <= "\udcff")
    if bad:
        raise DataError(f"{where}: bytes that are not UTF-8 ({bad!r})")


def _sound(table: np.ndarray, label_idx) -> bool:
    """Whether every cell is finite and the label column, if any, is 0/1."""
    # a non-finite label fails the 0/1 test as well, so one finiteness
    # check over the whole table covers the feature columns
    if not np.isfinite(table).all():
        return False
    return label_idx is None or bool(np.isin(table[:, label_idx], (0.0, 1.0)).all())


def _checked_rows(path, reader, header: list[str], label_idx, table: array) -> None:
    """Append the rows of reader to table, counted on from the rows table
    holds, in one cell-by-cell pass that raises the first fault where it
    finds it: bytes that are not UTF-8, then a cell count other than the
    header's, then the first cell in column order that ``float`` does not
    take to a finite value or, in the label column, that ``_as_label``
    turns down once stripped, which drops ``\\x1c``-``\\x1f`` too."""
    width = len(header)
    i = len(table) // width
    append, isfinite = table.append, math.isfinite  # looked up once, not per cell
    try:
        for i, raw in enumerate(reader, start=i + 1):
            _check_utf8(f"{path}: row {i}", raw)
            if len(raw) != width:
                raise DataError(f"{path}: row {i} has {len(raw)} cells, expected {width}")
            for j, cell in enumerate(raw):
                if j == label_idx:
                    append(_as_label(path, cell.strip(), i, header[j]))
                    continue
                try:
                    x = float(cell)
                except ValueError:
                    raise DataError(f"{path}: cannot parse cell at row {i}, "
                                    f"column {header[j]!r}: {cell!r}") from None
                if not isfinite(x):
                    raise DataError(f"{path}: non-finite value at row {i}, column {header[j]!r}")
                append(x)
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise DataError(f"{path}: row {i + 1}: {exc}") from None


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to CSV; floats use repr so a reload is exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        header = list(ds.feature_names)
        if ds.labels is not None:
            header = header + [label_column]
        csv.writer(fh).writerow(header)
        # the bytes csv.writer gives: a repr or an int needs no quoting
        tails = [""] * ds.n_samples if ds.labels is None else [
            f",{y}" for y in ds.labels.tolist()]
        fh.writelines(
            ",".join(map(repr, row.tolist())) + tail + "\r\n"
            for row, tail in zip(ds.values, tails)
        )


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
    out = X - means
    out /= safe
    out[:, constant] = 0.0
    scaled = Dataset(values=_Owned(out), feature_names=ds.feature_names, labels=ds.labels)
    return scaled, ScalerStats(means=means, std_devs=sd, constant=constant)

