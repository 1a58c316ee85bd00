import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlscore.data import (
    DataError,
    Dataset,
    _as_label,
    load_csv,
    save_csv,
    standardize,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- Dataset


def test_dataset_basic_shape():
    ds = Dataset(values=[[1.0, 2.0], [3.0, 4.0]], feature_names=["a", "b"])
    assert ds.n_samples == 2
    assert ds.n_features == 2
    assert ds.labels is None


def test_dataset_values_are_read_only():
    ds = Dataset(values=[[1.0], [2.0]], feature_names=["a"])
    with pytest.raises(ValueError):
        ds.values[0, 0] = 9.0


def test_dataset_rejects_single_row():
    with pytest.raises(DataError, match="at least 2 samples"):
        Dataset(values=[[1.0, 2.0]], feature_names=["a", "b"])


def test_dataset_rejects_duplicate_names():
    with pytest.raises(DataError, match="duplicate feature names"):
        Dataset(values=[[1.0, 2.0], [3.0, 4.0]], feature_names=["a", "a"])


def test_dataset_rejects_non_finite_and_names_the_cell():
    with pytest.raises(DataError, match=r"row 2, column 'b'"):
        Dataset(values=[[1.0, 2.0], [3.0, np.nan]], feature_names=["a", "b"])


def test_dataset_rejects_bad_label_values():
    with pytest.raises(DataError, match="labels must be 0/1"):
        Dataset(values=[[1.0], [2.0]], feature_names=["a"], labels=[0, 2])


def test_dataset_rejects_misaligned_labels():
    with pytest.raises(DataError, match="labels shape"):
        Dataset(values=[[1.0], [2.0]], feature_names=["a"], labels=[0, 1, 0])


# ---------------------------------------------------------------- load_csv


def test_load_csv_without_labels(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\n3,4\n5,6\n")
    ds = load_csv(path)
    assert ds.n_samples == 3
    assert ds.n_features == 2
    assert ds.feature_names == ["a", "b"]
    assert ds.labels is None
    assert np.array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_extracts_label_column(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b,y\n1,2,0\n3,4,0\n5,6,1\n")
    ds = load_csv(path, label_column="y")
    assert ds.n_features == 2
    assert ds.feature_names == ["a", "b"]
    assert ds.labels.tolist() == [0, 0, 1]


def test_load_csv_nan_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\n3,NaN\n")
    with pytest.raises(DataError, match=r"row 2, column 'b'"):
        load_csv(path)


def test_load_csv_non_numeric_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\nx,4\n")
    with pytest.raises(DataError, match=r"row 2, column 'a'"):
        load_csv(path)


def test_load_csv_missing_file():
    with pytest.raises(DataError, match="cannot open"):
        load_csv("/nonexistent/nope.csv")


def test_load_csv_duplicate_header(tmp_path):
    path = _write(tmp_path / "t.csv", "a,a\n1,2\n3,4\n")
    with pytest.raises(DataError, match="duplicate header"):
        load_csv(path)


def test_load_csv_missing_label_column(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\n3,4\n")
    with pytest.raises(DataError, match="label column 'y' not in header"):
        load_csv(path, label_column="y")


def test_load_csv_bad_label_value(tmp_path):
    path = _write(tmp_path / "t.csv", "a,y\n1,0\n2,5\n")
    with pytest.raises(DataError, match="must be 0 or 1"):
        load_csv(path, label_column="y")


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 2 has 1 cells"):
        load_csv(path)


def test_load_csv_too_few_rows(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\n")
    with pytest.raises(DataError, match="at least 2 data rows"):
        load_csv(path)


def test_csv_round_trip_is_exact(tmp_path, rng):
    ds = Dataset(
        values=rng.standard_normal((7, 3)),
        feature_names=["x", "y", "z"],
        labels=rng.integers(0, 2, 7),
    )
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path, label_column="label")
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.labels, ds.labels)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=8),
        elements=st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
    )
)
def test_round_trip_property(tmp_path_factory, values):
    ds = Dataset(values=values, feature_names=[f"f{j}" for j in range(values.shape[1])])
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.values, ds.values)


def test_load_csv_bad_cell_before_ragged_row(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\n3,x\n4\n")
    with pytest.raises(DataError, match=r"cannot parse cell at row 2, column 'b'"):
        load_csv(path)


def test_load_csv_ragged_row_before_bad_cell(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\n3\n4,x\n")
    with pytest.raises(DataError, match="row 2 has 1 cells"):
        load_csv(path)


def test_load_csv_nan_label(tmp_path):
    path = _write(tmp_path / "t.csv", "a,y\n1,0\n2,nan\n3,1\n")
    with pytest.raises(DataError, match=r"row 2, column 'y' must be 0 or 1"):
        load_csv(path, label_column="y")


def test_load_csv_inf_feature(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b\n1,2\n3,-inf\n")
    with pytest.raises(DataError, match=r"non-finite value at row 2, column 'b'"):
        load_csv(path)


def _reference_load(path, label_column=None):
    """The cell-by-cell loader load_csv replaced, kept as its oracle."""
    with open(path, newline="", encoding="utf-8") as fh:
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

        rows = []
        labels = []
        for i, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                raise DataError(
                    f"{path}: row {i} has {len(raw)} cells, expected {len(header)}"
                )
            parsed = []
            for j, cell in enumerate(raw):
                if j == label_idx:
                    labels.append(_as_label(cell.strip(), i, header[j]))
                    continue
                try:
                    x = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: cannot parse cell at row {i}, column "
                        f"{header[j]!r}: {cell!r}"
                    ) from None
                if not np.isfinite(x):
                    raise DataError(
                        f"{path}: non-finite value at row {i}, column {header[j]!r}"
                    )
                parsed.append(x)
            rows.append(parsed)

        if len(rows) < 2:
            raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")
        names = [h for j, h in enumerate(header) if j != label_idx]
        return Dataset(
            values=np.asarray(rows, dtype=float),
            feature_names=names,
            labels=np.asarray(labels, dtype=int) if label_idx is not None else None,
        )


def _outcome(loader, path, label_column):
    """What a loader makes of a file: the exact bits it loads, or its error."""
    try:
        ds = loader(path, label_column)
    except DataError as err:
        return ("error", str(err))
    labels = None if ds.labels is None else ds.labels.tobytes()
    return ("ok", ds.values.shape, ds.values.tobytes(), ds.feature_names, labels)


def _padded(draw, text):
    return draw(st.sampled_from(["", " ", "\t", "  "])) + text + draw(
        st.sampled_from(["", " ", " \t"]))


def _feature_cell(draw):
    x = draw(st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
             | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    form = draw(st.sampled_from(["repr", "exp", "EXP", "fixed", "underscore", "int"]))
    if form == "repr":
        text = repr(x)
    elif form == "exp":
        text = f"{x:.{draw(st.integers(0, 17))}e}"
    elif form == "EXP":
        text = f"{x:.17E}"
    elif form == "fixed":
        text = f"{x:.6f}" if abs(x) < 1e15 else repr(x)
    elif form == "underscore":
        text = f"{x:_.3f}" if abs(x) < 1e15 else repr(x)
    else:
        text = f"{draw(st.integers(-10**12, 10**12)):_}"
    return _padded(draw, text)


def _label_cell(draw):
    forms = ["1", "1.0", "1e0", "+1", "0", "0.0", "-0", "0e5"]
    return _padded(draw, draw(st.sampled_from(forms)))


@st.composite
def _csv_files(draw):
    """A table as (header names, rows of cell text, label column or None):
    the label column first, in the middle, last or absent, and cells in the
    spellings float() accepts: padding, exponents, underscores, quotes."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    names = [f"c{j}" for j in range(d)]
    label_at = draw(st.sampled_from([None, "first", "middle", "last"]))
    if label_at is not None:
        pos = {"first": 0, "middle": d // 2, "last": d}[label_at]
        names.insert(pos, "y")
    label_idx = names.index("y") if label_at is not None else None
    rows = []
    for _ in range(n):
        cells = []
        for j in range(len(names)):
            cell = _label_cell(draw) if j == label_idx else _feature_cell(draw)
            if draw(st.integers(0, 4)) == 0:
                cell = '"' + cell + '"'
            cells.append(cell)
        rows.append(cells)
    return names, rows, "y" if label_at is not None else None


def _render(names, rows, newline):
    header = [f" {h} " if h == "y" else h for h in names]
    return newline.join(",".join(r) for r in [header, *rows]) + newline


@given(_csv_files(), st.sampled_from(["\n", "\r\n"]))
def test_load_csv_matches_cell_by_cell_reference(tmp_path_factory, table, newline):
    names, rows, label = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(_render(names, rows, newline), encoding="utf-8")
    assert _outcome(load_csv, path, label) == _outcome(_reference_load, path, label)


# "2" and "0.5" are only bad as labels; the quoted "1,5" is one cell
_BAD_CELLS = ["x", "nan", " NaN", "inf", "-Infinity", "1e999", "", "1__0", "2", "0.5", '"1,5"']


@given(_csv_files(), st.data())
def test_load_csv_reports_first_fault_like_reference(tmp_path_factory, table, data):
    names, rows, label = table
    rows = [list(r) for r in rows]
    for _ in range(data.draw(st.integers(1, 3)) if rows else 0):
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        if row and data.draw(st.booleans()):
            j = data.draw(st.integers(0, len(row) - 1))
            row[j] = data.draw(st.sampled_from(_BAD_CELLS))
        elif row and data.draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(_render(names, rows, "\n"), encoding="utf-8")
    assert _outcome(load_csv, path, label) == _outcome(_reference_load, path, label)


# ------------------------------------------------------------- standardize


def test_standardize_hand_values():
    ds = Dataset(values=[[1.0], [2.0], [3.0]], feature_names=["a"])
    scaled, stats = standardize(ds)
    assert np.allclose(scaled.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
    assert stats.means[0] == 2.0
    assert stats.std_devs[0] == 1.0
    assert not stats.constant[0]


def test_standardize_constant_column_flagged():
    ds = Dataset(values=[[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], feature_names=["c", "a"])
    scaled, stats = standardize(ds)
    assert np.array_equal(scaled.values[:, 0], [0.0, 0.0, 0.0])
    assert stats.constant.tolist() == [True, False]
    assert stats.std_devs[0] == 0.0


def test_standardize_keeps_labels():
    ds = Dataset(values=[[1.0], [2.0]], feature_names=["a"], labels=[0, 1])
    scaled, _ = standardize(ds)
    assert np.array_equal(scaled.labels, ds.labels)


def test_standardize_idempotent(rng):
    ds = Dataset(
        values=rng.standard_normal((20, 4)) * 3.0 + 1.0,
        feature_names=[f"f{j}" for j in range(4)],
    )
    once, _ = standardize(ds)
    twice, _ = standardize(once)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-12


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=3, max_side=10),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
)
def test_standardize_moments(values):
    ds = Dataset(values=values, feature_names=[f"f{j}" for j in range(values.shape[1])])
    scaled, stats = standardize(ds)
    # columns whose spread is below the rounding noise of their own mean
    # cannot carry exact moments; skip those, keep the rest strict
    spread = values.std(axis=0, ddof=1)
    sound = ~stats.constant & (spread > 1e-7 * (1.0 + np.abs(values).max(axis=0)))
    if sound.any():
        X = scaled.values[:, sound]
        assert np.max(np.abs(X.mean(axis=0))) < 1e-8
        assert np.max(np.abs(X.std(axis=0, ddof=1) - 1.0)) < 1e-8
    assert not scaled.values[:, stats.constant].any()
