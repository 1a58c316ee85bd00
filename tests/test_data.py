import codecs
import contextlib
import csv
import hashlib
import os
import re
import threading
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlscore import data
from mlscore.data import (
    DataError,
    Dataset,
    _as_label,
    _c_table,
    _checked_rows,
    load_csv,
    save_csv,
    standardize,
)

from oracles import traced_peak


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


@pytest.mark.parametrize("bad, shown", [(0.5, "0.5"), (1.9, "1.9"), (np.nan, "nan")])
def test_dataset_rejects_labels_that_are_not_exactly_0_or_1(bad, shown):
    # the labels were cast to int before the check: 0.5 was stored as 0,
    # 1.9 as 1, and NaN failed in the cast without naming its row
    with pytest.raises(DataError, match=rf"labels must be 0/1, got {shown} at row 2$"):
        Dataset(values=[[1.0], [2.0], [3.0]], feature_names=["a"], labels=[1.0, bad, 0.5])


@pytest.mark.parametrize("labels", [[True, False, True], [1.0, 0.0, 1.0], [1, 0, 1]])
def test_dataset_takes_booleans_and_whole_float_labels(labels):
    ds = Dataset(values=[[1.0], [2.0], [3.0]], feature_names=["a"], labels=labels)
    assert ds.labels.dtype == int and ds.labels.tolist() == [1, 0, 1]


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


def test_load_csv_label_padded_with_a_separator(tmp_path):
    # str.strip() drops \x1c as space, so the label reads as 1; float()
    # alone rejects it
    path = _write(tmp_path / "t.csv", "a,y\n1,\x1c1\n2,0\n")
    assert load_csv(path, label_column="y").labels.tolist() == [1, 0]


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
                    labels.append(_as_label(path, cell.strip(), i, header[j]))
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


def _c_cell(draw):
    x = draw(st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))
    spell = draw(st.sampled_from([repr, "{:.17e}".format, "{:.3E}".format]))
    return _padded(draw, spell(x))


@st.composite
def _plain_csv_files(draw):
    """A table like _csv_files, in spellings NumPy's C parser and float()
    both read, so one odd spot decides which loader path runs."""
    d = draw(st.integers(1, 4))
    names = [f"c{j}" for j in range(d)]
    label = draw(st.sampled_from([None, "y"]))
    if label is not None:
        names.insert(draw(st.integers(0, d)), label)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        cells = [_label_cell(draw) if h == "y" else _c_cell(draw) for h in names]
        rows.append([f'"{c}"' if draw(st.integers(0, 4)) == 0 else c for c in cells])
    return names, rows, label


# what NumPy's C parser reads differently from csv.reader and float(): "#"
# starts a comment unless comments=None; loadtxt rejects underscores and
# non-ASCII digits and strips the ASCII separators \x1c-\x1f as space; a
# quoted line break makes one record of two lines; loadtxt skips blank lines
_C_PARSER_CELLS = ["1#2", "#", "1_000", "१", "٣.٥", "\x1c1", "1\x1f", " \x1d2 ",
                   "\x0c3\x0b", '"1\n"', '"\r\n2"', '"1\n2"']
_C_PARSER_LINES = ["", " ", "\t", " \t "]


@pytest.mark.parametrize(
    "kind, odd",
    [("cell", c) for c in _C_PARSER_CELLS] + [("line", x) for x in _C_PARSER_LINES],
)
@given(st.one_of(_plain_csv_files(), _csv_files()), st.data())
def test_load_csv_matches_reference_where_the_c_parser_differs(
    tmp_path_factory, kind, odd, table, data
):
    """One odd cell or line in a table, with line ends of LF, CRLF or CR
    alone, and maybe a quoted header name with a line break in it."""
    names, rows, label = table
    lines = [",".join(r) for r in rows]
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if kind == "line":  # in the middle or at the end
        lines.insert(data.draw(st.integers(0, len(lines))), odd)
    elif rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        cells = list(rows[i])
        cells[data.draw(st.integers(0, len(cells) - 1))] = odd
        lines[i] = ",".join(cells)
    header = [f" {h} " if h == "y" else h for h in names]
    if data.draw(st.booleans()):
        j = data.draw(st.sampled_from([j for j, h in enumerate(names) if h != "y"]))
        header[j] = f'"{header[j][:1]}{newline}{header[j][1:]}"'
    text = newline.join([",".join(header), *lines]) + data.draw(st.sampled_from([newline, ""]))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(load_csv, path, label) == _outcome(_reference_load, path, label)


@pytest.mark.parametrize("body", ["", "\n", "\r\n", "\n\n", "\r", " \n"])
def test_load_csv_header_only_or_blank_body_warns_nothing(tmp_path, body):
    # loadtxt warns on input without data; the loader must not reach it
    path = tmp_path / "t.csv"
    path.write_bytes(("a,b" + body).encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(load_csv, path, None)
    assert got == _outcome(_reference_load, path, None)
    assert got[0] == "error"


@pytest.mark.parametrize("first, want", [
    # 1_0 is a float() spelling the C parser rejects, so csv.reader reads on
    # from its run and stops at the long cell of row 2
    ("1_0,2", "row 2: field larger than field limit ({limit})"),
    # a fault before the long cell is still the first one reported
    ("x,2", "cannot parse cell at row 1, column 'a': 'x'"),
])
def test_load_csv_cell_over_field_limit_is_a_data_error(tmp_path, first, want):
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n{first}\n3,{'0' * 140000}1\n")
    want = want.format(limit=csv.field_size_limit())
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: {want}"


def test_load_csv_header_cell_over_field_limit_is_a_data_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"a,{'b' * 140001}\n1,2\n3,4\n")
    with pytest.raises(DataError, match=r"header: field larger than field limit"):
        load_csv(path)


@pytest.mark.parametrize("content, where", [
    (b"a,caf\xe9\n1,2\n3,4\n", "header"),
    # the record that spans two lines is one row
    (b'a,b\n1,2\n3,"4\n"\n6,\xff7\n', "row 3"),
    # past the first block of text the file decodes, so in a C parser run
    (b"a,b\n" + b"1,2\n" * 5000 + b"3,\xe94\n", "row 5001"),
])
def test_load_csv_bytes_not_utf8_name_the_header_or_row(tmp_path, content, where):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value).startswith(f"{path}: {where}: bytes that are not UTF-8 (")


@pytest.mark.parametrize("content, want", [
    # header faults come before any fault of the body
    (b"a,a\n1,\xe9\n3,4\n", "{path}: duplicate header columns: ['a']"),
    (b"a,b\n1,\xe9\n3,4\n", "{path}: label column 'y' not in header"),
    # a bad cell in row 1 comes before a bad byte in row 3
    (b"a,y\nx,0\n1,0\n\xe9,1\n", "{path}: cannot parse cell at row 1, column 'a': 'x'"),
    (b"a,y\n1,2\n1,0\n\xe9,1\n",
     "{path}: label at row 1, column 'y' must be 0 or 1, got '2'"),
    (b"a,y\n1,0,5\n1,0\n\xe9,1\n", "{path}: row 1 has 3 cells, expected 2"),
    # a bad byte in a row comes before that row's wrong cell count
    (b"a,y\n1,0\n\xe9,1,5\n", "{path}: row 2: bytes that are not UTF-8 (b'\\xe9')"),
])
def test_load_csv_reports_faults_in_file_order(tmp_path, content, want):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(DataError) as info:
        load_csv(path, "y")
    assert str(info.value) == want.format(path=path)


@pytest.mark.parametrize("body", [
    "1,2\n3,4\n",
    # csv.reader takes the body from the first run, or from a run past the
    # first buffer, which the digest has already read once
    "1,2\n3,1_000\n",
    "1,2\n" * 40000 + "3,1_000\n",
], ids=["c-parser", "csv-reader-from-the-first-run", "csv-reader-from-a-later-run"])
def test_load_csv_digest_is_the_sha256_of_the_file(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_bytes(codecs.BOM_UTF8 + ("a,b\n" + body).encode("utf-8"))
    assert load_csv(path).source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@contextlib.contextmanager
def _c_tables():
    """The list of what each _c_table call returns within the block: a
    table for a run np.loadtxt took, None for one it turned down."""
    tables = []

    def c_table(*args):
        tables.append(_c_table(*args))
        return tables[-1]

    with patch("mlscore.data._c_table", c_table):
        yield tables


def _piped(content: bytes, label_column=None):
    """load_csv of content fed to it through a pipe, which cannot seek."""
    r, w = os.pipe()

    def feed():
        # a fault stops the read, and what is left meets a closed pipe
        with contextlib.suppress(BrokenPipeError), os.fdopen(w, "wb") as sink:
            sink.write(content)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load_csv(f"/dev/fd/{r}", label_column)
    finally:
        os.close(r)
        writer.join(timeout=60)
        assert not writer.is_alive()


@needs_dev_fd
@pytest.mark.parametrize("body, want", [
    ("1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n3,1_000\n", [[1.0, 2.0], [3.0, 1000.0]]),
    ("1,2\n3,x\n", "cannot parse cell at row 2, column 'b'"),
    # the byte 0xe9, found in the row that holds it, not by a second read
    ("1,2\n3,\udce9\n", r"/dev/fd/\d+: row 2: bytes that are not UTF-8 \(b'\\xe9'\)"),
])
def test_load_csv_reads_a_pipe(body, want):
    # a pipe is read in runs of lines as a file is, so 1_000 and x are
    # found by csv.reader in the run that holds them
    sent = ("a,b\n" + body).encode("utf-8", "surrogateescape")
    if isinstance(want, str):
        with pytest.raises(DataError, match=want):
            _piped(sent)
    else:
        ds = _piped(sent)
        assert ds.values.tolist() == want
        assert ds.source_sha256 == hashlib.sha256(sent).hexdigest()


@needs_dev_fd
def test_load_csv_through_a_pipe_equals_the_file_load(tmp_path, rng):
    # np.loadtxt parses the body of both, a run of lines at a time
    X = rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-300, 300, (40, 4))
    spell = [repr, "{:.17e}".format, lambda x: f" {x!r}\t", lambda x: f"\t{x:.17E}  "]
    labels = [" 1", "0.0 ", "1e0", "-0", "+1"]
    lines = ["a,b, y ,c,d"]
    for i, row in enumerate(X):
        cells = [spell[(i + j) % 4](x) for j, x in enumerate(row.tolist())]
        lines.append(",".join(cells[:2] + [labels[i % 5]] + cells[2:]))
    content = "\r\n".join(lines).encode("utf-8") + b"\r\n"
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with _c_tables() as tables:
        want = load_csv(path, "y")
    # every run of the file took the C parser
    assert tables and all(t is not None for t in tables)
    got = _piped(content, "y")
    assert got.values.tobytes() == want.values.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.feature_names == want.feature_names == ["a", "b", "c", "d"]
    assert got.source_sha256 == want.source_sha256 == hashlib.sha256(content).hexdigest()


@needs_dev_fd
@pytest.mark.parametrize("faults, want", [
    ((2, 5, 7), "non-finite value at row 2, column 'b'"),
    ((5, 7), "row 5 has 2 cells, expected 3"),
    ((7,), "label at row 7, column 'y' must be 0 or 1, got '2'"),
])
def test_load_csv_through_a_pipe_stops_at_the_first_bad_row(faults, want):
    rows = [f"{i},{i % 2},{i}.5" for i in range(1, 9)]
    bad = {2: "2,0,inf", 5: "5,1", 7: "7, 2 ,7.5"}
    for i in faults:
        rows[i - 1] = bad[i]
    content = ("a,y,b\n" + "\n".join(rows) + "\n").encode("utf-8")
    with pytest.raises(DataError, match=rf"^/dev/fd/\d+: {re.escape(want)}$"):
        _piped(content, "y")


@needs_dev_fd
def test_load_csv_through_a_pipe_takes_the_c_parser():
    # a pipe cannot seek, and a reader that seeks back to the body after a
    # miss sent every pipe straight to csv.reader
    content = ("a,b,y\n" + "1.5,-2e3,1\n3,4,0\n" * 100).encode("utf-8")
    with _c_tables() as tables:
        ds = _piped(content, "y")
    assert tables and all(t is not None for t in tables)
    assert ds.values.tolist() == [[1.5, -2e3], [3.0, 4.0]] * 100
    assert ds.labels.tolist() == [1, 0] * 100


def test_load_csv_hands_csv_reader_only_the_failing_run(tmp_path):
    # lines of 9 characters, so a run ends on the first line that takes it
    # past _CHUNK_CHARS; the only fault is in the last row, which the fourth
    # run holds, so csv.reader starts at that run
    per_run = data._CHUNK_CHARS // 9 + 1
    n = 3 * per_run + per_run // 2 + 1
    lines = [f"{i:06d},{i % 2}\n" for i in range(1, n)] + ["     x,1\n"]
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "".join(lines))
    handed = []

    def checked_rows(path, reader, *rest):
        def rows():
            for raw in reader:
                handed.append(raw)
                yield raw
        return _checked_rows(path, rows(), *rest)

    with patch("mlscore.data._checked_rows", checked_rows), pytest.raises(DataError) as info:
        load_csv(path)
    assert handed == [line[:-1].split(",") for line in lines[3 * per_run:]]
    # the error csv.reader gave when it read the file from row 1
    assert str(info.value) == f"{path}: cannot parse cell at row {n}, column 'a': '     x'"


def test_load_csv_quoted_line_break_across_runs_reads_as_csv_reader(tmp_path):
    # in runs of one line the quoted "4\n" opens in the second run and
    # closes in the third; without the count of quotes np.loadtxt takes the
    # second run as 3,4, and the lone quote that closes it is a ragged row
    path = tmp_path / "t.csv"
    path.write_text('a,b\n1,2\n3,"4\n"\n5,6\n')
    with patch("mlscore.data._CHUNK_CHARS", 1), _c_tables() as tables:
        got = _outcome(load_csv, path, None)
    assert [t is not None for t in tables] == [True, False]
    assert got == _outcome(_reference_load, path, None)
    assert got[2] == np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).tobytes()


@pytest.mark.parametrize("body, c_parser", [
    ("1,2,3\n0,4,5\n", True),
    # loadtxt rejects 1_000, so csv.reader reads on from its run
    ("1,2,3\n0,1_000,5\n", False),
])
def test_load_csv_drops_a_utf8_byte_order_mark(tmp_path, body, c_parser):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark; decoded
    # as plain UTF-8 it became part of the first header name, '\ufefflabel'
    text = ("label,a,b\n" + body).encode("utf-8")
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + text)
    for label in (None, "label"):
        with _c_tables() as plain_runs:
            want = load_csv(plain, label)
        with _c_tables() as marked_runs:
            got = load_csv(marked, label)
        assert got.feature_names == want.feature_names
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.labels, want.labels)
        # the marked file's runs go where the plain file's go, and every
        # run takes the C parser only where the body has no 1_000
        took = [t is not None for t in marked_runs]
        assert took == [t is not None for t in plain_runs]
        assert took and all(took) == c_parser


def _wide_csv(tmp_path, rng):
    """A 2000 x 309 N(0, 1) Dataset with 0/1 labels, and the CSV save_csv
    writes of it: 5.0 MB of doubles."""
    n, d = 2000, 309
    ds = Dataset(
        values=rng.standard_normal((n, d)),
        feature_names=[f"f{j:03d}" for j in range(d)],
        labels=rng.integers(0, 2, n),
    )
    path = tmp_path / "wide.csv"
    save_csv(ds, path)
    return ds, path


def test_load_csv_peak_memory_on_a_wide_table(tmp_path, rng):
    # 2000 x 310 doubles take 5 MB; one Python str per cell would take 63 MB
    ds, path = _wide_csv(tmp_path, rng)
    back, peak = traced_peak(lambda: load_csv(path, label_column="label"))
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.labels, ds.labels)
    # the parsed table (5.0 MB) and the feature matrix cut from it (4.9 MB),
    # which the Dataset takes without a further copy
    assert peak < 12e6, f"load_csv peaked at {peak / 1e6:.1f} MB"


@needs_dev_fd
def test_load_csv_peak_memory_through_a_pipe(tmp_path, rng):
    # a pipe's rows went through Python; held as str and then converted in
    # bulk, they peaked at 58 MB on this table
    ds, path = _wide_csv(tmp_path, rng)
    content = path.read_bytes()
    back, peak = traced_peak(lambda: _piped(content, "label"))
    assert back.values.tobytes() == ds.values.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    # the table, grown a run at a time (5.0 MB and its growth margin), and
    # the feature matrix cut from it (4.9 MB)
    assert peak < 12e6, f"load_csv peaked at {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------- save_csv


def _reference_save(ds, path, label_column="label"):
    """The per-cell writer save_csv replaced, kept as its oracle."""
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


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.booleans(),
    st.sampled_from(["label", 'y,"1"', "a b\nc"]),
)
def test_save_csv_writes_the_reference_bytes(tmp_path_factory, values, labelled, label_column):
    names = [f"f{j}" for j in range(values.shape[1])]
    names[0] = 'x,"q"'  # a header name csv.writer must quote
    labels = (np.arange(values.shape[0]) % 2) if labelled else None
    ds = Dataset(values=values, feature_names=names, labels=labels)
    folder = tmp_path_factory.mktemp("save")
    save_csv(ds, folder / "new.csv", label_column)
    _reference_save(ds, folder / "old.csv", label_column)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


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
