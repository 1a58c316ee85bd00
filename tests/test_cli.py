import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mlscore
from mlscore import cli
from mlscore.cli import BLAS_THREAD_VARIABLES, main
from mlscore.data import load_csv, standardize
from mlscore.evaluation import run_recovery_benchmark
from mlscore.gates import TrainConfig
from mlscore.margins import MarginConfig, build_margin_model


@pytest.fixture
def labeled_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main(
        ["synth", "--setup", "1", "--rho", "0.9", "--n", "60", "--seed", "3",
         "--output", str(path)]
    )
    assert code == 0
    return path


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(path):
    with open(str(path) + ".manifest.json") as fh:
        return json.load(fh)


def _cli_env(**settings):
    """The environment, plus settings, for ``python -m mlscore.cli`` run
    from the source tree of the mlscore under test."""
    src = str(Path(mlscore.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path,
                **settings)


# -------------------------------------------------------------------- score


def test_score_writes_ranked_csv_and_manifest(labeled_csv, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    code = main(
        ["score", "--method", "mls", "--input", str(labeled_csv),
         "--label-col", "label", "--output", str(out)]
    )
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 10
    assert set(rows[0]) == {"feature", "score", "rank"}
    ranks = sorted(int(r["rank"]) for r in rows)
    assert ranks == list(range(1, 11))
    manifest = _manifest(out)
    assert manifest["command"] == "score"
    assert manifest["tool_version"]
    assert str(labeled_csv) in manifest["inputs"]
    assert len(manifest["inputs"][str(labeled_csv)]) == 64
    assert manifest["outputs"] == [str(out)]
    assert manifest["warnings"] == []
    assert "wrote" in capsys.readouterr().out


def test_score_ranks_follow_the_scores_with_ties_in_column_order(tmp_path):
    # the rows keep column order; the ranks go up with the score, and the
    # constant columns a and c tie at +inf, so they come last, a first
    values = np.random.default_rng(0).standard_normal((40, 4))
    values[:, 0], values[:, 2] = 1.0, 2.0
    path, out = tmp_path / "t.csv", tmp_path / "scores.csv"
    path.write_text("a,b,c,d\n" + "".join(",".join(map(repr, row)) + "\n"
                                          for row in values.tolist()))
    assert main(["score", "--method", "ls", "--input", str(path), "--output", str(out)]) == 0
    rows = _read_rows(out)
    assert [r["feature"] for r in rows] == ["a", "b", "c", "d"]
    b, d = (float(rows[j]["score"]) for j in (1, 3))
    assert b != d and [int(r["rank"]) for r in rows] == [3, 1 + (b > d), 4, 1 + (d > b)]


def test_score_default_output_name(labeled_csv):
    code = main(["score", "--method", "ls", "--input", str(labeled_csv)])
    assert code == 0
    assert (labeled_csv.parent / "data-scores.csv").exists()


def test_score_ls_and_mls_rank_differently_on_imbalanced_data(labeled_csv, tmp_path):
    for method in ("ls", "mls"):
        main(["score", "--method", method, "--input", str(labeled_csv),
              "--label-col", "label", "--output", str(tmp_path / f"{method}.csv")])
    ls_rows = _read_rows(tmp_path / "ls.csv")
    mls_rows = _read_rows(tmp_path / "mls.csv")
    assert [r["feature"] for r in ls_rows] == [r["feature"] for r in mls_rows]
    assert any(a["rank"] != b["rank"] for a, b in zip(ls_rows, mls_rows))


def test_score_bad_quantile_is_usage_error(labeled_csv):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--method", "mls", "--input", str(labeled_csv),
              "--quantile", "0.7"])
    assert exc.value.code == 2


def test_score_missing_file_is_data_error(capsys):
    code = main(["score", "--method", "ls", "--input", "/nonexistent/x.csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_score_rejects_unknown_method(labeled_csv):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--method", "dufs", "--input", str(labeled_csv)])
    assert exc.value.code == 2


def test_score_single_row_csv_is_data_error(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("a,b\n1,2\n")
    code = main(["score", "--method", "ls", "--input", str(path)])
    assert code == 1
    assert "at least 2 data rows" in capsys.readouterr().err


def test_score_binary_knn_too_few_rows_is_data_error(tmp_path, capsys):
    path = tmp_path / "four.csv"
    path.write_text("a,b\n1,2\n3,1\n0,5\n2,2\n")
    code = main(["score", "--method", "ls", "--kernel", "binary-knn",
                 "--n-neighbors", "5", "--input", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n_neighbors=5" in err and "n=4" in err


@pytest.mark.parametrize(
    "argv",
    [["score", "--method", "mls"],
     ["select", "--method", "dufs-mls", "--num-features", "1", "--epochs", "2"],
     # a data fault of the margin model, not a usage error
     ["validate-margin", "--label-col", "y"]],
)
def test_margin_methods_on_two_rows_are_data_errors(tmp_path, capsys, argv):
    path = tmp_path / "two.csv"
    path.write_text("a,b,y\n1,2,0\n3,1,1\n")
    code = main(argv + ["--input", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "at least 3 data rows" in err


@pytest.mark.parametrize(
    "argv",
    [["score", "--method", "ls"],
     ["score", "--method", "mls"],
     ["select", "--method", "dufs", "--num-features", "2", "--epochs", "2"]],
)
def test_values_too_large_for_distances_are_data_errors(tmp_path, capsys, argv):
    # finite values whose squared distances overflow used to give NaN scores
    path = tmp_path / "big.csv"
    values = np.random.default_rng(0).standard_normal((50, 4)) * 1e200
    np.savetxt(path, values, delimiter=",", header="a,b,c,d", comments="")
    out = tmp_path / "out.csv"
    code = main(argv + ["--input", str(path), "--no-standardize", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    # ls centres the distances over every row and names the first; mls
    # builds its kernel on the rows with margin weight only, and names the
    # first of those whose distances overflow, as a row of the file. dufs
    # checks the squares of each centred column before its first epoch, so
    # it names the first column whose squares overflow, whatever gates the
    # first draw opens
    want = {"ls": "squared distances from row 1 overflow",
            "mls": "squared distances from row 4 overflow",
            "dufs": "the dufs loss of feature 'a' overflows"}[argv[2]]
    assert err == f"error: values too large: {want}\n"
    assert not out.exists()


def test_mls_distance_overflow_names_the_file_row_past_unweighted_rows(tmp_path, capsys):
    # with k = 2, rows 3, 4, 6 and 10 sit in one margin each and carry no
    # weight; the first weighted row, and the first whose distances
    # overflow, is 11
    path = tmp_path / "big.csv"
    values = np.random.default_rng(0).standard_normal((50, 4)) * 1e200
    np.savetxt(path, values, delimiter=",", header="a,b,c,d", comments="")
    out = tmp_path / "out.csv"
    code = main(["score", "--method", "mls", "--k", "2", "--quantile", "0.2",
                 "--input", str(path), "--no-standardize", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: values too large: squared distances from row 11 overflow\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["score", "--method", "mls"],
     ["select", "--method", "dufs-mls", "--num-features", "1", "--epochs", "2"]],
)
def test_mls_numerator_overflow_names_the_feature(tmp_path, capsys, argv):
    # the distances are finite, but the squares of column a overflow; this
    # used to print RuntimeWarnings and write the score nan
    path = tmp_path / "big.csv"
    values = np.random.default_rng(0).standard_normal((50, 3))
    values[:5, 0] = 1e200
    np.savetxt(path, values, delimiter=",", header="a,b,c", comments="")
    out = tmp_path / "out.csv"
    code = main(argv + ["--input", str(path), "--no-standardize", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: values too large: the mls numerator of feature 'a' overflows\n"
    assert not out.exists()


def _scaled_normal_csv(path, scale, offset=0.0):
    values = offset + np.random.default_rng(0).standard_normal((50, 4)) * scale
    np.savetxt(path, values, delimiter=",", header="a,b,c,d", comments="")
    return path


@pytest.mark.parametrize(
    "scale, offset, part",
    # at 1e100 the squared distances (about 1e200) are finite, but the kernel
    # path of the gradient grows as x^4; it used to warn, turn the gate means
    # NaN and then blame the distances. Far from the origin the distances
    # are small, but the loss takes the offset times sums of the centred
    # values (about 1e315 at 1e150 around 1e165), and the gradient the
    # offset times their products with the centred rows; that was a
    # traceback.
    [(1e100, 0.0, "gradient"), (1e145, 1e160, "gradient"), (1e150, 1e165, "loss")],
)
def test_dufs_overflow_names_the_feature(tmp_path, capsys, scale, offset, part):
    path = _scaled_normal_csv(tmp_path / "big.csv", scale, offset)
    out = tmp_path / "out.csv"
    code = main(["select", "--method", "dufs", "--num-features", "2", "--epochs", "2",
                 "--input", str(path), "--no-standardize", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: values too large: the dufs {part} of feature 'a' overflows\n"
    assert not out.exists()


def test_dufs_ranks_a_constant_column_last(tmp_path):
    # a column held at 1e30 adds nothing to the loss; the rounding of its
    # uncentred smoothness used to rank it first (gate mean -1.27 against
    # -2.2 and below for the real features)
    values = np.column_stack([np.random.default_rng(0).standard_normal((50, 3)),
                              np.full(50, 1e30)])
    path = tmp_path / "const.csv"
    np.savetxt(path, values, delimiter=",", header="a,b,c,d", comments="")
    out = tmp_path / "out.csv"
    code = main(["select", "--method", "dufs", "--num-features", "4", "--epochs", "50",
                 "--input", str(path), "--no-standardize", "--output", str(out)])
    assert code == 0
    assert [r["feature"] for r in _read_rows(out)][-1] == "d"


@pytest.mark.parametrize("method", ["dufs", "dufs-mls"])
def test_gate_methods_reject_an_all_constant_table(tmp_path, capsys, method):
    # every column reads 1e200: the added noise is below its ulp. dufs used
    # to blame the distances, which the rounded column means made overflow
    path = _scaled_normal_csv(tmp_path / "big.csv", 1e120, offset=1e200)
    out = tmp_path / "out.csv"
    code = main(["select", "--method", method, "--num-features", "2", "--epochs", "2",
                 "--input", str(path), "--no-standardize", "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: all features are constant; nothing to score\n"
    assert not out.exists()


def test_mls_on_isolated_margin_kernel_scores_exact_zeros(tmp_path, capsys):
    # every off-diagonal weight of a margin sample underflows at this scale;
    # the expanded numerators used to leave +-1e-14 of rounding noise
    path = _scaled_normal_csv(tmp_path / "big.csv", 1e140)
    out = tmp_path / "out.csv"
    code = main(["score", "--method", "mls", "--input", str(path), "--no-standardize",
                 "--output", str(out)])
    assert code == 0
    warning = ("margin kernel has no off-diagonal weight at any weighted sample "
               "(values too large for its temperature); every varying feature scores 0")
    assert f"warning: {warning}" in capsys.readouterr().err
    rows = _read_rows(out)
    assert [float(r["score"]) for r in rows] == [0.0] * 4
    assert [r["feature"] for r in rows] == ["a", "b", "c", "d"]
    assert _manifest(out)["warnings"] == [warning]


@pytest.mark.parametrize("method", ["mls", "dufs-mls"])
@pytest.mark.parametrize(
    "scale, args, line",
    # k above d: no row is weighted; at 1e140 the margin kernel is isolated
    [(1.0, ["--k", "5"], "no sample carries margin weight; every varying feature scores 0"),
     (1e140, [], "margin kernel has no off-diagonal weight at any weighted sample "
                 "(values too large for its temperature); every varying feature scores 0")],
    ids=["no-weight", "isolated"],
)
def test_select_reports_one_margin_verdict(tmp_path, capsys, method, scale, args, line):
    # stderr, the manifest and, for dufs-mls, the trace JSON carry the line
    # that mls gives
    path = _scaled_normal_csv(tmp_path / "table.csv", scale)
    out = tmp_path / "out.csv"
    code = main(["select", "--method", method, "--num-features", "2", "--epochs", "2",
                 "--input", str(path), "--no-standardize", "--output", str(out), *args])
    assert code == 0
    assert f"warning: {line}\n" in capsys.readouterr().err
    warnings = _manifest(out)["warnings"]
    assert warnings[0] == line
    if method == "dufs-mls":
        assert json.loads((tmp_path / "out-trace.json").read_text())["warnings"] == warnings


# ------------------------------------------------------------------- select


def test_select_keeps_requested_count(labeled_csv, tmp_path):
    out = tmp_path / "sel.csv"
    code = main(
        ["select", "--method", "mls", "--num-features", "3",
         "--input", str(labeled_csv), "--label-col", "label",
         "--output", str(out)]
    )
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 3
    assert [int(r["rank"]) for r in rows] == [1, 2, 3]
    assert _manifest(out)["seed"] is None


def test_select_num_features_bounds(labeled_csv):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--method", "ls", "--num-features", "0",
              "--input", str(labeled_csv)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["select", "--method", "ls", "--num-features", "99",
              "--input", str(labeled_csv), "--label-col", "label"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    # --sign-flip, which negated the loss, is gone: every gate it trained
    # moved toward closed
    [["--epochs", "0"], ["--lr", "0"], ["--lr", "-1"], ["--sigma", "0"], ["--sign-flip"]],
)
def test_select_bad_training_flags_are_usage_errors(labeled_csv, flags):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--method", "dufs", "--num-features", "2",
              "--input", str(labeled_csv), "--label-col", "label"] + flags)
    assert exc.value.code == 2


_DUFS = ["select", "--method", "dufs", "--num-features", "2", "--epochs", "2"]


@pytest.mark.parametrize(
    "argv",
    [["score", "--method", "ls", "--bandwidth", "nan"],
     ["score", "--method", "ls", "--bandwidth", "inf"],
     ["score", "--method", "mls", "--skew-right", "nan"],
     ["score", "--method", "mls", "--skew-left", "nan"],
     _DUFS + ["--lr", "nan"],
     _DUFS + ["--lr", "inf"],
     _DUFS + ["--sigma", "nan"],
     _DUFS + ["--sigma", "inf"],
     # finite, but its reciprocal overflows
     ["score", "--method", "ls", "--bandwidth", "1e-320"],
     _DUFS + ["--sigma", "1e-320"]],
)
def test_non_finite_settings_are_usage_errors(labeled_csv, tmp_path, argv):
    # these used to exit 0 with a wrong answer (every ls score 1.0, dufs
    # scores of inf, feature order) or 1 blaming the data for an overflow
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(labeled_csv), "--label-col", "label",
                     "--output", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_allocation_failure_is_one_error_line(labeled_csv, tmp_path, capsys):
    # the loss history of 1e14 epochs is 8e14 bytes, past any address
    # space a process can reserve, so the allocation fails at once
    out = tmp_path / "out.csv"
    code = main(["select", "--method", "dufs", "--num-features", "2", "--epochs",
                 str(10**14), "--input", str(labeled_csv), "--label-col", "label",
                 "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def test_select_gate_method_writes_trace(labeled_csv, tmp_path):
    out = tmp_path / "gates.csv"
    code = main(
        ["select", "--method", "dufs", "--num-features", "4",
         "--input", str(labeled_csv), "--label-col", "label",
         "--epochs", "25", "--seed", "9", "--output", str(out)]
    )
    assert code == 0
    assert len(_read_rows(out)) == 4
    trace = json.loads((tmp_path / "gates-trace.json").read_text())
    assert len(trace["loss_history"]) == 25
    assert len(trace["mu"]) == 10
    assert len(trace["open_probabilities"]) == 10
    assert "no_margin_signal" not in trace
    manifest = _manifest(out)
    assert trace["warnings"] == manifest["warnings"]
    assert manifest["seed"] == 9
    assert str(tmp_path / "gates-trace.json") in manifest["outputs"]


def test_select_dufs_mls_runs(labeled_csv, tmp_path):
    out = tmp_path / "gm.csv"
    code = main(
        ["select", "--method", "dufs-mls", "--num-features", "5",
         "--input", str(labeled_csv), "--label-col", "label",
         "--epochs", "10", "--output", str(out)]
    )
    assert code == 0
    assert len(_read_rows(out)) == 5
    assert (tmp_path / "gm-trace.json").exists()


def test_select_dufs_mls_warns_that_gate_means_are_equal(labeled_csv, tmp_path, capsys):
    # the margin loss moves every fresh gate mean by the same step, so the
    # trained ranking carries no information beyond feature order
    out = tmp_path / "gm.csv"
    code = main(
        ["select", "--method", "dufs-mls", "--num-features", "3",
         "--input", str(labeled_csv), "--label-col", "label",
         "--epochs", "10", "--output", str(out)]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "warning: all gate means are equal; the selection is feature order" in err
    assert [r["feature"] for r in _read_rows(out)] == ["f00", "f01", "f02"]
    assert _manifest(out)["warnings"] == [
        "all gate means are equal; the selection is feature order"
    ]


def test_select_dufs_mls_writes_its_warnings_to_the_trace(labeled_csv, tmp_path, capsys):
    # the trace JSON carried the loss history and the gate means, but not
    # the warning that the gates had closed, which only stderr and the
    # manifest got
    out = tmp_path / "gm.csv"
    code = main(
        ["select", "--method", "dufs-mls", "--num-features", "3",
         "--input", str(labeled_csv), "--label-col", "label",
         "--epochs", "10", "--lr", "0.1", "--output", str(out)]
    )
    assert code == 0
    warnings = [
        "all gate means are equal; the selection is feature order",
        "two or more gates are saturated closed, past the clamp by 2 sigma;"
        " the order among them is noise",
    ]
    assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in warnings]
    trace = json.loads((tmp_path / "gm-trace.json").read_text(encoding="utf-8"))
    assert max(trace["mu"]) < -1.5
    assert trace["warnings"] == _manifest(out)["warnings"] == warnings


# -------------------------------------------------------------------- synth


def test_synth_output_loads_back(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(
        ["synth", "--setup", "3", "--rho", "0.95", "--n", "40", "--seed", "1",
         "--output", str(out)]
    )
    assert code == 0
    ds = load_csv(out, label_column="label")
    assert ds.n_samples == 40
    assert ds.n_features == 100
    assert int(ds.labels.sum()) == 2
    manifest = _manifest(out)
    assert manifest["seed"] == 1
    assert manifest["marginal_columns"] == ["f05", "f06", "f07", "f08", "f09"]
    assert "40 rows, 100 features, 2 positives" in capsys.readouterr().out


def test_synth_noisy_pads_features(tmp_path):
    out = tmp_path / "noisy.csv"
    code = main(
        ["synth", "--setup", "1", "--rho", "0.9", "--n", "30", "--seed", "2",
         "--noisy", "--output", str(out)]
    )
    assert code == 0
    ds = load_csv(out, label_column="label")
    assert ds.n_features == 309


def test_noisy_synth_methods_pick_the_correlated_block(tmp_path):
    # the added 10-wide block shares one factor of variance about
    # 1 + 9 * 0.9 = 9.1 against 1 for any other direction, so it dominates
    # the sample graph and both scores rank its columns first
    for seed in ("1", "2"):
        data = tmp_path / f"noisy{seed}.csv"
        main(["synth", "--setup", "1", "--rho", "0.95", "--n", "500",
              "--seed", seed, "--noisy", "--output", str(data)])
        for method in ("ls", "mls"):
            out = tmp_path / f"{method}{seed}.csv"
            code = main(["select", "--method", method, "--num-features", "5",
                         "--input", str(data), "--label-col", "label",
                         "--output", str(out)])
            assert code == 0
            picked = [r["feature"] for r in _read_rows(out)]
            assert all(name.startswith("added_corr_") for name in picked), picked


def test_synth_validates_rho(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--setup", "1", "--rho", "1.5",
              "--output", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_synth_draw_without_a_positive_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--setup", "1", "--rho", "0.99", "--n", "20",
              "--output", str(out)])
    assert exc.value.code == 2
    assert "plant 0 positive samples of 20" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------- validate-margin


def test_validate_margin_table_and_csv(labeled_csv, tmp_path, capsys):
    out = tmp_path / "ks.csv"
    code = main(
        ["validate-margin", "--input", str(labeled_csv), "--label-col", "label",
         "--quantiles", "0.05,0.1,0.2", "--output", str(out)]
    )
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 3
    assert [float(r["quantile"]) for r in rows] == [0.05, 0.1, 0.2]
    assert sum(int(r["is_max"]) for r in rows) == 1
    for r in rows:
        assert 0.0 <= float(r["ks_distance"]) <= 1.0
        assert 0.0 <= float(r["p_value"]) <= 1.0
    console = capsys.readouterr().out
    assert "<- max D" in console


def test_validate_margin_dump_margins(labeled_csv, tmp_path):
    dump = tmp_path / "margins.csv"
    code = main(
        ["validate-margin", "--input", str(labeled_csv), "--label-col", "label",
         "--quantiles", "0.05", "--output", str(tmp_path / "ks.csv"),
         "--dump-margins", str(dump)]
    )
    assert code == 0
    rows = _read_rows(dump)
    assert list(rows[0]) == ["sample_index", "margin_count", "weight", "in_dataset_margin"]
    # the margin model of the standardized input at the default --quantile
    scaled, _ = standardize(load_csv(labeled_csv, label_column="label"))
    model = build_margin_model(scaled, MarginConfig())
    assert [int(r["sample_index"]) for r in rows] == list(range(60))
    assert [int(r["margin_count"]) for r in rows] == model.counts.tolist()
    assert [float(r["weight"]) for r in rows] == model.u.tolist()
    flags = [r["in_dataset_margin"] for r in rows]
    assert flags == [str(int(u > 0.0)) for u in model.u.tolist()]
    assert {"0", "1"} <= set(flags)


@pytest.mark.parametrize("argv, flag", [
    (["score", "--method", "mls", "--output", "{same}"], "--output"),
    (["select", "--method", "ls", "--num-features", "2", "--output", "{same}"],
     "--output"),
    (["validate-margin", "--label-col", "label", "--output", "{same}"], "--output"),
    (["validate-margin", "--label-col", "label", "--quantiles", "0.1",
      "--output", "{other}", "--dump-margins", "{same}"], "--dump-margins"),
])
def test_a_command_may_not_write_over_its_input(labeled_csv, monkeypatch, capsys,
                                                argv, flag):
    # select --output d.csv over --input d.csv replaced the table with the
    # selection, and its manifest recorded the selection's hash as the input's
    monkeypatch.chdir(labeled_csv.parent)
    before = labeled_csv.read_bytes()
    # the same file by another spelling of its path
    same = str(Path("sub", "..", labeled_csv.name))
    (labeled_csv.parent / "sub").mkdir()
    argv = [a.format(same=same, other="ks.csv") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--input", str(labeled_csv)] + argv[1:])
    assert exc.value.code == 2
    assert f"{flag} {same} would write over --input" in capsys.readouterr().err
    assert labeled_csv.read_bytes() == before
    assert sorted(p.name for p in labeled_csv.parent.iterdir()) == [
        "data.csv", "data.csv.manifest.json", "sub"]


@pytest.mark.parametrize("output, dump, taken", [
    (["--output", "ks.csv"], "sub/../ks.csv", "the table ks.csv"),
    ([], "data-margin-ks.csv", "the table "),
    (["--output", "ks.csv"], "ks.csv.manifest.json", "the manifest ks.csv.manifest.json"),
    ([], "data-margin-ks.csv.manifest.json", "the manifest "),
])
def test_validate_margin_dump_may_not_write_over_its_table(labeled_csv, monkeypatch,
                                                           capsys, output, dump, taken):
    # --output same.csv --dump-margins same.csv exited 0 with only the dump
    # in same.csv, and the manifest listed it twice
    monkeypatch.chdir(labeled_csv.parent)
    (labeled_csv.parent / "sub").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["validate-margin", "--input", str(labeled_csv), "--label-col", "label",
              "--quantiles", "0.1", "--dump-margins", dump] + output)
    assert exc.value.code == 2
    assert f"--dump-margins {dump} would write over {taken}" in capsys.readouterr().err
    assert sorted(p.name for p in labeled_csv.parent.iterdir()) == [
        "data.csv", "data.csv.manifest.json", "sub"]


@pytest.mark.parametrize("command, source, output", [
    (["select", "--method", "dufs", "--epochs", "2", "--num-features", "2"],
     "x-trace.json", "the output x-trace.json"),
    (["select", "--method", "dufs-mls", "--epochs", "2", "--num-features", "2"],
     "x-trace.json", "the output x-trace.json"),
    (["score", "--method", "mls"], "x.csv.manifest.json",
     "the manifest x.csv.manifest.json"),
], ids=["dufs-trace", "dufs-mls-trace", "score-manifest"])
def test_a_derived_output_may_not_write_over_its_input(labeled_csv, monkeypatch, capsys,
                                                       command, source, output):
    # select --output x.csv writes its trace to x-trace.json, and every
    # command its manifest to x.csv.manifest.json; an input of either name
    # was read, then replaced, with exit 0
    monkeypatch.chdir(labeled_csv.parent)
    source = labeled_csv.rename(source)
    before = source.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(command + ["--input", source.name, "--label-col", "label",
                        "--output", "x.csv"])
    assert exc.value.code == 2
    assert f"{output} would write over --input" in capsys.readouterr().err
    assert source.read_bytes() == before
    assert sorted(p.name for p in source.parent.iterdir()) == sorted(
        ["data.csv.manifest.json", source.name])


@pytest.mark.parametrize("command", [
    ["score", "--method", "mls"],
    ["select", "--method", "ls", "--num-features", "1"],
    ["validate-margin"],
], ids=["score", "select", "validate-margin"])
def test_a_label_column_not_in_the_header_is_a_usage_error(labeled_csv, tmp_path,
                                                           capsys, command):
    # score and select reported it as a data error, exit 1, and
    # validate-margin as a usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(command + ["--input", str(labeled_csv), "--label-col", "nope",
                        "--output", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"mlscore {command[0]}: error: label column 'nope' not found in input" in err
    assert not (tmp_path / "out.csv").exists()


def test_validate_margin_needs_label_column(labeled_csv):
    with pytest.raises(SystemExit) as exc:
        main(["validate-margin", "--input", str(labeled_csv), "--label-col", "y"])
    assert exc.value.code == 2


def test_validate_margin_single_class_is_data_error(tmp_path, capsys):
    # the flags are fine and the labels are not, so it is a data error
    path = tmp_path / "flat.csv"
    path.write_text("a,b,label\n1,2,0\n3,4,0\n5,6,0\n")
    code = main(["validate-margin", "--input", str(path), "--label-col", "label"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: need both classes for the separation test\n"
    assert not (tmp_path / "flat-margin-ks.csv").exists()


@pytest.mark.parametrize("command", [
    ["select", "--method", "dufs", "--num-features", "2", "--epochs", "2",
     "--input", "{data}", "--label-col", "label"],
    ["synth", "--setup", "1", "--rho", "0.9", "--n", "60"],
    ["bench", "--reps", "1", "--setups", "1", "--rhos", "0.9", "--n", "60",
     "--methods", "mls"],
], ids=["select", "synth", "bench"])
def test_a_negative_seed_is_a_usage_error(labeled_csv, tmp_path, monkeypatch, capsys,
                                          command):
    # refused before anything is drawn or written, not by numpy's traceback
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    argv = [arg.replace("{data}", str(labeled_csv)) for arg in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "--output", "out"])
    assert exc.value.code == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_validate_margin_missing_file_is_data_error(capsys):
    code = main(["validate-margin", "--input", "/nonexistent/x.csv",
                 "--label-col", "label"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["score", "--method", "ls"],
    ["select", "--method", "mls", "--num-features", "1"],
    ["validate-margin", "--label-col", "label"],
])
def test_bytes_not_utf8_are_a_data_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,caf\u00e9,label\n1,2,0\n3,4,1\n5,6,0\n".encode("latin-1"))
    code = main(command + ["--input", str(path), "--output", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: header: bytes that are not UTF-8 (")


def test_validate_margin_header_cell_over_field_limit_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(f"a,{'b' * 140001},label\n1,2,0\n3,4,1\n")
    code = main(["validate-margin", "--input", str(path), "--label-col", "label"])
    assert code == 1
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == (
        f"error: {path}: header: field larger than field limit ({limit})\n")


def test_validate_margin_bad_quantile_list(labeled_csv):
    with pytest.raises(SystemExit) as exc:
        main(["validate-margin", "--input", str(labeled_csv),
              "--label-col", "label", "--quantiles", "0.05,0.9"])
    assert exc.value.code == 2


# ------------------------------------------------------- inputs and manifest

_READ_COMMANDS = [
    ["score", "--method", "mls", "--label-col", "label"],
    ["select", "--method", "ls", "--num-features", "2", "--label-col", "label"],
    ["validate-margin", "--label-col", "label", "--quantiles", "0.1"],
]
needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@needs_dev_fd
@pytest.mark.parametrize("command", _READ_COMMANDS)
def test_a_pipe_input_records_the_sha256_of_its_bytes(labeled_csv, tmp_path, command):
    # the digest was taken by opening the path again after the run, which
    # for a pipe read no bytes and recorded the sha256 of nothing
    data = labeled_csv.read_bytes()
    out = tmp_path / "out.csv"
    r, w = os.pipe()
    with os.fdopen(w, "wb") as sink:
        sink.write(data)
    try:
        source = f"/dev/fd/{r}"
        assert main(command + ["--input", source, "--output", str(out)]) == 0
    finally:
        os.close(r)
    assert _manifest(out)["inputs"] == {source: hashlib.sha256(data).hexdigest()}


@needs_dev_fd
@pytest.mark.parametrize("command", _READ_COMMANDS)
def test_a_pipe_input_without_output_is_a_usage_error(tmp_path, capsys, command):
    # the default output is named after the input, /dev/fd/N-scores.csv
    data = b"a,b,label\n1,2,0\n3,4,1\n5,6,0\n"
    r, w = os.pipe()
    with os.fdopen(w, "wb") as sink:
        sink.write(data)
    try:
        with pytest.raises(SystemExit) as exc:
            main(command + ["--input", f"/dev/fd/{r}"])
        # refused before anything was read
        assert os.read(r, 1 << 10) == data
    finally:
        os.close(r)
    assert exc.value.code == 2
    assert "--output is required when --input is not a regular file" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_input_is_read_once(labeled_csv, tmp_path):
    # a second open of a FIFO waits for a writer that never comes: the
    # command used to block after writing its scores, before its manifest
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    data = labeled_csv.read_bytes()

    def feed():
        with open(fifo, "wb") as sink:  # waits for the command to open it
            sink.write(data)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    out = tmp_path / "scores.csv"
    argv = [sys.executable, "-m", "mlscore.cli", "score", "--method", "mls",
            "--input", str(fifo), "--label-col", "label", "--output", str(out)]
    result = subprocess.run(argv, env=_cli_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    feeder.join(10)
    assert not feeder.is_alive()
    assert _manifest(out)["inputs"] == {str(fifo): hashlib.sha256(data).hexdigest()}


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    # the outputs were opened in the locale's encoding, so under an ASCII
    # locale a header cell "a\xe9" ended score in a UnicodeEncodeError
    # traceback and left a half-written scores CSV
    rng = np.random.default_rng(5)
    table = "a\xe9,b,c\n" + "".join(f"{x!r},{y!r},{z!r}\n"
                                     for x, y, z in rng.standard_normal((20, 3)).tolist())
    locales = {"default": {},
               "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}}
    written = {}
    for name, settings in locales.items():
        run = tmp_path / name
        run.mkdir()
        (run / "in.csv").write_text(table, encoding="utf-8")
        argv = [sys.executable, "-m", "mlscore.cli", "score", "--method", "mls",
                "--input", "in.csv", "--output", "scores.csv"]
        result = subprocess.run(argv, cwd=run, env=_cli_env(**settings),
                                capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        manifest = _manifest(run / "scores.csv")
        del manifest["timestamp"]
        written[name] = ((run / "scores.csv").read_bytes(), manifest)
    assert "a\xe9,".encode("utf-8") in written["ascii"][0]
    assert written["ascii"] == written["default"]


def test_manifest_records_blas_thread_settings(labeled_csv, tmp_path, monkeypatch):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "scores.csv"
    argv = ["score", "--method", "ls", "--input", str(labeled_csv), "--output", str(out)]
    assert main(argv) == 0
    assert _manifest(out)["blas_threads"] == {
        "MKL_NUM_THREADS": None, "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1"}


# -------------------------------------------------------------------- bench


def test_bench_writes_summary_and_reps(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["bench", "--reps", "2", "--setups", "1", "--rhos", "0.9",
         "--methods", "mls,ls", "--seed", "1", "--output", "grid"]
    )
    assert code == 0
    summary = _read_rows(tmp_path / "grid-summary.csv")
    assert len(summary) == 2
    assert {r["method"] for r in summary} == {"mls", "ls"}
    reps = _read_rows(tmp_path / "grid-reps.csv")
    assert len(reps) == 4
    console = capsys.readouterr().out
    assert "setup" in console and "+-" in console
    manifest = json.loads((tmp_path / "grid-summary.csv.manifest.json").read_text())
    assert manifest["command"] == "bench"


def test_bench_validates_lists(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "1", "--setups", "1,7", "--rhos", "0.9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "1", "--rhos", "0.9,2.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "1", "--methods", "pca"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "0"])
    assert exc.value.code == 2
    # the default margin quantile is 1 - rho, which must stay below 0.5
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "1", "--rhos", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "1", "--epochs", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "1", "--n", "19"])
    assert exc.value.code == 2


def test_bench_checks_the_class_sizes_of_every_rho(tmp_path, monkeypatch, capsys):
    # at n = 100, rho 0.999 plants no positive; only the first rho was
    # checked, and the grid reported recoveries for that signal-free cell
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "1", "--setups", "1", "--rhos", "0.9,0.999",
              "--n", "100"])
    assert exc.value.code == 2
    assert "rho=0.999 plant 0 positive samples" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--k", "50"], ["--skew-right", "0.4"],
                                   ["--skew-left", "-0.4"]])
def test_bench_margin_flags_need_a_quantile(tmp_path, monkeypatch, capsys, flags):
    # without --quantile each cell builds its own margin config, and --k 50
    # was ignored: mls recovered 100%, the k = 1 result
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--reps", "1", "--setups", "1", "--rhos", "0.9", "--n", "200"]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    assert f"--quantile is required with {flags[0]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # with --quantile the flag applies and the unset ones take MarginConfig's
    # values; the manifest records null for an unset flag
    configs = []
    run = cli.run_recovery_benchmark
    monkeypatch.setattr(cli, "run_recovery_benchmark",
                        lambda **kw: configs.append(kw["margin_config"]) or run(**kw))
    assert main(argv + ["--methods", "mls", "--quantile", "0.1"] + flags) == 0
    name = flags[0][2:].replace("-", "_")
    value = type(getattr(MarginConfig(), name))(flags[1])
    assert configs == [replace(MarginConfig(quantile=0.1), **{name: value})]
    params = json.loads(Path("bench-summary.csv.manifest.json").read_text())["params"]
    assert {key: params[key] for key in ("k", "skew_right", "skew_left")} == {
        key: value if key == name else None for key in ("k", "skew_right", "skew_left")}


@pytest.mark.parametrize(
    "flags",
    # every entry is stripped of spaces, whatever type it parses to
    [["--methods", "mls,mls"], ["--setups", "1,1"], ["--rhos", "0.9,0.90"],
     ["--methods", "mls, mls"], ["--setups", "1, 1"]],
)
def test_bench_rejects_repeated_list_entries(tmp_path, monkeypatch, capsys, flags):
    # a repeated entry ran each of its cells twice and wrote 2 reps per
    # cell, twice over, under reps = 1
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--reps", "1", "--n", "30", "--output", "g"] + flags)
    assert exc.value.code == 2
    assert f"repeated entry in {flags[0][2:-1]} list" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_validate_margin_quantile_list_errors(labeled_csv, capsys):
    for text, message in [("0.05,0.05", "repeated entry in quantile list"),
                          ("0.05,x", "could not parse quantile list '0.05,x'"),
                          (",", "empty quantile list")]:
        with pytest.raises(SystemExit) as exc:
            main(["validate-margin", "--input", str(labeled_csv),
                  "--label-col", "label", "--quantiles", text])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("0.05,x", "could not parse quantile list '0.05,x'"),
    ("0.05,0.1,0.05", "repeated entry in quantile list"),
    ("0.05,0.1,0.2,0.3,0.9", "quantile must be in (0, 0.5), got 0.9"),
])
def test_validate_margin_reports_a_bad_quantile_list_before_reading_its_input(
        labeled_csv, tmp_path, monkeypatch, capsys, text, message):
    # the whole table was read and parsed before the list was looked at
    def load_csv(*args, **kwargs):
        pytest.fail("validate-margin read its input")

    monkeypatch.setattr(cli, "load_csv", load_csv)
    with pytest.raises(SystemExit) as exc:
        main(["validate-margin", "--input", str(labeled_csv), "--label-col", "label",
              "--quantiles", text, "--output", str(tmp_path / "ks.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ks.csv").exists()


def test_bench_matches_recovery_benchmark(tmp_path, capsys, monkeypatch):
    # at seed 1 the dufs accuracy reads 80 here, but 60 with n = 1000 or
    # with 500 epochs, so a dropped --n or --epochs shows
    monkeypatch.chdir(tmp_path)
    code = main(
        ["bench", "--n", "60", "--epochs", "2", "--methods", "dufs, dufs-mls",
         "--reps", "1", "--setups", "1", "--rhos", "0.9", "--seed", "1",
         "--output", "g"]
    )
    assert code == 0
    cells = run_recovery_benchmark(
        setups=(1,), rhos=(0.9,), reps=1, methods=("dufs", "dufs-mls"), seed=1,
        n_samples=60, train_config=TrainConfig(epochs=2),
    )
    expected = [(c.method, v) for c in cells for v in c.per_rep]
    written = [(r["method"], float(r["accuracy"]))
               for r in _read_rows(tmp_path / "g-reps.csv")]
    assert written == expected
    manifest = _manifest(tmp_path / "g-summary.csv")
    assert manifest["params"]["n"] == 60
    assert manifest["params"]["epochs"] == 2
    # the reason dufs-mls scores feature order reaches stderr and the manifest
    line = ("setup 1 rho 0.9 dufs-mls: all gate means are equal;"
            " the selection is feature order")
    assert capsys.readouterr().err == f"warning: {line}\n"
    assert manifest["warnings"] == [line]


def test_bench_fixed_quantile_flows_through(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["bench", "--reps", "1", "--setups", "1", "--rhos", "0.9",
         "--methods", "mls", "--quantile", "0.1", "--output", "fx"]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "fx-summary.csv.manifest.json").read_text())
    assert manifest["params"]["quantile"] == 0.1


# ------------------------------------------------------------------ general


@pytest.mark.parametrize("argv", [
    # a bad setting, turned into a usage error after parsing
    ["score", "--method", "mls", "--input", "{csv}", "--quantile", "0.7"],
    # found once the table is read
    ["select", "--method", "ls", "--num-features", "99", "--input", "{csv}",
     "--label-col", "label", "--output", "top.csv"],
    ["bench", "--reps", "1", "--n", "5"],
    ["validate-margin", "--input", "{csv}", "--label-col", "label",
     "--output", "{csv}"],
])
def test_usage_errors_print_the_usage_of_their_command(labeled_csv, monkeypatch, capsys,
                                                       argv):
    monkeypatch.chdir(labeled_csv.parent)
    with pytest.raises(SystemExit) as exc:
        main([a.format(csv=labeled_csv) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: mlscore {argv[0]} [-h]")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
