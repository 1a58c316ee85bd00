import csv
import json

import numpy as np
import pytest

from mlscore.cli import main
from mlscore.data import load_csv
from mlscore.evaluation import run_recovery_benchmark
from mlscore.gates import TrainConfig


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
     ["select", "--method", "dufs-mls", "--num-features", "1", "--epochs", "2"]],
)
def test_margin_methods_on_two_rows_are_data_errors(tmp_path, capsys, argv):
    path = tmp_path / "two.csv"
    path.write_text("a,b\n1,2\n3,1\n")
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
    assert err.startswith("error:")
    assert "row 1" in err
    assert not out.exists() or "nan" not in out.read_text()


def _scaled_normal_csv(path, scale, offset=0.0):
    values = offset + np.random.default_rng(0).standard_normal((50, 4)) * scale
    np.savetxt(path, values, delimiter=",", header="a,b,c,d", comments="")
    return path


@pytest.mark.parametrize(
    "scale, offset, part",
    # at 1e100 the squared distances (about 1e200) are finite, but the kernel
    # path of the gradient grows as x^4; it used to warn, turn the gate means
    # NaN and then blame the distances. Far from the origin the distances
    # are small but the squares in the loss overflow; that was a traceback.
    [(1e100, 0.0, "gradient"), (1e145, 1e160, "loss")],
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


def test_mls_on_isolated_margin_kernel_scores_exact_zeros(tmp_path, capsys):
    # every off-diagonal weight of a margin sample underflows at this scale;
    # the expanded numerators used to leave +-1e-14 of rounding noise
    path = _scaled_normal_csv(tmp_path / "big.csv", 1e140)
    out = tmp_path / "out.csv"
    code = main(["score", "--method", "mls", "--input", str(path), "--no-standardize",
                 "--output", str(out)])
    assert code == 0
    warning = ("margin kernel has no off-diagonal weight at any weighted sample "
               "(values too large for its temperature); scores are all zero")
    assert f"warning: {warning}" in capsys.readouterr().err
    rows = _read_rows(out)
    assert [float(r["score"]) for r in rows] == [0.0] * 4
    assert [r["feature"] for r in rows] == ["a", "b", "c", "d"]
    assert _manifest(out)["warnings"] == [warning]


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
    [["--epochs", "0"], ["--lr", "0"], ["--lr", "-1"], ["--sigma", "0"]],
)
def test_select_bad_training_flags_are_usage_errors(labeled_csv, flags):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--method", "dufs", "--num-features", "2",
              "--input", str(labeled_csv), "--label-col", "label"] + flags)
    assert exc.value.code == 2


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
    assert trace["no_margin_signal"] is False
    manifest = _manifest(out)
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
    assert len(rows) == 60
    assert set(rows[0]) == {"sample_index", "margin_count", "weight", "in_dataset_margin"}


def test_validate_margin_needs_label_column(labeled_csv):
    with pytest.raises(SystemExit) as exc:
        main(["validate-margin", "--input", str(labeled_csv), "--label-col", "y"])
    assert exc.value.code == 2


def test_validate_margin_single_class_is_usage_error(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("a,b,label\n1,2,0\n3,4,0\n5,6,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["validate-margin", "--input", str(path), "--label-col", "label"])
    assert exc.value.code == 2


def test_validate_margin_missing_file_is_data_error(capsys):
    code = main(["validate-margin", "--input", "/nonexistent/x.csv",
                 "--label-col", "label"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_validate_margin_bad_quantile_list(labeled_csv):
    with pytest.raises(SystemExit) as exc:
        main(["validate-margin", "--input", str(labeled_csv),
              "--label-col", "label", "--quantiles", "0.05,0.9"])
    assert exc.value.code == 2


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


def test_bench_matches_recovery_benchmark(tmp_path, capsys, monkeypatch):
    # at seed 1 the dufs accuracy reads 80 here, but 60 with n = 1000 or
    # with 500 epochs, so a dropped --n or --epochs shows
    monkeypatch.chdir(tmp_path)
    code = main(
        ["bench", "--n", "60", "--epochs", "2", "--methods", "dufs,dufs-mls",
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
