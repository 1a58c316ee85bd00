from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import kolmogorov

from mlscore.data import DataError, Dataset, standardize
from mlscore.evaluation import (
    _kolmogorov_sf,
    bench_margin_config,
    ks_statistic,
    margin_weight_separation,
    run_recovery_benchmark,
    score_dataset,
    selection_accuracy,
)
from mlscore.gates import TrainConfig
from mlscore.margins import MarginConfig
from mlscore.scores import select_top
from mlscore.synth import SynthSpec, gen_setup
from oracles import traced_peak, wide_table


# ------------------------------------------------------- selection_accuracy


def test_selection_accuracy_values():
    assert selection_accuracy([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]) == 1.0
    assert selection_accuracy([5, 6], [0, 1]) == 0.0
    assert selection_accuracy([0, 1, 2, 8, 9], [0, 1, 2, 3, 4]) == 0.6


def test_selection_accuracy_normalizes_by_smaller_set():
    assert selection_accuracy([0, 1, 2], [0, 1, 2, 3, 4]) == 1.0
    assert selection_accuracy([0, 1, 2, 3, 4], [0, 1]) == 1.0


def test_selection_accuracy_order_free():
    assert selection_accuracy([4, 2, 0], [0, 2, 4]) == 1.0


def test_selection_accuracy_errors():
    with pytest.raises(ValueError, match="truth"):
        selection_accuracy([1], [])
    with pytest.raises(ValueError, match="selected"):
        selection_accuracy([], [1])


# ------------------------------------------------------------- ks_statistic


def test_ks_identical_samples():
    d, p = ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert d == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    d, p = ks_statistic([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    assert d == 1.0
    assert p < 0.2


def test_ks_hand_value():
    d, _ = ks_statistic([1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0])
    assert d == 0.5


def test_ks_errors():
    with pytest.raises(ValueError, match="non-empty"):
        ks_statistic([], [1.0])
    with pytest.raises(ValueError, match="finite"):
        ks_statistic([np.nan], [1.0])


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
)
def test_ks_symmetric_and_bounded(a, b):
    d_ab, p_ab = ks_statistic(a, b)
    d_ba, p_ba = ks_statistic(b, a)
    assert d_ab == d_ba
    assert p_ab == p_ba
    assert 0.0 <= d_ab <= 1.0
    assert 0.0 <= p_ab <= 1.0


def test_kolmogorov_series_match_scipy():
    # y < 1 takes the series in exp(-(2k - 1)^2 pi^2 / (8 y^2)), y >= 1 the
    # alternating one in exp(-2 k^2 y^2); both meet at y = 1
    y = np.concatenate([np.geomspace(1e-3, 19.0, 4001), np.linspace(0.95, 1.05, 201),
                        [np.nextafter(1.0, 0.0), 1.0]])
    got = np.array([_kolmogorov_sf(float(v)) for v in y])
    want = kolmogorov(y)
    assert (want > 0.0).all()
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    assert _kolmogorov_sf(0.0) == 1.0 and _kolmogorov_sf(-1.0) == 1.0


def test_ks_p_value_is_kolmogorov_at_scaled_statistic(rng):
    a, b = rng.standard_normal(30), rng.standard_normal(45) + 0.4
    d, p = ks_statistic(a, b)
    want = float(kolmogorov(np.sqrt(30 * 45 / 75) * d))
    assert abs(p - want) <= 1e-13 * want


def test_ks_invariant_under_monotone_transform(rng):
    a = rng.standard_normal(25)
    b = rng.standard_normal(40) + 0.5
    d0, _ = ks_statistic(a, b)
    d1, _ = ks_statistic(np.exp(a), np.exp(b))
    assert d0 == d1


# ------------------------------------------------- margin_weight_separation


def test_separation_requires_labels(rng):
    ds = Dataset(values=rng.standard_normal((10, 2)), feature_names=["a", "b"])
    with pytest.raises(ValueError, match="labels"):
        margin_weight_separation(ds, MarginConfig(), quantiles=[0.05])


def test_separation_requires_both_classes(rng):
    ds = Dataset(
        values=rng.standard_normal((10, 2)),
        feature_names=["a", "b"],
        labels=np.ones(10, dtype=int),
    )
    with pytest.raises(ValueError, match="both classes"):
        margin_weight_separation(ds, MarginConfig(), quantiles=[0.05])


def test_separation_detects_planted_structure():
    drawn = gen_setup(SynthSpec(setup=1, rho=0.9, n_samples=1000, seed=11))
    rows = margin_weight_separation(
        drawn.dataset, MarginConfig(), quantiles=[0.025, 0.05, 0.1]
    )
    assert [q for q, _, _ in rows] == [0.025, 0.05, 0.1]
    for _, d, p in rows:
        assert d > 0.3
        assert p < 0.01


def test_separation_vanishes_under_shuffled_labels():
    drawn = gen_setup(SynthSpec(setup=1, rho=0.9, n_samples=1000, seed=11))
    rng = np.random.default_rng(17)
    shuffled = Dataset(
        values=drawn.dataset.values,
        feature_names=drawn.dataset.feature_names,
        labels=rng.permutation(drawn.dataset.labels),
    )
    [(_, d, p)] = margin_weight_separation(shuffled, MarginConfig(), quantiles=[0.05])
    assert p > 0.05


# ------------------------------------------------------ recovery benchmark


def test_bench_margin_config_policy():
    cfg = bench_margin_config(0.95)
    assert abs(cfg.quantile - 0.05) < 1e-12
    assert cfg.skew_right == 0.25


def test_recovery_benchmark_smoke():
    cells = run_recovery_benchmark(
        setups=(1,), rhos=(0.9,), reps=3, methods=("mls", "ls"), seed=1, n_samples=200
    )
    assert len(cells) == 2
    for cell in cells:
        assert cell.setup == 1
        assert cell.rho == 0.9
        assert cell.repetitions == 3
        assert len(cell.per_rep) == 3
        assert 0.0 <= cell.mean <= 100.0
        assert cell.std >= 0.0
        assert abs(cell.mean - np.mean(cell.per_rep)) < 1e-9


def test_recovery_benchmark_deterministic():
    kwargs = dict(setups=(2,), rhos=(0.95,), reps=2, methods=("mls",), seed=3, n_samples=150)
    a = run_recovery_benchmark(**kwargs)
    b = run_recovery_benchmark(**kwargs)
    assert a[0].per_rep == b[0].per_rep
    c = run_recovery_benchmark(**{**kwargs, "seed": 4})
    assert a[0].per_rep != c[0].per_rep or a[0].mean == c[0].mean


def test_recovery_benchmark_keeps_each_cells_distinct_warnings():
    cells = run_recovery_benchmark(
        setups=(1,), rhos=(0.9,), reps=2, methods=("mls", "dufs-mls"), seed=1,
        n_samples=60, train_config=TrainConfig(epochs=2),
    )
    warnings = {cell.method: cell.warnings for cell in cells}
    assert warnings == {
        "mls": [],
        "dufs-mls": ["all gate means are equal; the selection is feature order"],
    }


def test_score_dataset_dufs_mls_warns_that_gate_means_are_equal():
    ds = gen_setup(SynthSpec(setup=1, rho=0.9, n_samples=60, seed=2)).dataset
    report, trace = score_dataset(ds, "dufs-mls", train_config=TrainConfig(epochs=3))
    assert len(trace.loss_history) == 3
    assert np.array_equal(report.scores, trace.mu)
    assert "all gate means are equal; the selection is feature order" in report.warnings


_SATURATED = ("two or more gates are saturated {}, past the clamp by 2 sigma;"
              " the order among them is noise")


def _standardized_setup_1():
    ds = gen_setup(SynthSpec(setup=1, rho=0.95, n_samples=300, seed=1)).dataset
    return standardize(ds)[0]


def test_score_dataset_warns_when_gates_saturate_open():
    # every dufs gate opens on this draw, slowly: at lr 0.01, 200 epochs
    # take only gate 1 past 0.5 + mu = 1 + 2 sigma, too few to warn, and
    # 250 take gates 1 and 6 past it
    ds = _standardized_setup_1()
    config = TrainConfig(epochs=250, learning_rate=0.01)
    report, trace = score_dataset(ds, "dufs", train_config=config)
    assert np.flatnonzero(0.5 + trace.mu > 2.0).tolist() == [1, 6]
    assert report.warnings == [_SATURATED.format("open")]
    report, trace = score_dataset(ds, "dufs", train_config=replace(config, epochs=200))
    assert np.flatnonzero(0.5 + trace.mu > 2.0).tolist() == [1]
    assert report.warnings == []


def test_score_dataset_warns_when_gates_saturate_closed():
    # dufs-mls closes every gate in lockstep: at the default lr 36 epochs
    # take them past -2 sigma, and after 35 they sit at 0.5 + mu = -0.94
    ds = _standardized_setup_1()
    equal = "all gate means are equal; the selection is feature order"
    report, trace = score_dataset(ds, "dufs-mls", train_config=TrainConfig(epochs=36))
    assert (0.5 + trace.mu < -1.0).all()
    assert report.warnings == [equal, _SATURATED.format("closed")]
    report, trace = score_dataset(ds, "dufs-mls", train_config=TrainConfig(epochs=35))
    assert (0.5 + trace.mu > -1.0).all()
    assert report.warnings == [equal]


@pytest.mark.parametrize("d, warned", [(2, False), (3, True)], ids=["one-varies", "two-vary"])
def test_score_dataset_gate_warnings_read_the_varying_columns_only(d, warned):
    # a is constant and ranks last at -inf whatever its gate mean, which
    # moves in lockstep with the others: with b alone varying, the
    # selection [b, a] is not feature order and no two gates can be
    # saturated together, yet a's mean used to raise both warnings
    values = np.column_stack(
        [np.full(200, 3.0), np.random.default_rng(0).standard_normal((200, d - 1))])
    report, trace = score_dataset(_lettered(values), "dufs-mls",
                                  train_config=TrainConfig(epochs=20))
    assert select_top(report, d)[-1] == 0
    assert np.ptp(trace.mu) == 0 and (0.5 + trace.mu < -1.0).all()
    equal = "all gate means are equal; the selection is feature order"
    assert report.warnings == ([equal, _SATURATED.format("closed")] if warned else [])


@pytest.mark.parametrize("method", ["dufs", "dufs-mls"])
def test_score_dataset_gate_methods_reject_all_constant_table(method):
    ds = Dataset(values=np.full((10, 2), 1e200), feature_names=["a", "b"])
    with pytest.raises(DataError, match="all features are constant; nothing to score"):
        score_dataset(ds, method, train_config=TrainConfig(epochs=2))


@pytest.mark.parametrize("method", ["dufs", "dufs-mls"])
def test_score_dataset_gate_methods_score_constant_features(method, rng):
    # a constant feature is scored with the others, not rejected, and ranks
    # last at -inf: it adds nothing to the loss. The trace keeps its mean
    X = np.column_stack([rng.standard_normal((30, 2)), np.full(30, 3.0)])
    ds = Dataset(values=X, feature_names=["a", "b", "k"])
    report, trace = score_dataset(ds, method, train_config=TrainConfig(epochs=2))
    assert np.isfinite(report.scores[:2]).all() and report.scores[2] == -np.inf
    assert np.isfinite(trace.mu).all()
    assert select_top(report, 3)[-1] == 2


def _lettered(values):
    return Dataset(values=values,
                   feature_names=[chr(ord("a") + j) for j in range(values.shape[1])])


@pytest.mark.parametrize("method", ["ls", "mls", "dufs", "dufs-mls"])
@pytest.mark.parametrize("shape, column, value", [((200, 4), 0, 3.0), ((50, 3), 1, 1e200)],
                         ids=["a-at-3", "b-at-1e200"])
def test_a_constant_column_ranks_last_under_every_method(method, shape, column, value):
    # dufs-mls moves equal gate means in lockstep, so it used to rank a
    # first, by feature order; mls and dufs-mls used to raise on b, whose
    # numerator overflows, although a constant column scores +inf whatever
    # its numerator. A gate method's trace keeps the trained mean
    values = np.random.default_rng(0).standard_normal(shape)
    values[:, column] = value
    report, trace = score_dataset(_lettered(values), method,
                                  train_config=TrainConfig(epochs=20))
    assert report.scores[column] == (np.inf if trace is None else -np.inf)
    assert select_top(report, shape[1])[-1] == column
    if trace is not None:
        assert np.isfinite(trace.mu[column])


_NO_WEIGHT = "no sample carries margin weight; every varying feature scores 0"
_ISOLATED = ("margin kernel has no off-diagonal weight at any weighted sample "
             "(values too large for its temperature); every varying feature scores 0")


@pytest.mark.parametrize(
    "values, config, line",
    # k above d: no row lies in k margins, so none is weighted; at 1e140
    # every off-diagonal weight of the margin kernel underflows
    [(np.random.default_rng(0).standard_normal((60, 4)),
      MarginConfig(quantile=0.1, k=5), _NO_WEIGHT),
     (np.random.default_rng(0).standard_normal((200, 5)) * 1e140,
      MarginConfig(), _ISOLATED)],
    ids=["no-weight", "isolated"],
)
def test_mls_and_dufs_mls_report_one_margin_verdict(values, config, line):
    ds = _lettered(values)
    mls_report, _ = score_dataset(ds, "mls", config)
    report, trace = score_dataset(ds, "dufs-mls", config,
                                  train_config=TrainConfig(epochs=2))
    assert mls_report.warnings == trace.warnings == [line]
    assert report.warnings == [line, "all gate means are equal; the selection is feature order"]


def test_mls_margin_verdict_speaks_of_the_varying_features():
    # no row is weighted (k above d), so a and c score 0, while b, held
    # constant, scores +inf: the verdict used to say the scores were all zero
    values = np.random.default_rng(0).standard_normal((60, 3))
    values[:, 1] = 5.0
    report, _ = score_dataset(_lettered(values), "mls", MarginConfig(k=4))
    assert report.scores.tolist() == [0.0, np.inf, 0.0]
    assert report.warnings == [_NO_WEIGHT]


@pytest.mark.parametrize("method", ["ls", "mls"])
def test_score_dataset_holds_one_working_copy(method):
    # beyond the 4.9 MB table, ls holds its centred rows and mls the margin
    # rows it centres in place (every row is weighted here), each 5.0 MB
    # with their norms, a 2.0 MB 128-row kernel block and a 0.5 MB buffer
    # for the block's left operand, its u_i + u_j factors and its products
    # with the features: 7.7 and 8.4 MB, mls with its margin model. One
    # more n x d array, as a separate centred copy or a margin
    # representation kept on the model, would take them to about 12.6 and
    # 13.3 MB; a 256-row block took mls to 10.6 MB.
    ds = wide_table()
    small = Dataset(values=ds.values[:50, :4], feature_names=ds.feature_names[:4])
    score_dataset(small, method)  # the first np.quantile imports numpy.ma
    report, peak = traced_peak(lambda: score_dataset(ds, method)[0])
    assert np.isfinite(report.scores).all()
    assert peak < 10e6, f"{method} peaked at {peak / 1e6:.1f} MB"


def test_score_dataset_rejects_unknown_method():
    ds = gen_setup(SynthSpec(setup=1, rho=0.9, n_samples=30)).dataset
    with pytest.raises(ValueError, match="method"):
        score_dataset(ds, "pca")


def test_recovery_benchmark_rejects_bad_reps():
    with pytest.raises(ValueError, match="reps"):
        run_recovery_benchmark(reps=0)


@pytest.mark.parametrize(
    "grid, name",
    [(dict(methods=("mls", "mls")), "methods"),
     (dict(setups=(1, 1)), "setups"),
     (dict(rhos=(0.9, 0.9)), "rhos")],
)
def test_recovery_benchmark_rejects_repeated_entries(grid, name):
    # a repeated entry ran its cells twice and wrote each twice
    with pytest.raises(ValueError, match=f"repeated entry in {name}"):
        run_recovery_benchmark(reps=1, n_samples=30, **grid)


def test_recovery_benchmark_respects_explicit_margin_config():
    fixed = MarginConfig(quantile=0.2)
    cells = run_recovery_benchmark(
        setups=(1,), rhos=(0.9,), reps=2, methods=("mls",), seed=5,
        n_samples=150, margin_config=fixed,
    )
    assert len(cells) == 1
