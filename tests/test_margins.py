import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from mlscore.data import DataError, Dataset
from mlscore.margins import (
    InteractionWeights,
    MarginConfig,
    MarginKind,
    MarginModel,
    _sq_distances,
    build_margin_model,
    classify_skew,
    export_margin_csv,
    feature_margin,
    interaction_weights,
    skewness,
    temperature,
)


def _model_from_rep(rep, t=1.0):
    rep = np.asarray(rep, dtype=float)
    counts = (rep != 0).sum(axis=1)
    return MarginModel(
        config=MarginConfig(),
        kinds=[MarginKind.TWO_SIDED] * rep.shape[1],
        cutoffs=[(None, None)] * rep.shape[1],
        membership=rep != 0,
        counts=counts,
        in_dataset_margin=counts >= 1,
        u=np.where(counts >= 1, np.log(counts + 1.0), 0.0),
        margin_rep=rep,
        t=t,
    )


# ---------------------------------------------------------------- skewness


def test_skewness_symmetric_is_zero():
    assert skewness([-1.0, 0.0, 1.0]) == 0.0


def test_skewness_hand_value():
    # mean 2.5, m2 = 18.75, m3 = 93.75 -> 93.75 / 18.75^1.5 = 2/sqrt(3)
    assert abs(skewness([0.0, 0.0, 0.0, 10.0]) - 2.0 / math.sqrt(3.0)) < 1e-12


def test_skewness_rejects_constant():
    with pytest.raises(ValueError, match="constant"):
        skewness([2.0, 2.0, 2.0])


def test_skewness_needs_three_values():
    with pytest.raises(ValueError, match="at least 3"):
        skewness([1.0, 2.0])


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=40))
def test_skewness_odd_symmetry(f):
    f = np.asarray(f)
    if f.max() == f.min() or np.var(f) == 0.0:
        return
    s = skewness(f)
    assert abs(skewness(-f) + s) <= 1e-9 * max(1.0, abs(s))


@pytest.mark.parametrize("spike", [4.7e-122, 1e200])
def test_skewness_far_from_unit_scale(spike):
    # unscaled, m2^(3/2) underflows to 0 for the tiny spike and dev^3
    # overflows for the huge one; both turned the result into NaN
    f = np.array([0.0, 0.0, spike])
    s = skewness(f)
    assert abs(s - 1.0 / math.sqrt(2.0)) < 1e-12
    assert skewness(-f) == -s


# ------------------------------------------------------------ classify_skew


def test_classify_skew_sides():
    cfg = MarginConfig()
    assert classify_skew(0.7, cfg) is MarginKind.RIGHT
    assert classify_skew(0.0, cfg) is MarginKind.TWO_SIDED
    assert classify_skew(-0.7, cfg) is MarginKind.LEFT


def test_classify_skew_boundaries_inclusive():
    cfg = MarginConfig()
    assert classify_skew(0.5, cfg) is MarginKind.RIGHT
    assert classify_skew(-0.5, cfg) is MarginKind.LEFT
    assert classify_skew(0.4999, cfg) is MarginKind.TWO_SIDED


# ----------------------------------------------------------- feature_margin


def test_feature_margin_right_top_of_range():
    f = np.arange(1.0, 101.0)
    mask, (lo, hi) = feature_margin(f, MarginKind.RIGHT, 0.05)
    assert lo is None
    assert hi == np.quantile(f, 0.95)
    assert sorted(f[mask]) == [96.0, 97.0, 98.0, 99.0, 100.0]


def test_feature_margin_left_bottom_of_range():
    f = np.arange(1.0, 101.0)
    mask, (lo, hi) = feature_margin(f, MarginKind.LEFT, 0.05)
    assert hi is None
    assert sorted(f[mask]) == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_feature_margin_two_sided_both_tails():
    f = np.arange(1.0, 101.0)
    mask, (lo, hi) = feature_margin(f, MarginKind.TWO_SIDED, 0.1)
    assert lo < hi
    assert sorted(f[mask]) == [1.0, 2.0, 3.0, 4.0, 5.0, 96.0, 97.0, 98.0, 99.0, 100.0]


def test_feature_margin_strict_at_cutoff():
    # Q(0.75) of [0..4] is exactly 3.0; the sample sitting on it stays out
    f = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    mask, (_, hi) = feature_margin(f, MarginKind.RIGHT, 0.25)
    assert hi == 3.0
    assert f[mask].tolist() == [4.0]


def test_feature_margin_constant_is_empty():
    f = np.full(10, 7.0)
    for kind in MarginKind:
        mask, _ = feature_margin(f, kind, 0.1)
        assert not mask.any()


def test_feature_margin_quantile_validation():
    with pytest.raises(ValueError, match="quantile"):
        feature_margin(np.arange(5.0), MarginKind.RIGHT, 0.6)


@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=60),
    st.sampled_from(list(MarginKind)),
    st.floats(0.02, 0.49),
    st.floats(0.02, 0.49),
)
def test_feature_margin_monotone_in_quantile(f, kind, q1, q2):
    f = np.asarray(f)
    lo_q, hi_q = min(q1, q2), max(q1, q2)
    small, _ = feature_margin(f, kind, lo_q)
    large, _ = feature_margin(f, kind, hi_q)
    assert not (small & ~large).any()


# -------------------------------------------------------------- temperature


def test_temperature_values():
    assert temperature(400) == 4.0
    assert temperature(9) == 1.0
    assert temperature(25) == 1.0  # 2*5/10 hits the floor exactly


def test_temperature_rejects_zero():
    with pytest.raises(ValueError):
        temperature(0)


# --------------------------------------------------------- build_margin_model


def _outlier_dataset():
    # row 11 is the heavy right tail of all three features
    base = np.tile(np.arange(11.0) / 100.0, (3, 1)).T
    X = np.vstack([base, [100.0, 100.0, 100.0]])
    return Dataset(values=X, feature_names=["a", "b", "c"])


def test_build_margin_model_weight_of_shared_outlier():
    ds = _outlier_dataset()
    model = build_margin_model(ds, MarginConfig(quantile=0.05))
    assert all(kind is MarginKind.RIGHT for kind in model.kinds)
    assert model.counts.tolist() == [0] * 11 + [3]
    assert model.u[:11].tolist() == [0.0] * 11
    assert abs(model.u[11] - math.log(4.0)) < 1e-12
    assert model.in_dataset_margin.tolist() == [False] * 11 + [True]
    # margin rows carry the raw values, everything else is zeroed
    assert np.array_equal(model.margin_rep[11], [100.0, 100.0, 100.0])
    assert not model.margin_rep[:11].any()


def test_build_margin_model_k_above_counts_zeroes_everything():
    ds = _outlier_dataset()
    model = build_margin_model(ds, MarginConfig(quantile=0.05, k=4))
    assert not model.in_dataset_margin.any()
    assert not model.u.any()
    assert not model.margin_rep.any()
    # membership itself is unaffected by k
    assert model.counts[11] == 3


def test_build_margin_model_constant_feature():
    X = np.column_stack([np.full(12, 3.0), np.arange(12.0)])
    ds = Dataset(values=X, feature_names=["const", "ramp"])
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    assert model.kinds[0] is MarginKind.TWO_SIDED
    assert model.cutoffs[0] == (None, None)
    assert not model.membership[:, 0].any()


def test_build_margin_model_counts_match_membership(rng):
    ds = Dataset(
        values=rng.standard_normal((40, 6)),
        feature_names=[f"f{j}" for j in range(6)],
    )
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    assert np.array_equal(model.counts, model.membership.sum(axis=1))
    assert np.array_equal(model.in_dataset_margin, model.counts >= 1)
    expect_u = np.where(model.in_dataset_margin, np.log(model.counts + 1.0), 0.0)
    assert np.array_equal(model.u, expect_u)
    masked = np.where(model.membership, ds.values, 0.0)
    masked[~model.in_dataset_margin] = 0.0
    assert np.array_equal(model.margin_rep, masked)
    assert model.t == temperature(6)


def test_build_margin_model_needs_three_rows():
    ds = Dataset(values=[[1.0, 2.0], [3.0, 1.0]], feature_names=["a", "b"])
    with pytest.raises(DataError, match="at least 3 data rows"):
        build_margin_model(ds, MarginConfig())


def test_temperature_override_wins(rng):
    ds = Dataset(values=rng.standard_normal((10, 3)), feature_names=["a", "b", "c"])
    model = build_margin_model(ds, MarginConfig(temperature_override=2.5))
    assert model.t == 2.5


def test_margin_config_validation():
    with pytest.raises(ValueError, match="quantile"):
        MarginConfig(quantile=0.5)
    with pytest.raises(ValueError, match="skew_left"):
        MarginConfig(skew_left=0.5, skew_right=0.5)
    with pytest.raises(ValueError, match="k"):
        MarginConfig(k=0)
    with pytest.raises(ValueError, match="temperature_override"):
        MarginConfig(temperature_override=0.0)


# -------------------------------------------------------------- _sq_distances


@pytest.mark.parametrize("shape", [(1, 3), (2, 1), (17, 4), (100, 300)])
def test_sq_distances_symmetric_zero_diagonal_nonnegative(rng, shape):
    X = rng.standard_normal(shape) + 1e3
    # duplicated rows: with enough columns the Gram form rounds some of
    # their zero distances below 0
    half = shape[0] // 2
    X[half : 2 * half] = X[:half]
    D, _ = _sq_distances(X)
    assert D.shape == (shape[0], shape[0])
    assert np.array_equal(D, D.T)
    assert not np.diag(D).any()
    assert (D >= 0).all()


def test_sq_distances_match_pdist_far_from_origin(rng):
    # the offset makes the uncentred Gram form lose about six digits
    X = rng.standard_normal((60, 5)) + 1e3
    D, _ = _sq_distances(X)
    ref = squareform(pdist(X, metric="sqeuclidean"))
    off = ~np.eye(60, dtype=bool)
    assert np.max(np.abs(D - ref)[off] / ref[off]) < 1e-12


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_sq_distances_closed_form_mean(rng, offset):
    X = rng.standard_normal((50, 7)) + offset
    _, mean_pair_sq = _sq_distances(X)
    triu_mean = squareform(pdist(X, metric="sqeuclidean"))[np.triu_indices(50, k=1)].mean()
    assert abs(mean_pair_sq - triu_mean) <= 1e-12 * triu_mean
    assert _sq_distances(np.ones((1, 3)))[1] == 0.0


# -------------------------------------------------------- interaction_weights


def test_interaction_weights_hand_value():
    model = _model_from_rep([[1.0, 0.0], [0.0, 0.0]], t=1.0)
    W = interaction_weights(model).weights
    assert W[0, 0] == 1.0 and W[1, 1] == 1.0
    assert abs(W[0, 1] - math.exp(-1.0)) < 1e-12
    assert W[0, 1] == W[1, 0]


def test_interaction_weights_structure(rng):
    rep = rng.standard_normal((15, 4)) * rng.integers(0, 2, (15, 4))
    model = _model_from_rep(rep, t=1.3)
    W = interaction_weights(model).weights
    assert np.array_equal(W, W.T)
    assert np.array_equal(np.diag(W), np.ones(15))
    assert (W > 0).all() and (W <= 1).all()


def test_interaction_weights_decay_with_distance():
    model = _model_from_rep([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], t=1.0)
    W = interaction_weights(model).weights
    assert W[0, 1] > W[0, 2]


def test_interaction_weights_cached():
    model = _model_from_rep([[1.0], [0.0]])
    first = interaction_weights(model)
    assert interaction_weights(model) is first


def test_interaction_weights_returns_temperature():
    model = _model_from_rep([[1.0], [0.0]], t=2.0)
    assert interaction_weights(model).t == 2.0
    assert isinstance(interaction_weights(model), InteractionWeights)


# --------------------------------------------------------------- u-monotone


@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_u_monotone_in_counts(seed, k):
    rng = np.random.default_rng(seed)
    ds = Dataset(
        values=rng.standard_normal((25, 5)),
        feature_names=[f"f{j}" for j in range(5)],
    )
    model = build_margin_model(ds, MarginConfig(quantile=0.15, k=k))
    c, u, inside = model.counts, model.u, model.in_dataset_margin
    for i in np.flatnonzero(inside):
        for j in np.flatnonzero(inside):
            if c[i] > c[j]:
                assert u[i] > u[j]


# ------------------------------------------------------------------- export


def test_export_margin_csv_round_trip(tmp_path):
    ds = _outlier_dataset()
    model = build_margin_model(ds, MarginConfig(quantile=0.05))
    path = tmp_path / "margins.csv"
    export_margin_csv(model, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert rows[11]["margin_count"] == "3"
    assert float(rows[11]["weight"]) == model.u[11]
    assert rows[0]["in_dataset_margin"] == "0"
    assert rows[11]["in_dataset_margin"] == "1"
