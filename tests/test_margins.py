import csv
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from mlscore import margins
from mlscore.cli import main
from mlscore.data import DataError, Dataset, save_csv, standardize
from mlscore.evaluation import BENCH_RHOS, bench_margin_config
from mlscore.margins import (
    MarginConfig,
    MarginModel,
    _centred,
    _laplacian_forms,
    _live_skewness,
    _mean_pair_sq,
    _sq_blocks,
    build_margin_model,
    temperature,
)
from mlscore.scores import _mls_terms
from mlscore.synth import SynthSpec, gen_setup
from oracles import (
    Side,
    blocking,
    build_margin_model_loop,
    feature_margin,
    kernel_blocks,
    margin_kernel_dense,
    skewness_1d,
    sq_distances_dense,
    traced_peak,
    wide_table,
)


def _model_from_rep(rep, t=1.0):
    """A model of the data rep in which every nonzero value is in its
    feature's margin, so that rep is its own margin representation."""
    rep = np.asarray(rep, dtype=float)
    counts = (rep != 0).sum(axis=1)
    return MarginModel(
        config=MarginConfig(),
        membership=rep != 0,
        counts=counts,
        u=np.where(counts >= 1, np.log(counts + 1.0), 0.0),
        t=t,
    )


# ---------------------------------------------------------------- skewness


def _skew(f) -> float:
    live, s = _live_skewness(np.asarray(f, dtype=float)[None, :])
    assert live[0] == (not math.isnan(s[0]))
    return float(s[0])


def test_skewness_symmetric_is_zero():
    assert _skew([-1.0, 0.0, 1.0]) == 0.0


def test_skewness_hand_value():
    # mean 2.5, m2 = 18.75, m3 = 93.75 -> 93.75 / 18.75^1.5 = 2/sqrt(3)
    assert abs(_skew([0.0, 0.0, 0.0, 10.0]) - 2.0 / math.sqrt(3.0)) < 1e-12


def test_skewness_of_a_row_without_variance_is_not_taken():
    # a constant row, and one that varies but whose variance underflows to
    # 0 although its scaled moments would not
    cols = np.array([[2.0, 2.0, 2.0], [0.0, 0.0, 2.0**-1074]])
    live, s = _live_skewness(cols)
    assert live.tolist() == [False, False]
    assert np.isnan(s).all()


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=40))
def test_skewness_odd_symmetry(f):
    f = np.asarray(f)
    if f.max() == f.min() or np.var(f) == 0.0:
        return
    s = _skew(f)
    assert abs(_skew(-f) + s) <= 1e-9 * max(1.0, abs(s))


@pytest.mark.parametrize("spike", [4.7e-122, 1e200])
def test_skewness_far_from_unit_scale(spike):
    # unscaled, m2^(3/2) underflows to 0 for the tiny spike and dev^3
    # overflows for the huge one; both turned the result into NaN
    f = np.array([0.0, 0.0, spike])
    s = _skew(f)
    assert abs(s - 1.0 / math.sqrt(2.0)) < 1e-12
    assert _skew(-f) == -s


def test_skewness_scales_each_column_alone():
    # one row is rescaled by a power of two, its neighbours are not
    f = np.array([0.0, 0.0, 0.0, 10.0])
    live, s = _live_skewness(np.vstack([f * 2.0**250, f, -f * 2.0**-250]))
    assert live.tolist() == [True] * 3
    assert s.tolist() == [_skew(f), _skew(f), -_skew(f)]


# ------------------------------------------------------------- margin sides
# A config forces a side whatever the skewness: skew_right = -1e308 makes
# every feature right-sided, skew_left = 1e308 left-sided, and infinite
# thresholds two-sided. The library keeps no side, so a test tells which
# tail a margin covers by comparing it with np.quantile's tails of each
# side (``feature_margin`` of the reference).

_FORCE = {
    Side.RIGHT: dict(skew_right=-1e308, skew_left=-math.inf),
    Side.LEFT: dict(skew_right=math.inf, skew_left=1e308),
    Side.TWO_SIDED: dict(skew_right=math.inf, skew_left=-math.inf),
}


def _one_feature(f, side: Side, quantile: float) -> np.ndarray:
    """Margin mask of the single feature f when its side is forced."""
    ds = Dataset(values=np.asarray(f, dtype=float)[:, None], feature_names=["f"])
    model = build_margin_model(ds, MarginConfig(quantile=quantile, **_FORCE[side]))
    return model.membership[:, 0]


def _side(f, mask, quantile: float) -> Side:
    """The one side whose tails, cut by np.quantile, make the margin mask of
    the feature f; f must tell the three sides apart."""
    tails = {side: feature_margin(f, side, quantile)[0] for side in Side}
    assert len({t.tobytes() for t in tails.values()}) == 3, "f has no distinct tails"
    (side,) = [side for side, tail in tails.items() if np.array_equal(tail, mask)]
    return side


def test_classify_skew_sides():
    f = np.exp(np.linspace(0.0, 3.0, 20))  # skewness about 1.1
    X = np.column_stack([f, np.linspace(-1.0, 1.0, 20), -f])
    ds = Dataset(values=X, feature_names=["right", "flat", "left"])
    model = build_margin_model(ds, MarginConfig(quantile=0.2))
    sides = [_side(X[:, j], model.membership[:, j], 0.2) for j in range(3)]
    assert sides == [Side.RIGHT, Side.TWO_SIDED, Side.LEFT]


def test_classify_skew_boundaries_inclusive():
    f = np.array([0.0, 1.0, 1.0, 2.0, 9.0])
    s = skewness_1d(f)
    assert s == _skew(f)
    ds = Dataset(values=f[:, None], feature_names=["f"])

    def side(**thresholds):
        model = build_margin_model(ds, MarginConfig(**thresholds))
        return _side(f, model.membership[:, 0], MarginConfig().quantile)

    assert side(skew_right=s, skew_left=-s) is Side.RIGHT
    assert side(skew_right=s + 1.0, skew_left=s) is Side.LEFT
    assert side(skew_right=np.nextafter(s, math.inf), skew_left=-s) is Side.TWO_SIDED
    assert side(skew_right=s + 1.0, skew_left=np.nextafter(s, -math.inf)) is (
        Side.TWO_SIDED
    )


# ----------------------------------------------------------- margin cutoffs


def test_feature_margin_right_top_of_range():
    f = np.arange(1.0, 101.0)
    mask = _one_feature(f, Side.RIGHT, 0.05)
    assert np.array_equal(mask, f > np.quantile(f, 0.95))
    assert sorted(f[mask]) == [96.0, 97.0, 98.0, 99.0, 100.0]


def test_feature_margin_left_bottom_of_range():
    f = np.arange(1.0, 101.0)
    mask = _one_feature(f, Side.LEFT, 0.05)
    assert np.array_equal(mask, f < np.quantile(f, 0.05))
    assert sorted(f[mask]) == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_feature_margin_two_sided_both_tails():
    f = np.arange(1.0, 101.0)
    mask = _one_feature(f, Side.TWO_SIDED, 0.1)
    want = (f < np.quantile(f, 0.05)) | (f > np.quantile(f, 0.95))
    assert np.array_equal(mask, want)
    assert sorted(f[mask]) == [1.0, 2.0, 3.0, 4.0, 5.0, 96.0, 97.0, 98.0, 99.0, 100.0]


def test_feature_margin_strict_at_cutoff():
    # Q(0.75) of [0..4] is exactly 3.0; the sample sitting on it stays out
    f = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.quantile(f, 0.75) == 3.0
    mask = _one_feature(f, Side.RIGHT, 0.25)
    assert f[mask].tolist() == [4.0]


def test_feature_margin_constant_is_empty():
    f = np.full(10, 7.0)
    for side in Side:
        assert not _one_feature(f, side, 0.1).any()


@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=60),
    st.sampled_from(list(Side)),
    st.floats(0.02, 0.49),
    st.floats(0.02, 0.49),
)
def test_feature_margin_monotone_in_quantile(f, side, q1, q2):
    f = np.asarray(f)
    lo_q, hi_q = min(q1, q2), max(q1, q2)
    small = _one_feature(f, side, lo_q)
    large = _one_feature(f, side, hi_q)
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
    for j in range(3):
        assert _side(ds.values[:, j], model.membership[:, j], 0.05) is Side.RIGHT
    assert model.counts.tolist() == [0] * 11 + [3]
    assert model.u[:11].tolist() == [0.0] * 11
    assert abs(model.u[11] - math.log(4.0)) < 1e-12
    # the outlier row is in every margin, no other row in any
    assert model.membership[11].all()
    assert not model.membership[:11].any()


def test_build_margin_model_k_above_counts_zeroes_everything():
    ds = _outlier_dataset()
    model = build_margin_model(ds, MarginConfig(quantile=0.05, k=4))
    assert not model.u.any()
    # membership itself is unaffected by k
    assert model.counts[11] == 3


def test_export_margin_csv_round_trip(tmp_path):
    # the margin table validate-margin --dump-margins writes, read back
    ds = _outlier_dataset()
    labeled = Dataset(values=ds.values, feature_names=ds.feature_names,
                      labels=np.arange(12) % 2)
    src, dump = tmp_path / "outlier.csv", tmp_path / "margins.csv"
    save_csv(labeled, src)
    code = main(["validate-margin", "--input", str(src), "--label-col", "label",
                 "--quantile", "0.05", "--quantiles", "0.05",
                 "--output", str(tmp_path / "ks.csv"), "--dump-margins", str(dump)])
    assert code == 0
    with open(dump, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    scaled, _ = standardize(labeled)
    model = build_margin_model(scaled, MarginConfig(quantile=0.05))
    assert len(rows) == 12
    assert rows[11]["margin_count"] == "3"
    assert float(rows[11]["weight"]) == model.u[11]
    assert abs(model.u[11] - math.log(4.0)) < 1e-12
    assert rows[0]["in_dataset_margin"] == "0"
    assert rows[11]["in_dataset_margin"] == "1"


def test_build_margin_model_constant_feature():
    X = np.column_stack([np.full(12, 3.0), np.arange(12.0)])
    ds = Dataset(values=X, feature_names=["const", "ramp"])
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    assert not model.membership[:, 0].any()
    assert _side(X[:, 1], model.membership[:, 1], 0.1) is Side.TWO_SIDED


def test_build_margin_model_counts_match_membership(rng):
    ds = Dataset(
        values=rng.standard_normal((40, 6)),
        feature_names=[f"f{j}" for j in range(6)],
    )
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    assert np.array_equal(model.counts, model.membership.sum(axis=1))
    expect_u = np.where(model.counts >= 1, np.log(model.counts + 1.0), 0.0)
    assert np.array_equal(model.u, expect_u)
    assert model.t == temperature(6)


def test_build_margin_model_holds_one_copy_of_the_table():
    # the quantiles reorder a 4.9 MB transposed copy of the table; the
    # moments of 16 columns at a time add 0.5 MB, and the membership mask
    # 0.6 MB once that copy is gone: 5.5 MB. Moments over all columns at
    # once held two more n x d arrays, and the model's margin
    # representation a third: 14.9 MB.
    ds = wide_table()
    build_margin_model(Dataset(values=ds.values[:50, :4], feature_names=list("abcd")),
                       MarginConfig())  # the first np.quantile imports numpy.ma
    model, peak = traced_peak(lambda: build_margin_model(ds, MarginConfig()))
    assert model.u.any()
    assert peak < 7.5e6, f"build_margin_model peaked at {peak / 1e6:.1f} MB"


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
    # a NaN threshold passes no comparison, so it used to be accepted
    for skew in (dict(skew_right=math.nan), dict(skew_left=math.nan)):
        with pytest.raises(ValueError, match="skew_left"):
            MarginConfig(**skew)
    with pytest.raises(ValueError, match="k"):
        MarginConfig(k=0)
    for t in (0.0, math.inf, math.nan, 1e-320):
        with pytest.raises(ValueError, match="temperature_override"):
            MarginConfig(temperature_override=t)


# ------------------------------------------- column-wise pass vs. the loop

# the rows of the quantiles Q(q/2), Q(q), Q(1 - q), Q(1 - q/2) that
# build_margin_model takes that each side cuts at, None for the tail it
# leaves out
_CUT_ROWS = {Side.RIGHT: (None, 2), Side.LEFT: (1, None), Side.TWO_SIDED: (0, 3)}


def _model_and_cuts(ds, config):
    """build_margin_model's model of ds, and the 4 x d quantiles it cut
    each feature's tails at, NaN for a feature without a margin."""
    seen = []
    take = margins._linear_quantiles

    def spy(ordered, qs):
        seen.append(take(ordered, qs))
        return seen[-1]

    with patch.object(margins, "_linear_quantiles", spy):
        model = build_margin_model(ds, config)
    (cut,) = seen
    return model, cut


def _assert_same_model(got: MarginModel, cut: np.ndarray, ref) -> None:
    """Every field of the model is equal bit for bit to the reference's, and
    each feature is cut where the reference cuts it on its side."""
    want = ref.model
    assert got.config == want.config
    for name in ("membership", "counts", "u"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert float(got.t).hex() == float(want.t).hex()
    for j, (side, (lo, hi)) in enumerate(zip(ref.sides, ref.cutoffs)):
        got_cuts = [None if r is None or math.isnan(cut[r, j]) else float(cut[r, j]).hex()
                    for r in _CUT_ROWS[side]]
        assert got_cuts == [None if v is None else v.hex() for v in (lo, hi)], j


@st.composite
def _tables(draw):
    """Tables with tied, constant and wide-ranging columns, some scaled by
    2^+-250 so that skewness rescales them, and subnormal columns that vary
    but whose variance underflows to 0."""
    n = draw(st.integers(3, 30))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        style = draw(st.sampled_from(["ties", "constant", "spread", "subnormal"]))
        scale = draw(st.sampled_from([-250, 0, 250]))
        if style == "constant":
            column = [draw(st.floats(-1e3, 1e3))] * n
        elif style == "spread":
            column = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        else:
            column = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            scale = -1074 if style == "subnormal" else scale
        columns.append(np.ldexp(np.asarray(column, dtype=float), scale))
    return np.column_stack(columns)


@given(
    _tables(),
    st.floats(0.01, 0.49),
    st.floats(-1.0, 1.0),
    st.floats(0.01, 2.0),
    st.integers(1, 3),
    st.sampled_from([1, 2, 3, None]),
)
# -0.0 and 0.0 in one column: the two quantile calls returned zero cutoffs
# of opposite sign
@example(
    X=np.column_stack([[0.0] * 4 + [2.0**-250] * 2 + [-0.0] * 2, np.zeros(8)]),
    quantile=0.3125, skew_right=0.0, gap=1.0, k=1, chunk=None,
)
def test_build_margin_model_matches_feature_loop(X, quantile, skew_right, gap, k, chunk):
    # the moments are taken over chunks of ``chunk`` columns, or of
    # _COLUMN_CHUNK values with None, which at these sizes is every column
    ds = Dataset(values=X, feature_names=[f"f{j}" for j in range(X.shape[1])])
    config = MarginConfig(
        quantile=quantile, skew_right=skew_right, skew_left=skew_right - gap, k=k
    )
    values = margins._COLUMN_CHUNK if chunk is None else chunk * X.shape[0]
    with patch.object(margins, "_COLUMN_CHUNK", values):
        got, cut = _model_and_cuts(ds, config)
    _assert_same_model(got, cut, build_margin_model_loop(ds, config))


@given(_tables())
def test_skewness_matches_one_column_at_a_time(X):
    live, s = _live_skewness(X.T.copy())
    want = [f.max() != f.min() and np.var(f) != 0.0 for f in X.T]
    assert live.tolist() == want
    assert [v.hex() for v in s[live].tolist()] == [
        skewness_1d(f).hex() for f in X.T[live]
    ]
    assert np.isnan(s[~live]).all()


def test_build_margin_model_kinds_on_the_grid_draws():
    # the benchmark grid at n = 1000, seeds 0-5: the five shifted features
    # are right-sided and every other feature two-sided
    for setup in (1, 2, 3):
        for rho in BENCH_RHOS:
            config = bench_margin_config(rho)
            for seed in range(6):
                drawn = gen_setup(
                    SynthSpec(setup=setup, rho=rho, n_samples=1000, seed=seed)
                )
                X = drawn.dataset.values
                model, cut = _model_and_cuts(drawn.dataset, config)
                expected = [Side.TWO_SIDED] * X.shape[1]
                expected[5:10] = [Side.RIGHT] * 5
                sides = [_side(X[:, j], model.membership[:, j], config.quantile)
                         for j in range(X.shape[1])]
                assert sides == expected, (setup, rho, seed)
                ref = build_margin_model_loop(drawn.dataset, config)
                assert ref.sides == expected, (setup, rho, seed)
                _assert_same_model(model, cut, ref)


# ---------------------------------------------------------- squared distances


def _blocked_sq(X, block):
    """The squared distances between the rows of X as the full rows that
    ``_sq_blocks`` yields with blocks of ``block`` rows, stacked, and the
    pair mean that the library takes from the same centred rows."""
    centred = _centred(X)
    with blocking(block):
        D = np.vstack([D.copy() for _, _, D in _sq_blocks(centred, upper=False)])
    return D, _mean_pair_sq(centred.sq)


@pytest.mark.parametrize("shape", [(1, 3), (2, 1), (17, 4), (100, 300)])
def test_sq_distances_symmetric_zero_diagonal_nonnegative(rng, shape):
    X = rng.standard_normal(shape) + 1e3
    # duplicated rows: with enough columns the Gram form rounds some of
    # their zero distances below 0
    half = shape[0] // 2
    X[half : 2 * half] = X[:half]
    for block in kernel_blocks(shape[0]):
        D, _ = _blocked_sq(X, block)
        assert D.shape == (shape[0], shape[0])
        assert not np.diag(D).any()
        assert not D[half : 2 * half, :half][np.diag_indices(half)].any()
        assert (D >= 0).all()
    # gemm over row blocks does not promise exact symmetry; one product of
    # the centred rows with themselves does
    dense, _ = sq_distances_dense(X)
    assert np.array_equal(dense, dense.T)
    assert not np.diag(dense).any()


def test_sq_distances_match_pdist_far_from_origin(rng):
    # the offset makes the uncentred Gram form lose about six digits
    X = rng.standard_normal((60, 5)) + 1e3
    ref = squareform(pdist(X, metric="sqeuclidean"))
    off = ~np.eye(60, dtype=bool)
    for block in kernel_blocks(60):
        D, _ = _blocked_sq(X, block)
        assert np.max(np.abs(D - ref)[off] / ref[off]) < 1e-12


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_sq_distances_closed_form_mean(rng, offset):
    X = rng.standard_normal((50, 7)) + offset
    D = squareform(pdist(X, metric="sqeuclidean"))
    triu_mean = D[np.triu_indices(50, k=1)].mean()
    for block in kernel_blocks(50):
        blocked, mean_pair_sq = _blocked_sq(X, block)
        assert abs(mean_pair_sq - triu_mean) <= 1e-12 * triu_mean
        assert abs(blocked[np.triu_indices(50, k=1)].mean() - triu_mean) <= 1e-12 * triu_mean
    assert _blocked_sq(np.ones((1, 3)), 1)[1] == 0.0


@pytest.mark.parametrize("value", [1.0, 1e30, 1e150, -1e300])
def test_sq_distances_ignore_a_constant_column(rng, value):
    # its mean rounds away from the value it repeats; centring at that mean
    # left a residual that swamped the other columns, or overflowed
    X = rng.standard_normal((50, 3))
    for block in kernel_blocks(50):
        D, mean_pair_sq = _blocked_sq(np.column_stack([X, np.full(50, value)]), block)
        ref, ref_mean = _blocked_sq(X, block)
        # the extra zero column may change the BLAS's summation order
        assert np.allclose(D, ref, rtol=1e-12, atol=0.0)
        assert abs(mean_pair_sq - ref_mean) <= 1e-12 * ref_mean


def test_sq_distances_overflow_names_the_row():
    # each centred row has |x|^2 = 4e306; four times the running sum of
    # those passes the largest double at the 12th row
    X = np.resize([2e153, -2e153], (20, 1))
    for block in kernel_blocks(20):
        with pytest.raises(DataError, match="row 12 overflow"):
            _blocked_sq(X, block)
        D, _ = _blocked_sq(X / 2.0, block)
        assert np.isfinite(D).all()


@st.composite
def _distance_problems(draw):
    """Rows on a grid of 1/4, some of them copies of another, shifted by an
    offset that the grid keeps exact, and maybe a constant column, so the
    exact pairwise differences give the squared distances."""
    n = draw(st.integers(1, 24))
    p = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-8, 8), min_size=n * p, max_size=n * p))
    X = np.array(cells, dtype=float).reshape(n, p) / 4.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
        X[dst] = X[src]
    X += draw(st.sampled_from([0.0, 1e3, -1e6]))
    constant = draw(st.sampled_from([None, 1.0, 1e30, -1e300]))
    if constant is not None:
        X = np.column_stack([X, np.full(n, constant)])
    return X


@given(_distance_problems())
def test_sq_blocks_match_dense_oracle(X):
    # every block of the upper triangle and of full rows, at every block
    # size, against the exact distances: zero on the diagonal and between
    # equal rows, and otherwise off by no more than the rounding of the
    # Gram form, which scales with the centred norms
    n = X.shape[0]
    exact = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    event(f"duplicated rows: {len(np.unique(X, axis=0)) < n}")
    centred = _centred(X)
    sq = centred.sq
    for block in kernel_blocks(n):
        for upper in (True, False):
            rows = []
            with blocking(block):
                for a, b, D in _sq_blocks(centred, upper):
                    c = a if upper else 0
                    want = exact[a:b, c:]
                    assert D.shape == want.shape
                    assert not D[want == 0.0].any()
                    tol = 1e-14 * X.shape[1] * (sq[a:b, None] + sq[None, c:])
                    assert (np.abs(D - want) <= tol).all()
                    rows.append((a, b))
            assert rows == [(a, min(a + block, n)) for a in range(0, n, block)]
    dense, _ = sq_distances_dense(X)
    assert np.array_equal(dense, dense.T)


# ------------------------------------------------- dense margin kernel oracle


def test_interaction_weights_hand_value():
    rep = [[1.0, 0.0], [0.0, 0.0]]
    W = margin_kernel_dense(_model_from_rep(rep, t=1.0), rep)
    assert W[0, 0] == 1.0 and W[1, 1] == 1.0
    assert abs(W[0, 1] - math.exp(-1.0)) < 1e-12
    assert W[0, 1] == W[1, 0]


def test_interaction_weights_structure(rng):
    rep = rng.standard_normal((15, 4)) * rng.integers(0, 2, (15, 4))
    W = margin_kernel_dense(_model_from_rep(rep, t=1.3), rep)
    assert np.array_equal(W, W.T)
    assert np.array_equal(np.diag(W), np.ones(15))
    assert (W > 0).all() and (W <= 1).all()


def test_interaction_weights_decay_with_distance():
    rep = [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]
    W = margin_kernel_dense(_model_from_rep(rep, t=1.0), rep)
    assert W[0, 1] > W[0, 2]


# ---------------------------------------------------- margin kernel, streamed


@st.composite
def _form_problems(draw):
    """Rows on a grid of 1/4, some of them copies of another, so the exact
    pairwise differences give the dense kernel without rounding; a weight
    per row, 0 for some rows or none; and the features of the forms."""
    n = draw(st.integers(1, 24))
    p = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-8, 8), min_size=n * p, max_size=n * p))
    X = np.array(cells, dtype=float).reshape(n, p) / 4.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
        X[dst] = X[src]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.log(rng.integers(1, 5, n) + 1.0)
    u[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    u[draw(st.integers(0, n - 1))] = math.log(2.0)  # at least one weighted row
    F = rng.standard_normal((n, draw(st.integers(1, 4))))
    return X, u, F


@given(_form_problems(), st.sampled_from([0.5, 1.3, 40.0]))
def test_laplacian_forms_match_dense_oracle(problem, t):
    # at every block size: K 1, K u and diag(F'VF) of the margin kernel,
    # streamed over the weighted rows M, against the dense root kernel of
    # all n rows restricted to M; and K 1 and diag(F'KF) of the heat kernel
    # over all n rows
    X, u, F = problem
    n = X.shape[0]
    D = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    M = np.flatnonzero(u)
    m = M.size
    event(f"weighted rows: {'every' if m == n else 'some'}")
    event(f"duplicated rows: {len(np.unique(X, axis=0)) < n}")
    K = np.exp(np.sqrt(D)[np.ix_(M, M)] / -t)
    H = np.exp(D / -t)
    u_M, F_M = u[M], F[M]
    V = K * (u_M[:, None] + u_M[None, :])
    absF = np.abs(F)
    margin_rows, every_row = _centred(X[M], M), _centred(X)
    for block in kernel_blocks(m, n):
        with patch.object(margins, "_KERNEL_BLOCK", block):
            deg, Ku, q = _laplacian_forms(margin_rows, F_M, t, u_M)
            deg_H, none, q_H = _laplacian_forms(every_row, F, t)
        assert none is None
        assert np.all(np.abs(deg - K.sum(axis=1)) <= 1e-12 * K.sum(axis=1))
        assert np.all(np.abs(Ku - K @ u_M) <= 1e-12 * (K @ u_M))
        assert np.all(np.abs(q - np.einsum("ij,ik,jk->k", V, F_M, F_M))
                      <= 1e-12 * np.einsum("ij,ik,jk->k", V, absF[M], absF[M]))
        assert np.all(np.abs(deg_H - H.sum(axis=1)) <= 1e-12 * H.sum(axis=1))
        assert np.all(np.abs(q_H - np.einsum("ij,ik,jk->k", H, F, F))
                      <= 1e-12 * np.einsum("ij,ik,jk->k", H, absF, absF))


def test_margin_kernel_without_weighted_rows_is_empty():
    model = _model_from_rep([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    ds = Dataset(values=[[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], feature_names=["a", "b"])
    scores, variances, verdict = _mls_terms(ds, model)
    assert scores.tolist() == [0.0, 0.0]
    assert variances.tolist() == [1.0, 1.0]
    assert verdict == ["no sample carries margin weight; every varying feature scores 0"]


def test_margin_kernel_origin_weight_without_squaring_into_overflow():
    # row 0 is v = 5e153 in all 8 margins, with weight ln 9, and row 1 the
    # origin. |m_0| = v sqrt(8) is finite, though the sum of its squares
    # overflows. Each column's one weighted pair (0, 1) adds
    # u_0 exp(-|m_0| / t) v^2 and Var = v^2 / 2, every term finite.
    v, t = 5e153, 1e154
    rep = np.array([[v] * 8, [0.0] * 8])
    ds = Dataset(values=rep, feature_names=[f"f{j}" for j in range(8)])
    scores, _, verdict = _mls_terms(ds, _model_from_rep(rep, t=t))
    assert verdict == []
    want = 2.0 * math.log(9.0) * math.exp(-v * math.sqrt(8.0) / t)
    assert np.all(np.abs(scores - want) <= 1e-14 * want)


# --------------------------------------------------------------- u-monotone


@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_u_monotone_in_counts(seed, k):
    rng = np.random.default_rng(seed)
    ds = Dataset(
        values=rng.standard_normal((25, 5)),
        feature_names=[f"f{j}" for j in range(5)],
    )
    model = build_margin_model(ds, MarginConfig(quantile=0.15, k=k))
    c, u, inside = model.counts, model.u, model.counts >= k
    for i in np.flatnonzero(inside):
        for j in np.flatnonzero(inside):
            if c[i] > c[j]:
                assert u[i] > u[j]
