import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from mlscore import margins
from mlscore.data import DataError, Dataset, standardize
from mlscore.evaluation import bench_margin_config
from mlscore.margins import (
    MarginConfig,
    MarginModel,
    _centred,
    _knn_forms,
    _knn_neighbours,
    build_margin_model,
)
from mlscore.scores import (
    KERNEL_MODES,
    KernelConfig,
    ScoreReport,
    _mls_terms,
    laplacian_score,
    mls,
    select_top,
)
from mlscore.synth import SynthSpec, gen_setup

from oracles import (
    blocking,
    kernel_blocks,
    ls_scores_dense,
    margin_kernel_dense,
    margin_rep_dense,
    mls_naive,
    mls_numerators_dense,
    sq_distances_dense,
    traced_peak,
    wide_table,
)


def _heat_affinity(X, bandwidth=None):
    n = X.shape[0]
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    if bandwidth is None:
        bandwidth = sq[np.triu_indices(n, k=1)].mean()
        if bandwidth <= 0:
            bandwidth = 1.0
    return np.exp(-sq / bandwidth)


def _ls_oracle(X, S):
    """Plain-loop f~' L f~ / f~' D f~ per feature."""
    d = S.sum(axis=1)
    out = []
    for r in range(X.shape[1]):
        f = X[:, r]
        ftil = f - (f @ d) / d.sum()
        num = 0.0
        for i in range(len(f)):
            for j in range(len(f)):
                num += 0.5 * S[i, j] * (ftil[i] - ftil[j]) ** 2
        out.append(num / (d @ (ftil * ftil)))
    return np.asarray(out)


def _report(scores, method="ls"):
    return ScoreReport(method=method, scores=np.asarray(scores, dtype=float))


# ----------------------------------------------------------- laplacian_score


def test_ls_matches_loop_oracle(rng):
    X = rng.standard_normal((12, 4))
    ds = Dataset(values=X, feature_names=["a", "b", "c", "d"])
    report = laplacian_score(ds)
    oracle = _ls_oracle(X, _heat_affinity(X))
    assert np.max(np.abs(report.scores - oracle)) < 1e-12


def test_ls_duplicated_column_scores_equal(rng):
    f = rng.standard_normal(15)
    ds = Dataset(values=np.column_stack([f, f]), feature_names=["a", "b"])
    report = laplacian_score(ds)
    assert report.scores[0] == report.scores[1]


def test_ls_affine_pair_scores_equal(rng):
    f = rng.standard_normal(20)
    ds = Dataset(values=np.column_stack([f, 2.0 * f + 3.0]), feature_names=["a", "b"])
    report = laplacian_score(ds)
    assert abs(report.scores[0] - report.scores[1]) <= 1e-9 * max(1.0, abs(report.scores[0]))


def test_ls_prefers_cluster_structure(rng):
    # two tight clusters along one feature; the other is plain noise
    half = 15
    clustered = np.concatenate([rng.normal(-3, 0.2, half), rng.normal(3, 0.2, half)])
    noise = rng.standard_normal(2 * half)
    ds = Dataset(values=np.column_stack([clustered, noise]), feature_names=["c", "n"])
    report = laplacian_score(ds)
    assert report.scores[0] < report.scores[1]


def test_ls_constant_feature_scores_inf(rng):
    X = np.column_stack([np.full(10, 2.0), rng.standard_normal(10)])
    report = laplacian_score(Dataset(values=X, feature_names=["c", "f"]))
    assert report.scores[0] == np.inf
    assert np.isfinite(report.scores[1])


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_ls_underflowing_variance_scores_inf(rng, mode):
    # the degree-weighted variance of a column near 1e-200 underflows to 0
    # although the column is not constant; it scored 0/0 = nan, where mls
    # scores such a column +inf
    X = np.column_stack([rng.standard_normal(20), 1e-200 * rng.standard_normal(20)])
    ds = Dataset(values=X, feature_names=["f", "tiny"])
    report = laplacian_score(ds, KernelConfig(mode=mode))
    assert report.scores[1] == np.inf
    assert np.isfinite(report.scores[0])
    assert mls(ds, build_margin_model(ds, MarginConfig(quantile=0.1))).scores[1] == np.inf


def test_ls_default_bandwidth_without_a_finite_reciprocal_is_a_data_error(rng):
    # values near 1e-160 put the mean squared distance near 1e-320; -1/t was
    # -inf, and the error blamed an overflow of the ls denominator
    ds = Dataset(values=1e-160 * rng.standard_normal((20, 3)), feature_names=["a", "b", "c"])
    with pytest.raises(DataError, match="values too small: the squared distances"):
        laplacian_score(ds)


@pytest.mark.parametrize("value", [1.0, 1e30, 1e100, 1e150, 1e200])
def test_ls_constant_column_leaves_other_scores(rng, value):
    # unstandardized; the column used to move the other scores by 57%
    # from 1e30 and to overflow the distances at 1e200
    X = rng.standard_normal((50, 3))
    ref = laplacian_score(Dataset(values=X, feature_names=["a", "b", "c"])).scores
    ds = Dataset(values=np.column_stack([X, np.full(50, value)]),
                 feature_names=["a", "b", "c", "k"])
    report = laplacian_score(ds)
    assert np.max(np.abs(report.scores[:3] - ref) / np.abs(ref)) < 1e-12
    assert report.scores[3] == np.inf


def test_ls_overflow_names_the_feature(rng):
    # the distances are finite, but the degree-weighted square sum of
    # column x overflows; it used to warn and score nan
    big = math.sqrt(5e305)
    X = np.column_stack([np.repeat([big, -big], 25), rng.standard_normal(50)])
    with pytest.raises(DataError, match="the ls denominator of feature 'x' overflows"):
        laplacian_score(Dataset(values=X, feature_names=["x", "y"]))


def test_ls_all_constant_rejected():
    ds = Dataset(values=np.ones((5, 2)), feature_names=["a", "b"])
    with pytest.raises(DataError, match="all features are constant"):
        laplacian_score(ds)


def test_ls_fixed_bandwidth_matches_oracle(rng):
    X = rng.standard_normal((10, 3))
    ds = Dataset(values=X, feature_names=["a", "b", "c"])
    report = laplacian_score(ds, KernelConfig(bandwidth=0.7))
    oracle = _ls_oracle(X, _heat_affinity(X, bandwidth=0.7))
    assert np.max(np.abs(report.scores - oracle)) < 1e-12


def _knn_graph(X, k):
    """The binary-knn graph of X as the library forms it, made dense: the
    union of the directed edges in ``_knn_neighbours`` and the diagonal."""
    n = X.shape[0]
    S = np.zeros((n, n))
    S[np.repeat(np.arange(n), k), _knn_neighbours(_centred(X), k).ravel()] = 1.0
    S = np.maximum(S, S.T)
    np.fill_diagonal(S, 1.0)
    return S


def _knn_graph_oracle(X, k):
    """Union of directed k-nearest edges, self excluded, ties by index."""
    n = X.shape[0]
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    S = np.zeros((n, n))
    for i in range(n):
        order = [j for j in np.argsort(sq[i], kind="stable") if j != i]
        for j in order[:k]:
            S[i, j] = 1.0
    S = np.maximum(S, S.T)
    np.fill_diagonal(S, 1.0)
    return S


def test_ls_binary_knn_kernel(rng):
    X = rng.standard_normal((9, 3))
    ds = Dataset(values=X, feature_names=["a", "b", "c"])
    config = KernelConfig(mode="binary-knn", n_neighbors=3)
    report = laplacian_score(ds, config)
    oracle = _ls_oracle(X, _knn_graph_oracle(X, 3))
    assert np.max(np.abs(report.scores - oracle)) < 1e-12


def test_ls_binary_knn_duplicated_rows(rng):
    # rows 0, 3, 6 and 9 coincide, as do 1 and 7: the zero distances tie
    # with self, and the graph must still put self first and break the
    # remaining ties by row index
    X = rng.standard_normal((12, 3)) + 50.0
    X[[3, 6, 9]] = X[0]
    X[7] = X[1]
    for k in (1, 2, 3, 5):
        assert np.array_equal(_knn_graph(X, k), _knn_graph_oracle(X, k))
    ds = Dataset(values=X, feature_names=["a", "b", "c"])
    report = laplacian_score(ds, KernelConfig(mode="binary-knn", n_neighbors=2))
    oracle = _ls_oracle(X, _knn_graph_oracle(X, 2))
    assert np.max(np.abs(report.scores - oracle)) < 1e-12


@st.composite
def _graph_problems(draw):
    """Standard normal rows, some of them copies of another, near or far
    from the origin: only copies tie in distance, so the kNN graph is
    well defined to the last bit."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) + draw(st.sampled_from([0.0, 50.0]))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
        X[dst] = X[src]
    assume(not (X.max(axis=0) == X.min(axis=0)).all())
    return X


def _assert_ls_matches(report, X, S):
    # a score is 1 - f~'S f~ / f~'D f~, and f~'S f~ <= f~'D f~ for S >= 0, so
    # both forms round it to within a few ulps of 1 however small it is
    want = ls_scores_dense(X, S)
    live = X.max(axis=0) != X.min(axis=0)
    err = np.abs(report.scores[live] - want[live])
    assert np.all(err <= 1e-12 * np.maximum(np.abs(want[live]), 1.0))
    assert np.isinf(report.scores[~live]).all()


@given(_graph_problems(), st.sampled_from([None, 0.05, 0.7, 40.0]))
def test_ls_heat_matches_dense_oracle(X, bandwidth):
    n, d = X.shape
    ds = Dataset(values=X, feature_names=[f"f{j}" for j in range(d)])
    D, mean_sq = sq_distances_dense(X)
    t = bandwidth or (mean_sq if mean_sq > 0 else 1.0)
    S = np.exp(D / -t)
    event(f"bandwidth: {'mean' if bandwidth is None else 'fixed'}")
    for block in kernel_blocks(n):
        with patch.object(margins, "_KERNEL_BLOCK", block):
            report = laplacian_score(ds, KernelConfig(bandwidth=bandwidth))
        _assert_ls_matches(report, X, S)


@given(_graph_problems(), st.integers(1, 6))
def test_knn_graph_matches_dense_oracle(X, k):
    n, d = X.shape
    k = min(k, n - 1)
    want = _knn_graph_oracle(X, k)
    event(f"duplicated rows: {len(np.unique(X, axis=0)) < n}")
    ds = Dataset(values=X, feature_names=[f"f{j}" for j in range(d)])
    for block in kernel_blocks(n):
        with blocking(block):
            assert np.array_equal(_knn_graph(X, k), want)
            report = laplacian_score(ds, KernelConfig(mode="binary-knn", n_neighbors=k))
        _assert_ls_matches(report, X, want)
    # the degrees count edges, exactly; q sums products over the edges in
    # another order than the dense diag(F'SF)
    centred = _centred(X)
    F = centred.Xc
    deg, q = _knn_forms(_knn_neighbours(centred, k), F)
    assert np.array_equal(deg, want.sum(axis=1))
    scale = np.einsum("ij,ik,kj->j", np.abs(F), want, np.abs(F))
    assert np.all(np.abs(q - np.einsum("ij,ik,kj->j", F, want, F)) <= 1e-12 * scale)


def test_ls_binary_knn_neighbor_bound(rng):
    ds = Dataset(values=rng.standard_normal((4, 2)), feature_names=["a", "b"])
    with pytest.raises(DataError, match="n_neighbors=4 with n=4"):
        laplacian_score(ds, KernelConfig(mode="binary-knn", n_neighbors=4))


def test_kernel_config_validation():
    with pytest.raises(ValueError, match="mode"):
        KernelConfig(mode="nope")
    # 1e-320 is positive and finite, but -1/t is -inf, and 0 x -inf made the
    # kernel's diagonal NaN
    for bandwidth in (-1.0, math.inf, math.nan, 1e-320):
        with pytest.raises(ValueError, match="bandwidth"):
            KernelConfig(bandwidth=bandwidth)
    with pytest.raises(ValueError, match="n_neighbors"):
        KernelConfig(n_neighbors=0)
    assert set(KERNEL_MODES) == {"heat", "binary-knn"}


# ------------------------------------------------------------------- mls


def test_mls_naive_hand_value():
    W = np.array([[1.0, math.exp(-1.0)], [math.exp(-1.0), 1.0]])
    u = np.array([math.log(2.0), 0.0])
    # single ordered pair contributes e^-1 * ln 2, then Var([0,1]) = 0.5
    expected = 2.0 * math.exp(-1.0) * math.log(2.0)
    assert abs(mls_naive([0.0, 1.0], W, u) - expected) < 1e-12


def test_mls_naive_rejects_constant():
    with pytest.raises(ValueError, match="variance is zero"):
        mls_naive([3.0, 3.0], np.ones((2, 2)), np.ones(2))


def test_mls_matches_naive(rng):
    X = rng.standard_normal((25, 6))
    ds = Dataset(values=X, feature_names=[f"f{j}" for j in range(6)])
    scaled, _ = standardize(ds)
    model = build_margin_model(scaled, MarginConfig(quantile=0.1))
    report = mls(scaled, model)
    W = margin_kernel_dense(model, scaled.values)
    for r in range(6):
        naive = mls_naive(scaled.values[:, r], W, model.u)
        assert abs(report.scores[r] - naive) <= 1e-9 * max(abs(naive), 1e-12)


def test_mls_hand_value_through_report():
    # f = (1, 0) with a right margin above 0.5: row 0 is in it, with weight
    # ln 2 and margin representation 1, and row 1 is not, at the origin. So
    # with t = 1 their kernel weight is w = exp(-|1 - 0| / 1), the pair sum
    # (1 - 0)^2 w ln 2 and Var(f) = 1/2
    model = MarginModel(
        config=MarginConfig(),
        membership=np.array([[True], [False]]),
        counts=np.array([1, 0]),
        u=np.array([math.log(2.0), 0.0]),
        t=1.0,
    )
    ds = Dataset(values=[[1.0], [0.0]], feature_names=["f"])
    report = mls(ds, model)
    assert abs(report.scores[0] - 2.0 * math.exp(-1.0) * math.log(2.0)) < 1e-12


def test_mls_matches_naive_with_unweighted_rows(rng):
    # k = 2 leaves rows with one margin membership unweighted, at the origin
    X = rng.standard_normal((30, 6))
    ds = Dataset(values=X, feature_names=[f"f{j}" for j in range(6)])
    model = build_margin_model(ds, MarginConfig(quantile=0.2, k=2))
    assert ((model.counts == 1) & (model.u == 0)).any() and model.u.any()
    report = mls(ds, model)
    W = margin_kernel_dense(model, X)
    for r in range(6):
        naive = mls_naive(X[:, r], W, model.u)
        assert abs(report.scores[r] - naive) <= 1e-9 * max(abs(naive), 1e-12)


def _model_from(membership, k, t):
    """A MarginModel assembled from a given membership matrix as
    build_margin_model assembles it: rows below k memberships get u = 0."""
    counts = membership.sum(axis=1)
    return MarginModel(
        config=MarginConfig(k=k),
        membership=membership,
        counts=counts,
        u=np.where(counts >= k, np.log(counts + 1.0), 0.0),
        t=t,
    )


@st.composite
def _margin_problems(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 5))
    # cells on a grid of 1/4, so rows coincide or lie at least 1/4 apart:
    # nearly coincident rows carry the rounding of the distances, which the
    # square root in the kernel amplifies on either path
    cells = draw(st.lists(st.integers(-40, 40), min_size=n * d, max_size=n * d))
    F = np.array(cells, dtype=float).reshape(n, d) / 4.0
    flags = draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))
    membership = np.array(flags).reshape(n, d)
    k = draw(st.integers(1, d + 1))
    weighted = draw(st.sampled_from(["drawn", "none", "every", "one"]))
    if weighted == "none":
        membership[:] = False
    elif weighted == "every":
        membership[:], k = True, 1
    elif weighted == "one":
        membership[:], k = False, 1
        membership[draw(st.integers(0, n - 1))] = True
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        F[row], membership[row] = F[0], membership[0]
    # at 1e140 every kernel weight between distinct points underflows
    F *= draw(st.sampled_from([1.0, 1e140]))
    t = draw(st.sampled_from([0.5, 1.0, 3.0]))
    return F, _model_from(membership, k, t)


@given(_margin_problems())
def test_mls_numerators_match_dense_oracle(problem):
    # the scores the streamed kernel gives, at every block size, against
    # the dense numerators over the same variances; a constant column has
    # variance 0 however its mean rounds, and a column of variance 0 scores
    # +inf, the rule that mls and dufs-mls share, as is the margin verdict:
    # a line when no row is weighted or the weighted rows are isolated
    F, model = problem
    n, d = F.shape
    ds = Dataset(values=F, feature_names=[f"f{j}" for j in range(d)])
    constant = F.max(axis=0) == F.min(axis=0)
    event(f"all constant: {constant.all()}")
    if constant.all():
        with pytest.raises(DataError, match="all features are constant"):
            _mls_terms(ds, model)
        return
    W = margin_kernel_dense(model, F)
    want, want_isolated = mls_numerators_dense(F, W, model.u)
    variances = np.where(constant, 0.0, F.var(axis=0, ddof=1))
    live = variances != 0
    m = np.count_nonzero(model.u)
    event("weighted rows: " + ("none" if m == 0 else "one" if m == 1 else
                               "every" if m == n else "some"))
    event(f"isolated: {want_isolated}")
    want_verdict = []
    if m == 0:
        want_verdict.append("no sample carries margin weight; every varying feature scores 0")
    if want_isolated:
        want_verdict.append(
            "margin kernel has no off-diagonal weight at any weighted sample "
            "(values too large for its temperature); every varying feature scores 0"
        )
    # t1 + t2 of the expanded form bounds |numerator| and |2 t3|
    F2 = F * F
    scale = (model.u * W.sum(axis=1)) @ F2 + (model.u @ W) @ F2
    for block in kernel_blocks(n, m):
        with patch.object(margins, "_KERNEL_BLOCK", block):
            got, got_variances, verdict = _mls_terms(ds, model)
        assert verdict == want_verdict
        assert np.array_equal(got_variances, variances)
        assert np.all(got[~live] == np.inf)
        err = np.abs(got[live] * variances[live] - want[live])
        assert np.all(err <= 1e-12 * scale[live])


def test_mls_constant_feature_scores_inf(rng):
    X = np.column_stack([rng.standard_normal(20), np.zeros(20)])
    ds = Dataset(values=X, feature_names=["f", "c"])
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    report = mls(ds, model)
    assert report.scores[1] == np.inf
    assert np.isfinite(report.scores[0])


def test_mls_underflowing_variance_scores_inf(rng):
    # the variance of [0, ..., 1e-170, ..., 0] underflows to 0 although the
    # column is not constant; it must not score 0 and rank first
    X = np.column_stack([rng.standard_normal(20), np.zeros(20)])
    X[3, 1] = 1e-170
    ds = Dataset(values=X, feature_names=["f", "c"])
    report = mls(ds, build_margin_model(ds, MarginConfig(quantile=0.1)))
    assert report.scores[1] == np.inf
    assert np.isfinite(report.scores[0])


def test_mls_all_constant_rejected():
    ds = Dataset(values=np.zeros((6, 2)), feature_names=["a", "b"])
    model = build_margin_model(ds, MarginConfig())
    with pytest.raises(DataError, match="all features are constant"):
        mls(ds, model)


def test_mls_no_margin_weight_warns(rng):
    ds = Dataset(
        values=rng.standard_normal((20, 3)),
        feature_names=["a", "b", "c"],
    )
    model = build_margin_model(ds, MarginConfig(quantile=0.1, k=10))
    assert not model.u.any()
    report = mls(ds, model)
    assert np.array_equal(report.scores, np.zeros(3))
    assert any("no sample carries margin weight" in w for w in report.warnings)


def test_mls_scale_invariant_with_fixed_kernel(rng):
    rep = rng.standard_normal((12, 3)) * rng.integers(0, 2, (12, 3))
    counts = (rep != 0).sum(axis=1)
    weights = np.exp(-np.abs(rep[:, None, :] - rep[None, :, :]).sum(axis=2))
    u = np.where(counts > 0, np.log(counts + 1.0), 0.0)
    f = rng.standard_normal(12)
    base = mls_naive(f, weights, u)
    for a in (0.01, 3.0, -7.5):
        assert abs(mls_naive(a * f, weights, u) - base) <= 1e-9 * max(1.0, abs(base))


def test_mls_row_permutation_invariant(rng):
    X = rng.standard_normal((18, 4))
    names = [f"f{j}" for j in range(4)]
    perm = rng.permutation(18)
    a = Dataset(values=X, feature_names=names)
    b = Dataset(values=X[perm], feature_names=names)
    config = MarginConfig(quantile=0.15)
    sa = mls(a, build_margin_model(a, config)).scores
    sb = mls(b, build_margin_model(b, config)).scores
    assert np.max(np.abs(sa - sb)) <= 1e-12 * np.maximum(1.0, np.abs(sa)).max()
    la = laplacian_score(a).scores
    lb = laplacian_score(b).scores
    assert np.max(np.abs(la - lb)) <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("setup", [1, 2])
def test_ls_and_mls_match_long_double_dense_scores(setup):
    # a raw draw as the recovery grid scores it, against dense scores whose
    # distances, kernels and sums are all taken in long double. On these two
    # draws the worst feature is off by up to 1.8e-15 (ls) and 8.1e-15 (mls)
    # relative; the bounds are a few times that.
    ds = gen_setup(SynthSpec(setup=setup, rho=0.9, n_samples=300, seed=1)).dataset
    X = ds.values
    n = X.shape[0]
    wide = X.astype(np.longdouble)

    def pair_sq(A):
        A = np.asarray(A, dtype=np.longdouble)
        return ((A[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)

    D = pair_sq(X)
    want = ls_scores_dense(wide, np.exp(-D / (D.sum() / (n * (n - 1)))))
    got = laplacian_score(ds).scores
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14

    model = build_margin_model(ds, bench_margin_config(0.9))
    W = np.exp(-np.sqrt(pair_sq(margin_rep_dense(model, X))) / np.longdouble(model.t))
    numerators, _ = mls_numerators_dense(wide, W, model.u.astype(np.longdouble))
    want = numerators / wide.var(axis=0, ddof=1)
    got = mls(ds, model).scores
    assert np.max(np.abs(got - want) / np.abs(want)) < 3e-14


@pytest.mark.parametrize("method", ["ls heat", "ls binary-knn", "mls"])
def test_scores_never_hold_an_n_by_n_matrix(method):
    # one dense 3000 x 3000 kernel takes 72 MB, and a 128-row block of it
    # 3.1 MB. binary-knn peaks highest, at 7.3 MB: beside a block of
    # full-row distances it holds a partitioned copy of it, and then its
    # 3.1 MB of sorted indices. ls heat peaks at 4.5 MB and mls at 3.4 MB;
    # a 256-row block took binary-knn to 13.8 MB
    rng = np.random.default_rng(7)
    ds, _ = standardize(Dataset(values=rng.standard_normal((3000, 20)),
                                feature_names=[f"f{j}" for j in range(20)]))
    model = build_margin_model(ds, MarginConfig())
    run = {
        "ls heat": lambda: laplacian_score(ds),
        "ls binary-knn": lambda: laplacian_score(ds, KernelConfig(mode="binary-knn")),
        "mls": lambda: mls(ds, model),
    }[method]
    report, peak = traced_peak(run)
    assert np.isfinite(report.scores).all()
    assert peak < 8.7e6, f"{method} peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("method", ["ls heat", "mls"])
def test_scores_hold_no_n_by_d_accumulator(method):
    # one 2000 x 309 array takes 4.9 MB. Beyond the data, ls holds the
    # centred rows, which are also the centred features it scores, and mls
    # the centred margin rows, 5.0 MB with their norms, plus a 2.0 MB
    # 128-row kernel block and a 0.5 MB buffer for the block's left operand
    # and its products with the features: 7.7 and 7.8 MB. An n x d product
    # such as K F would add 4.9 MB more, as would a 256-row block 2.0 MB
    ds = wide_table()
    model = build_margin_model(ds, MarginConfig())
    run = {"ls heat": lambda: laplacian_score(ds), "mls": lambda: mls(ds, model)}[method]
    report, peak = traced_peak(run)
    assert np.isfinite(report.scores).all()
    assert peak < 9.3e6, f"{method} peaked at {peak / 1e6:.1f} MB"


def test_knn_forms_hold_only_the_edge_list():
    # a 128 x n block of the 0/1 graph is 3.1 MB at n = 3000; the 15 000
    # edges are a few 120 kB arrays, and each gathered chunk of rows 256 kB
    n, d, k = 3000, 20, 5
    centred = _centred(np.random.default_rng(7).standard_normal((n, d)))
    nbrs = _knn_neighbours(centred, k)
    (deg, q), peak = traced_peak(lambda: _knn_forms(nbrs, centred.Xc))
    assert deg.min() >= k + 1 and np.isfinite(q).all()
    assert peak < 2e6, f"_knn_forms peaked at {peak / 1e6:.1f} MB"


def test_binary_knn_with_k_n_minus_1_holds_a_few_edge_lists():
    # at k = n - 1 the n x k edge list is 2.9 MB; the graph needs a few
    # copies of it, where an n x k x k array would take 1.7 GB
    n, k = 600, 599
    rng = np.random.default_rng(8)
    X = rng.standard_normal((n, 4))
    ds = Dataset(values=X, feature_names=[f"f{j}" for j in range(4)])
    report, peak = traced_peak(
        lambda: laplacian_score(ds, KernelConfig(mode="binary-knn", n_neighbors=k))
    )
    # every pair is an edge, so S is all ones
    _assert_ls_matches(report, X, np.ones((n, n)))
    assert peak < 8 * (8 * n * k), f"binary-knn peaked at {peak / 1e6:.1f} MB"


# ------------------------------------------------------------- select_top


def test_select_top_ascending_for_scores():
    report = _report([3.0, 1.0, 2.0])
    assert select_top(report, 2) == [1, 2]


def test_select_top_descending_for_gate_methods():
    report = _report([0.1, 0.9, 0.5], method="dufs")
    assert select_top(report, 2) == [1, 2]
    report = _report([0.1, 0.9, 0.5], method="dufs-mls")
    assert select_top(report, 1) == [1]


def test_select_top_ties_break_to_lowest_index():
    report = _report([2.0, 1.0, 1.0])
    assert select_top(report, 2) == [1, 2]
    report = _report([1.0, 1.0, 0.0])
    assert select_top(report, 3) == [2, 0, 1]


def test_select_top_bounds_checked():
    report = _report([1.0, 2.0])
    with pytest.raises(ValueError, match="num_features"):
        select_top(report, 0)
    with pytest.raises(ValueError, match="num_features"):
        select_top(report, 3)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=12), st.data())
def test_select_top_returns_best_prefix(scores, data):
    report = _report(scores)
    k = data.draw(st.integers(1, len(scores)))
    picked = select_top(report, k)
    assert len(picked) == k
    assert len(set(picked)) == k
    worst_picked = max(report.scores[i] for i in picked)
    rest = [report.scores[i] for i in range(len(scores)) if i not in picked]
    assert all(worst_picked <= r for r in rest)
