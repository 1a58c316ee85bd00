"""Tests of the benchmark's reference implementations against literal loops
over their definitions, on inputs small enough to sum term by term.

    python3 -m pytest perfbench -q
"""

import math

import numpy as np
import pytest

import reference


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def loop_sq_dist(A, i, j):
    return sum((A[i, k] - A[j, k]) ** 2 for k in range(A.shape[1]))


def test_squared_distances_match_loop(rng):
    A = rng.normal(size=(7, 3))
    D2 = reference.squared_distances(A)
    for i in range(7):
        for j in range(7):
            assert D2[i, j] == pytest.approx(loop_sq_dist(A, i, j), abs=1e-12)
    assert np.all(np.diag(D2) == 0.0)


def test_margin_kernel_is_the_exponential_of_distance(rng):
    rep = rng.normal(size=(6, 4))
    W = reference.margin_kernel(rep, t=1.7)
    for i in range(6):
        for j in range(6):
            want = math.exp(-math.sqrt(loop_sq_dist(rep, i, j)) / 1.7)
            assert W[i, j] == pytest.approx(want, rel=1e-12)
    assert np.all(np.diag(W) == 1.0)


def test_skewness_hand_value():
    # deviations -1, -1, 2: m2 = 2, m3 = 2, skewness 2 / 2^1.5
    assert reference.skewness(np.array([0.0, 0.0, 3.0])) == pytest.approx(2 ** -0.5)
    assert reference.skewness(np.array([-1.0, 0.0, 1.0])) == 0.0


def test_margins_follow_skew_and_quantiles():
    right = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 9.0])
    left = -right
    both = np.array([-5.0, -0.4, -0.3, -0.2, 0.0, 0.0, 0.2, 0.3, 0.4, 5.0])
    X = np.column_stack([right, left, both, np.ones(10)])
    u, rep = reference.margins(X, quantile=0.1, skew_right=0.5, skew_left=-0.5, k=1)
    # right tail: beyond the 0.9 quantile; left: below the 0.1 quantile;
    # two-sided: beyond 0.05 and 0.95; the constant column has no margin
    assert rep[9].tolist() == [9.0, -9.0, 5.0, 0.0]
    assert rep[0].tolist() == [0.0, 0.0, -5.0, 0.0]
    assert np.all(rep[1:9] == 0.0)
    assert u[9] == pytest.approx(math.log(4.0))
    assert u[0] == pytest.approx(math.log(2.0))
    assert np.all(u[1:9] == 0.0)
    # with k = 2 the sample in a single margin loses its weight and its row
    u2, rep2 = reference.margins(X, quantile=0.1, skew_right=0.5, skew_left=-0.5, k=2)
    assert u2[0] == 0.0 and np.all(rep2[0] == 0.0)
    assert u2[9] == u[9]


def test_pair_sums_match_double_loop(rng):
    n, d = 9, 3
    X = rng.normal(size=(n, d))
    W = rng.uniform(size=(n, n))  # the identity holds for any W
    u = rng.uniform(size=n)
    got = reference.pair_sums(X, W, u)
    for r in range(d):
        f = X[:, r]
        want = sum((f[i] - f[j]) ** 2 * W[i, j] * u[i] for i in range(n) for j in range(n))
        assert got[r] == pytest.approx(want, rel=1e-12)


def test_mls_scores_divide_by_sample_variance(rng):
    X = rng.normal(size=(8, 2))
    X[:, 1] = 3.0
    W = reference.margin_kernel(X, 1.0)
    u = rng.uniform(size=8)
    scores = reference.mls_scores(X, W, u)
    assert scores[0] == pytest.approx(
        reference.pair_sums(X[:, :1], W, u)[0] / np.var(X[:, 0], ddof=1))
    assert scores[1] == np.inf


def test_laplacian_score_matches_he_et_al_sums(rng):
    n = 8
    X = rng.normal(size=(n, 3))
    t = 2.5
    got = reference.laplacian_scores(X, t=t)
    S = [[math.exp(-loop_sq_dist(X, i, j) / t) for j in range(n)] for i in range(n)]
    D = [sum(row) for row in S]
    for r in range(3):
        f = X[:, r]
        mean = sum(f[i] * D[i] for i in range(n)) / sum(D)
        smooth = 0.5 * sum((f[i] - f[j]) ** 2 * S[i][j] for i in range(n) for j in range(n))
        spread = sum((f[i] - mean) ** 2 * D[i] for i in range(n))
        assert got[r] == pytest.approx(smooth / spread, rel=1e-10)


def test_laplacian_score_default_bandwidth_and_invariances(rng):
    X = rng.normal(size=(10, 2))
    n = X.shape[0]
    mean_sq = np.mean([loop_sq_dist(X, i, j) for i in range(n) for j in range(i + 1, n)])
    np.testing.assert_allclose(
        reference.laplacian_scores(X), reference.laplacian_scores(X, t=mean_sq), rtol=1e-12)
    # on one graph, a feature's scale and offset do not change its score
    f = X[:, :1]
    scores = reference.laplacian_scores(np.hstack([f, 4.0 * f + 1.0]), t=1.0)
    assert scores[0] == pytest.approx(scores[1], rel=1e-10)
    const = reference.laplacian_scores(np.column_stack([X[:, 0], np.full(n, 2.0)]))
    assert const[1] == np.inf


def test_open_probability():
    p = reference.open_probability(np.array([-0.5, 0.0]), sigma=0.5)
    assert p[0] == pytest.approx(0.5)
    assert p[1] == pytest.approx(0.8413447460685429)


def test_dufs_loss_matches_trace_loop(rng):
    n, d = 7, 3
    X = rng.normal(size=(n, d))
    z = np.array([1.0, 0.4, 0.0])
    mu = rng.normal(size=d)
    G = X * z
    K = [[math.exp(-loop_sq_dist(G, i, j) / 2.0) for j in range(n)] for i in range(n)]
    trace = 0.0
    for i in range(n):
        deg = sum(K[i])
        for k in range(d):
            trace += G[i, k] * (G[i, k] - sum(K[i][j] * G[j, k] for j in range(n)) / deg)
    denom = d * reference.open_probability(mu, 0.5).sum() + 1e-4
    got = reference.dufs_loss(X, z, mu, 0.5, 1e-4, d, bandwidth=2.0)
    assert got == pytest.approx(-trace / denom, rel=1e-12)


def test_dufs_mls_loss_with_open_gates_is_the_score_sum(rng):
    n, d = 10, 4
    X = rng.normal(size=(n, d))
    u, rep = reference.margins(X, 0.2, 0.5, -0.5, 1)
    W = reference.margin_kernel(rep, reference.temperature(d))
    mu = np.zeros(d)
    denom = d * reference.open_probability(mu, 0.5).sum() + 1e-4
    open_all = reference.dufs_mls_loss(X, np.ones(d), mu, 0.5, 1e-4, d, W, u)
    assert open_all == pytest.approx(-reference.mls_scores(X, W, u).sum() / denom)
    # a closed gate zeroes its column, which then contributes nothing
    z = np.array([1.0, 1.0, 0.0, 1.0])
    closed = reference.dufs_mls_loss(X, z, mu, 0.5, 1e-4, d, W, u)
    keep = [0, 1, 3]
    assert closed == pytest.approx(-reference.mls_scores(X[:, keep], W, u).sum() / denom)


def test_load_csv_and_standardize(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,label,b\n1.0,0,5\n3.0,1,5\n2.0,0,5\n")
    names, X, labels = reference.load_csv(path, "label")
    assert names == ["a", "b"]
    assert X.tolist() == [[1.0, 5.0], [3.0, 5.0], [2.0, 5.0]]
    assert labels.tolist() == [0, 1, 0]
    Z = reference.standardize(X)
    assert Z[:, 0].tolist() == [-1.0, 1.0, 0.0]
    assert np.all(Z[:, 1] == 0.0)
