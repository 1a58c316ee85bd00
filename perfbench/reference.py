"""Reference implementations the benchmark checks mlscore's outputs against.

Each function is written from the definition of the quantity it computes,
with plain numpy and the standard library. Nothing here imports mlscore, so
a fault in the package cannot hide by being copied into its own check.

Notation: X is an n x d matrix (rows are samples, columns features), f one
column, W an n x n affinity matrix, u the per-sample margin weights.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def load_csv(path, label_column: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Header names (label removed), the float matrix, and the 0/1 labels."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [[float(cell) for cell in row] for row in reader]
    table = np.array(rows, dtype=float)
    j = header.index(label_column)
    names = header[:j] + header[j + 1 :]
    return names, np.delete(table, j, axis=1), table[:, j].astype(int)


def standardize(X: np.ndarray) -> np.ndarray:
    """(x - mean) / sample standard deviation per column; constant columns
    become zero."""
    sd = X.std(axis=0, ddof=1)
    constant = (X.max(axis=0) == X.min(axis=0)) | (sd == 0.0)
    out = (X - X.mean(axis=0)) / np.where(constant, 1.0, sd)
    out[:, constant] = 0.0
    return out


def skewness(f: np.ndarray) -> float:
    """Moment coefficient of skewness m3 / m2^(3/2), moments over n."""
    dev = f - f.mean()
    return float(np.mean(dev**3) / np.mean(dev**2) ** 1.5)


def margins(
    X: np.ndarray,
    quantile: float,
    skew_right: float,
    skew_left: float,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample margin weights u and the margin representation rows.

    A feature's margin is its right tail when its skewness is at least
    skew_right, its left tail when at most skew_left, and both tails
    otherwise. A tail holds the samples strictly beyond the empirical
    quantile cut-off at ``quantile`` (``quantile / 2`` per tail when both are
    used). A sample in c margins with c >= k gets u = ln(1 + c); every other
    sample gets u = 0 and an all-zero representation row. The representation
    keeps a sample's value on the features whose margin it is in and 0
    elsewhere.
    """
    n, d = X.shape
    member = np.zeros((n, d), dtype=bool)
    for r in range(d):
        f = X[:, r]
        if f.max() == f.min():
            continue
        s = skewness(f)
        if s >= skew_right:
            member[:, r] = f > np.quantile(f, 1.0 - quantile)
        elif s <= skew_left:
            member[:, r] = f < np.quantile(f, quantile)
        else:
            lo, hi = np.quantile(f, [quantile / 2.0, 1.0 - quantile / 2.0])
            member[:, r] = (f < lo) | (f > hi)
    count = member.sum(axis=1)
    kept = count >= k
    u = np.where(kept, np.log1p(count), 0.0)
    rep = np.where(member & kept[:, None], X, 0.0)
    return u, rep


def temperature(d: int) -> float:
    """Margin kernel temperature t = max(1, 2 sqrt(d) / 10)."""
    return max(1.0, 2.0 * math.sqrt(d) / 10.0)


def squared_distances(A: np.ndarray) -> np.ndarray:
    """||a_i - a_j||^2 for every pair of rows, via |a|^2 + |b|^2 - 2 a.b.

    Rounding can leave tiny negatives on near-equal rows; they are clipped,
    and the diagonal is exactly zero.
    """
    sq = (A * A).sum(axis=1)
    D2 = sq[:, None] + sq[None, :] - 2.0 * (A @ A.T)
    np.maximum(D2, 0.0, out=D2)
    np.fill_diagonal(D2, 0.0)
    return D2


def margin_kernel(rep: np.ndarray, t: float) -> np.ndarray:
    """w_ij = exp(-||m_i - m_j|| / t) over margin representation rows."""
    return np.exp(-np.sqrt(squared_distances(rep)) / t)


def pair_sums(X: np.ndarray, W: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_ij (f_i - f_j)^2 w_ij u_i for every column f of X.

    The double sum is expanded per row i as
    u_i (f_i^2 sum_j w_ij - 2 f_i sum_j w_ij f_j + sum_j w_ij f_j^2),
    which gives the same value in O(n^2) per feature without an n x n
    temporary per column; the tests compare it with the literal double loop.
    """
    degree = W.sum(axis=1)
    return u @ (degree[:, None] * X * X - 2.0 * X * (W @ X) + W @ (X * X))


def mls_scores(X: np.ndarray, W: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Marginal Laplacian Score: the pair sum over Var(f) (n-1 divisor).
    Constant features score +inf."""
    var = X.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(var > 0.0, pair_sums(X, W, u) / var, np.inf)


def laplacian_scores(X: np.ndarray, t: float | None = None) -> np.ndarray:
    """Laplacian Score of He, Cai and Niyogi (2005) for every column.

    S_ij = exp(-||x_i - x_j||^2 / t), D = diag(S 1), L = D - S;
    f~ = f - (f'D1 / 1'D1) 1 and L_r = f~' L f~ / f~' D f~. The default t
    is the mean squared distance over distinct pairs. Constant features
    score +inf.
    """
    n = X.shape[0]
    D2 = squared_distances(X)
    if t is None:
        t = float(D2[np.triu_indices(n, k=1)].mean()) or 1.0
    S = np.exp(-D2 / t)
    degree = S.sum(axis=1)
    Ft = X - (degree @ X) / degree.sum()
    DF = degree[:, None] * Ft
    LF = DF - S @ Ft
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (Ft * LF).sum(axis=0) / (Ft * DF).sum(axis=0)
    constant = X.max(axis=0) == X.min(axis=0)
    return np.where(constant, np.inf, scores)


def open_probability(mu: np.ndarray, sigma: float) -> np.ndarray:
    """P(Z_r >= 0) for Z_r = mu_r + 0.5 + N(0, sigma^2): Phi((mu + 0.5) / sigma)."""
    x = (np.asarray(mu, dtype=float) + 0.5) / (sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + np.array([math.erf(v) for v in x]))


def gate_bandwidth(G: np.ndarray) -> float:
    """Mean squared distance over distinct pairs of gated rows, floored at 1."""
    n = G.shape[0]
    return max(1.0, float(squared_distances(G)[np.triu_indices(n, k=1)].mean()))


def dufs_loss(
    X: np.ndarray,
    z: np.ndarray,
    mu: np.ndarray,
    sigma: float,
    delta: float,
    m: int,
    bandwidth: float,
) -> float:
    """DUFS loss at a fixed gate draw z: -Tr[G' L G] / (m sum_r P(Z_r >= 0) + delta).

    G = X diag(z) holds the gated rows, K_ij = exp(-||g_i - g_j||^2 / bandwidth)
    their heat kernel, and L = I - D^-1 K its random-walk Laplacian.
    """
    G = X * z
    K = np.exp(-squared_distances(G) / bandwidth)
    L = np.eye(G.shape[0]) - K / K.sum(axis=1)[:, None]
    trace = float(np.trace(G.T @ L @ G))
    return -trace / (m * float(open_probability(mu, sigma).sum()) + delta)


def dufs_mls_loss(
    X: np.ndarray,
    z: np.ndarray,
    mu: np.ndarray,
    sigma: float,
    delta: float,
    m: int,
    W: np.ndarray,
    u: np.ndarray,
    var_guard: float = 1e-12,
) -> float:
    """DUFS-MLS loss at a fixed gate draw z: minus the summed Marginal
    Laplacian Scores of the gated columns, with the margin kernel W and the
    weights u of the ungated data, over (m sum_r P(Z_r >= 0) + delta).
    A gated column whose variance is at most var_guard contributes 0.
    """
    G = X * z
    var = G.var(axis=0, ddof=1)
    live = var > var_guard
    total = float((pair_sums(G[:, live], W, u) / var[live]).sum())
    return -total / (m * float(open_probability(mu, sigma).sum()) + delta)
