"""Laplacian-style feature scores: the classic graph score and the
margin-weighted variant. Lower is better for both."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, Dataset
from .margins import (
    MarginModel,
    _Centred,
    _centred,
    _check_scale,
    _knn_forms,
    _knn_neighbours,
    _laplacian_forms,
    _mean_pair_sq,
    _row_norms,
)

# the closed-form methods, ranked ascending (lower score = keep); the gate
# methods rank descending
SCORE_METHODS = ("ls", "mls")

KERNEL_MODES = ("heat", "binary-knn")


@dataclass(frozen=True)
class KernelConfig:
    """Affinity settings for the classic score.

    mode "heat" is exp(-||xi - xj||^2 / t) with t defaulting to the mean
    squared pairwise distance; "binary-knn" is a symmetrized 0/1 neighbor
    graph.
    """

    bandwidth: float | None = None
    mode: str = "heat"
    n_neighbors: int = 5

    def __post_init__(self):
        if self.mode not in KERNEL_MODES:
            raise ValueError(f"mode must be one of {KERNEL_MODES}, got {self.mode!r}")
        if self.bandwidth is not None:
            _check_scale("bandwidth", self.bandwidth)
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")


@dataclass
class ScoreReport:
    method: str
    scores: np.ndarray
    feature_names: list[str]
    warnings: list[str] = field(default_factory=list)


def _constant_features(ds: Dataset) -> np.ndarray:
    """Mask of the features of ds whose values are all equal; a DataError
    if every feature is."""
    X = ds.values
    constant = X.max(axis=0) == X.min(axis=0)
    if constant.all():
        raise DataError("all features are constant; nothing to score")
    return constant


def _graph_forms(
    centred: _Centred, config: KernelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Degrees S 1 and the quadratic forms diag(F0'S F0) of the sample graph
    S that ``config`` names over the rows that ``_centred`` prepared, with
    F0 = ``centred.Xc``, without forming S.

    The heat graph is streamed (``_laplacian_forms``), the binary-knn graph
    summed over the edges of its n x k neighbour list (``_knn_forms``).
    """
    F0 = centred.Xc
    n = F0.shape[0]
    k = config.n_neighbors
    if config.mode == "binary-knn" and k > n - 1:
        raise DataError(
            f"binary-knn needs n_neighbors <= n - 1, got n_neighbors={k} with n={n} rows"
        )
    if config.mode == "heat":
        t = config.bandwidth
        if t is None:
            mean_sq = _mean_pair_sq(centred.sq)
            t = mean_sq if mean_sq > 0 else 1.0
            if 1.0 / t == np.inf:
                raise DataError(
                    "values too small: the squared distances between rows underflow, "
                    f"so the heat-kernel bandwidth {t} has no finite reciprocal"
                )
        dvec, _, q = _laplacian_forms(centred, F0, t, root=False)
        return dvec, q
    return _knn_forms(_knn_neighbours(centred, k), F0)


def laplacian_score(ds: Dataset, config: KernelConfig | None = None) -> ScoreReport:
    """Graph smoothness score f~' L f~ / f~' D f~ per feature.

    f~ is the feature centered by its degree-weighted mean, L = D - S the
    unnormalized graph Laplacian of the affinity S. Constant features, and
    features whose degree-weighted variance underflows to 0, score +inf. A
    term that overflows raises a DataError naming the feature.

    S is never formed: the graph enters only through d = S 1 and the
    quadratic forms f0'S f0, f0 the feature centred by its plain mean: the
    rows that ``_centred`` makes for the kernel, the one n x d copy of the
    data the score holds. A Laplacian ignores a shift (L 1 = 0), so the
    numerator is the quadratic form f~' L f~ = f0' L f0 = d'f0^2 - f0'S f0.
    The denominator is d'f~^2, with f0 recentred in place by
    c = d'f0 / 1'd once the graph is done with it.
    """
    config = config or KernelConfig()
    _constant_features(ds)  # a DataError if every feature is constant
    centred = _centred(ds.values)
    dvec, q = _graph_forms(centred, config)
    # _centred puts a constant column at exactly 0, which adds 0 to every
    # form; its denominator is 0, as is one that underflows, and the 0/0
    # score is set to +inf below
    F0 = centred.Xc
    with np.errstate(over="ignore", invalid="ignore"):
        numerators = np.einsum("i,ij,ij->j", dvec, F0, F0) - q
        F0 -= (dvec @ F0) / dvec.sum()
        weighted_sq = np.einsum("i,ij,ij->j", dvec, F0, F0)
    _check_finite(ds, weighted_sq, "ls denominator")
    _check_finite(ds, numerators, "ls numerator")
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = numerators / weighted_sq
    scores[weighted_sq == 0.0] = np.inf
    return ScoreReport(method="ls", scores=scores, feature_names=list(ds.feature_names))


def _check_finite(ds: Dataset, per_feature: np.ndarray, what: str) -> None:
    """Raise a DataError naming the first feature whose ``what`` (say "mls
    numerator") is not finite."""
    bad = np.flatnonzero(~np.isfinite(per_feature))
    if bad.size:
        name = ds.feature_names[int(bad[0])]
        raise DataError(f"values too large: the {what} of feature {name!r} overflows")


def _mls_terms(
    ds: Dataset, model: MarginModel
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Per-column mls scores of ds, the variances they divide by, and the
    margin verdict: a line when no sample carries margin weight, or when
    the margin kernel is isolated (some sample has weight and every such
    sample has degree exactly 1), since every varying column then scores 0,
    and none otherwise. ``mls`` and ``dufs-mls`` both report these lines. A
    constant column has variance 0 and numerator 0, whatever its values
    and the rounding of its mean, and a column of variance 0, constant or
    underflowing, scores +inf; a DataError if every column is constant.
    Any other numerator that overflows raises a DataError naming the
    feature.

    The numerator of a column f is the quadratic form
    1/2 sum_ij W_ij (u_i + u_j)(f_i - f_j)^2 = (u o d + W u)'f^2 - f'V f,
    with W_ij = exp(-|m_i - m_j| / t) the margin kernel over the rows m_i
    of the margin representation (see ``MarginModel``), d = W 1 and
    V_ij = W_ij (u_i + u_j), none of them held as n x n matrices. Every
    term enters through u, so only the weighted rows M need their kernel
    K, which is streamed once (``_laplacian_forms``) to give K 1, K u_M and
    q = diag(F_M'V_MM F_M). Their representation, formed here from
    ``model.membership`` and ds, is the one m x d working copy: its row
    norms are taken first, then it is centred in place for the kernel.
    Each of the other rows Z is the origin, at weight e_i = exp(-|m_i| / t)
    from weighted row i. So d_M = K 1 + |Z| e, W u is K u_M on M and u_M'e
    on every row of Z, and V is e_i u_i between i in M and every row of Z,
    0 within Z; the sums over Z are O(n d). When each weighted row has
    degree 1, its off-diagonal weights add up to less than an ulp of 1, the
    pair sum is 0 to within the rounding of the expanded form, and the
    numerators are exact zeros instead of that rounding noise.
    """
    constant = _constant_features(ds)
    F = ds.values
    n, d = F.shape
    u = model.u
    weighted = np.flatnonzero(u)
    m = weighted.size
    numerators = np.zeros(d)
    verdict = ["no sample carries margin weight; every varying feature scores 0"] if not m else []
    rows = slice(None) if m == n else weighted  # a view when every row is weighted
    with np.errstate(over="ignore", invalid="ignore"):
        if m:
            u_M = u[rows]
            F_M = F[rows]
            # built as the first d columns of the array _centred lays the
            # distances out in: F_M in the margins, 0 (or -0) elsewhere
            aug = np.empty((m, d + 2))
            rep = aug[:, :d]
            np.multiply(F_M, model.membership[rows], out=rep)
            if m < n:
                e = np.exp(_row_norms(rep) / -model.t)
            centred = _centred(rep, weighted, out=aug)
            del aug, rep
            d_M, Ku, q = _laplacian_forms(centred, F_M, model.t, root=True, u=u_M)
            del centred
            if m < n:
                d_M += (n - m) * e
            if (d_M == 1.0).all():
                verdict.append(
                    "margin kernel has no off-diagonal weight at any weighted sample "
                    "(values too large for its temperature); every varying feature scores 0"
                )
            else:
                numerators = np.einsum("i,ij,ij->j", u_M * d_M + Ku, F_M, F_M) - q
                if m < n:
                    in_Z = (u == 0.0).astype(float)
                    numerators += (u_M @ e) * np.einsum("i,ij,ij->j", in_Z, F, F)
                    numerators -= 2.0 * (in_Z @ F) * ((e * u_M) @ F_M)
        variances = F.var(axis=0, ddof=1)
    variances[constant] = numerators[constant] = 0.0
    _check_finite(ds, numerators, "mls numerator")
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = numerators / variances
    scores[variances == 0.0] = np.inf
    return scores, variances, verdict


def mls(ds: Dataset, model: MarginModel) -> ScoreReport:
    """Margin-weighted score for every feature of ds.

    The model must have been built on the same (standardized) dataset.
    Constant features, and features whose variance underflows to 0, score
    +inf. If no sample carries margin weight, or no weighted sample has
    off-diagonal weight in the margin kernel, every varying feature scores
    0, a warning says why, and ranking falls back to index order.
    """
    scores, _, verdict = _mls_terms(ds, model)
    return ScoreReport(
        method="mls", scores=scores, feature_names=list(ds.feature_names),
        warnings=verdict,
    )


def select_top(report: ScoreReport, num_features: int) -> list[int]:
    """Indices of the best ``num_features`` features, best first.

    Ascending scores for ``SCORE_METHODS``, descending (largest gate
    parameter) otherwise; ties break toward the lowest feature index.
    """
    d = report.scores.shape[0]
    if not 1 <= num_features <= d:
        raise ValueError(f"num_features must be in [1, {d}], got {num_features}")
    keys = report.scores if report.method in SCORE_METHODS else -report.scores
    order = np.argsort(keys, kind="stable")
    return [int(i) for i in order[:num_features]]

