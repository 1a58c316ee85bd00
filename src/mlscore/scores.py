"""Laplacian-style feature scores: the classic graph score and the
margin-weighted variant. Lower is better for both."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, Dataset
from .margins import (
    MarginModel,
    _centred,
    _kernel_products,
    _knn_neighbours,
    _knn_products,
    _mean_pair_sq,
    _row_norms,
)

# methods ranked ascending (lower score = keep); gate methods rank descending
LOWER_IS_BETTER = frozenset({"ls", "mls"})

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
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")


@dataclass
class ScoreReport:
    method: str
    scores: np.ndarray
    constant_feature_flags: np.ndarray
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


def _graph_products(
    X: np.ndarray, F0: np.ndarray, config: KernelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Degrees S 1 and the product S F0 of the sample graph S of X that
    ``config`` names, without forming S.

    The heat graph is streamed (``_kernel_products``), the binary-knn graph
    built in row blocks from its n x k neighbour list (``_knn_products``).
    """
    n = X.shape[0]
    k = config.n_neighbors
    if config.mode == "binary-knn" and k > n - 1:
        raise DataError(
            f"binary-knn needs n_neighbors <= n - 1, got n_neighbors={k} with n={n} rows"
        )
    centred = _centred(X)
    if config.mode == "heat":
        t = config.bandwidth
        if t is None:
            mean_sq = _mean_pair_sq(centred.sq)
            t = mean_sq if mean_sq > 0 else 1.0
        return _kernel_products(centred, F0, t, root=False)
    return _knn_products(_knn_neighbours(centred, k), F0)


def laplacian_score(ds: Dataset, config: KernelConfig | None = None) -> ScoreReport:
    """Graph smoothness score f~' L f~ / f~' D f~ per feature.

    f~ is the feature centered by its degree-weighted mean, L = D - S the
    unnormalized graph Laplacian of the affinity S. Constant features score
    +inf and are flagged; only the others are scored. A term that overflows
    raises a DataError naming the feature.

    S is never formed: the graph enters only through d = S 1 and S F0, F0
    the features centred by their plain mean. With c = d'F0 / 1'd, f~ = f0 - c
    and S f~ = S f0 - c d, so f~' D f~ = d'f~^2 and f~' L f~ = d'f~^2 -
    f~'S f0 + c d'f~, with no n x d temporary.
    """
    config = config or KernelConfig()
    X = ds.values
    constant = _constant_features(ds)
    F = X[:, ~constant] if constant.any() else X
    weighted_sq = np.zeros(X.shape[1])
    numerators = np.zeros(X.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        F0 = F - F.mean(axis=0)
    dvec, SF = _graph_products(X, F0, config)
    with np.errstate(over="ignore", invalid="ignore"):
        c = (dvec @ F0) / dvec.sum()
        F0 -= c
        live_sq = np.einsum("i,ij,ij->j", dvec, F0, F0)
        weighted_sq[~constant] = live_sq
        numerators[~constant] = live_sq - np.einsum("ij,ij->j", F0, SF) + c * (dvec @ F0)
    _check_finite(ds, weighted_sq, "ls denominator")
    _check_finite(ds, numerators, "ls numerator")
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = numerators / weighted_sq
    scores[constant] = np.inf
    return ScoreReport(
        method="ls",
        scores=scores,
        constant_feature_flags=constant,
        feature_names=list(ds.feature_names),
    )


def _check_finite(ds: Dataset, per_feature: np.ndarray, what: str) -> None:
    """Raise a DataError naming the first feature whose ``what`` (say "mls
    numerator") is not finite."""
    bad = np.flatnonzero(~np.isfinite(per_feature))
    if bad.size:
        name = ds.feature_names[int(bad[0])]
        raise DataError(f"values too large: the {what} of feature {name!r} overflows")


def _mls_terms(ds: Dataset, model: MarginModel) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-column mls scores of ds, the variances they divide by, and whether
    the margin kernel is isolated: some sample has weight and every such
    sample has degree exactly 1. A column of zero variance scores 0. A
    numerator that overflows raises a DataError naming the feature.

    The numerator of a column f is f'UDf + 1'UWf^2 - 2 f'WUf (U = diag(u),
    D = diag(W 1), W the dense margin kernel ``interaction_weights``). Every
    term enters through u, so only the weighted rows M need their kernel K,
    which is streamed once with R = [u_M | u_M F_M] (``_kernel_products``)
    to give K u_M and K (uF)_M. Each of the other rows Z is the origin, at
    weight e_i = exp(-|m_i| / t) from weighted row i. So d_M = K 1 + |Z| e,
    u'W is K u_M on M and u_M'e on every row of Z, and WUF is K (uF)_M on M
    and (eu)_M'F_M on every row of Z; the sums over Z are O(n d). When each
    weighted row has degree 1, its off-diagonal weights add up to less than
    an ulp of 1, the pair sum is 0 to within the rounding of the expanded
    form, and the numerators are exact zeros instead of that rounding noise.
    """
    F = ds.values
    n, d = F.shape
    u = model.u
    weighted = np.flatnonzero(u)
    m = weighted.size
    numerators = np.zeros(d)
    isolated = False
    rows = slice(None) if m == n else weighted  # a view when every row is weighted
    with np.errstate(over="ignore", invalid="ignore"):
        if m:
            u_M = u[rows]
            R = np.empty((m, d + 1))
            R[:, 0] = u_M
            np.multiply(u_M[:, None], F[rows], out=R[:, 1:])
            centred = _centred(model.margin_rep[rows], weighted)
            d_M, KR = _kernel_products(centred, R, model.t, root=True)
            del centred, R
            if m < n:
                e = np.exp(_row_norms(model.margin_rep[rows]) / -model.t)
                d_M += (n - m) * e
            isolated = bool((d_M == 1.0).all())
            if not isolated:
                F_M = F[rows]
                numerators = (u_M * d_M + KR[:, 0]) @ (F_M * F_M)
                numerators -= 2.0 * np.einsum("ij,ij->j", F_M, KR[:, 1:])
                if m < n:
                    in_Z = (u == 0.0).astype(float)
                    numerators += (u_M @ e) * np.einsum("i,ij,ij->j", in_Z, F, F)
                    numerators -= 2.0 * (in_Z @ F) * ((e * u_M) @ F_M)
        variances = F.var(axis=0, ddof=1)
    _check_finite(ds, numerators, "mls numerator")
    scores = np.divide(
        numerators, variances, out=np.zeros_like(numerators), where=variances != 0
    )
    return scores, variances, isolated


def mls(ds: Dataset, model: MarginModel) -> ScoreReport:
    """Margin-weighted score for every feature of ds.

    The model must have been built on the same (standardized) dataset.
    Constant features, and features whose variance underflows to 0, score
    +inf. If no sample carries margin weight, or no weighted sample has
    off-diagonal weight in the margin kernel, the scores are all zero, a
    warning says why, and ranking falls back to index order.
    """
    constant = _constant_features(ds)
    scores, variances, isolated = _mls_terms(ds, model)
    scores = np.where(constant | (variances == 0), np.inf, scores)
    report = ScoreReport(
        method="mls",
        scores=scores,
        constant_feature_flags=constant,
        feature_names=list(ds.feature_names),
    )
    if not model.u.any():
        report.warnings.append("no sample carries margin weight; scores are all zero")
    if isolated:
        report.warnings.append(
            "margin kernel has no off-diagonal weight at any weighted sample "
            "(values too large for its temperature); scores are all zero"
        )
    return report


def select_top(report: ScoreReport, num_features: int) -> list[int]:
    """Indices of the best ``num_features`` features, best first.

    Ascending scores for the Laplacian family, descending (largest gate
    parameter) otherwise; ties break toward the lowest feature index.
    """
    d = report.scores.shape[0]
    if not 1 <= num_features <= d:
        raise ValueError(f"num_features must be in [1, {d}], got {num_features}")
    keys = report.scores if report.method in LOWER_IS_BETTER else -report.scores
    order = np.argsort(keys, kind="stable")
    if report.constant_feature_flags.all():
        report.warnings.append("all features constant; selection is arbitrary")
    return [int(i) for i in order[:num_features]]


def ranked_rows(report: ScoreReport) -> list[tuple[str, float, int]]:
    """(feature_name, score, rank) for the full ranking, best first."""
    order = select_top(report, report.scores.shape[0])
    return [
        (report.feature_names[idx], float(report.scores[idx]), rank + 1)
        for rank, idx in enumerate(order)
    ]
