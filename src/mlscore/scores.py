"""Laplacian-style feature scores: the classic graph score and the
margin-weighted variant. Lower is better for both."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, Dataset
from .margins import MarginModel, _sq_distances, interaction_weights

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


def _affinity(X: np.ndarray, config: KernelConfig) -> np.ndarray:
    n = X.shape[0]
    k = config.n_neighbors
    if config.mode == "binary-knn" and k > n - 1:
        raise DataError(
            f"binary-knn needs n_neighbors <= n - 1, got n_neighbors={k} with n={n} rows"
        )
    sq, mean_sq = _sq_distances(X)
    if config.mode == "binary-knn":
        np.fill_diagonal(sq, -1.0)  # self sorts first even under ties
        order = np.argsort(sq, axis=1, kind="stable")
        S = np.zeros((n, n))
        rows = np.repeat(np.arange(n), k)
        S[rows, order[:, 1 : k + 1].ravel()] = 1.0
        S = np.maximum(S, S.T)
        np.fill_diagonal(S, 1.0)
        return S
    t = config.bandwidth
    if t is None:
        t = mean_sq if mean_sq > 0 else 1.0
    sq /= -t
    return np.exp(sq, out=sq)


def laplacian_score(ds: Dataset, config: KernelConfig | None = None) -> ScoreReport:
    """Graph smoothness score f~' L f~ / f~' D f~ per feature.

    f~ is the feature centered by its degree-weighted mean, L = D - S the
    unnormalized graph Laplacian of the affinity S. Constant features score
    +inf and are flagged.
    """
    config = config or KernelConfig()
    X = ds.values
    constant = X.max(axis=0) == X.min(axis=0)
    if constant.all():
        raise DataError("all features are constant; nothing to score")
    S = _affinity(X, config)
    dvec = S.sum(axis=1)
    total = dvec.sum()
    F_centered = X - (dvec @ X) / total
    weighted_sq = (dvec[:, None] * F_centered * F_centered).sum(axis=0)
    smooth = (F_centered * (S @ F_centered)).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = (weighted_sq - smooth) / weighted_sq
    scores = np.where(constant, np.inf, scores)
    return ScoreReport(
        method="ls",
        scores=scores,
        constant_feature_flags=constant,
        feature_names=list(ds.feature_names),
    )


def _mls_numerators(F: np.ndarray, W: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, bool]:
    """Vector of f'UDf + 1'UWf^2 - 2 f'WUf per column of F (U = diag(u),
    D = diag(W 1)), and whether W is isolated: some sample has weight and
    every such sample has degree exactly 1. Equals the naive pair sum when
    W is symmetric.

    Only rows of nonzero weight enter the pair sum. When each of them has
    degree 1, its off-diagonal weights add up to less than an ulp of 1, the
    pair sum is 0 to within the rounding of the expanded form, and the
    numerators are returned as exact zeros instead of that rounding noise.
    """
    dvec = W.sum(axis=1)
    weighted_degrees = dvec[u != 0]
    if weighted_degrees.size and (weighted_degrees == 1.0).all():
        return np.zeros(F.shape[1]), True
    F2 = F * F
    t1 = (u * dvec) @ F2
    t2 = (u @ W) @ F2
    t3 = (F * (W @ (u[:, None] * F))).sum(axis=0)
    return t1 + t2 - 2.0 * t3, False


def _mls_terms(
    F: np.ndarray, W: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-column mls scores of F, the variances they divide by, and whether
    W is isolated (see ``_mls_numerators``); a column of zero variance
    scores 0."""
    numerators, isolated = _mls_numerators(F, W, u)
    variances = F.var(axis=0, ddof=1)
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
    X = ds.values
    constant = X.max(axis=0) == X.min(axis=0)
    if constant.all():
        raise DataError("all features are constant; nothing to score")
    scores, variances, isolated = _mls_terms(X, interaction_weights(model).weights, model.u)
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
