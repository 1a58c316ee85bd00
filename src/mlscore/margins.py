"""Skew-directed feature margins, per-sample weights, and the interaction kernel.

A feature's margin is the set of samples in its heavy tail(s); the side is
chosen by the sign of the sample skewness. Samples that fall in at least
``k`` margins get a log weight u_i = ln(c_i + 1), where c_i counts margin
memberships, and the pairwise interaction kernel is a Laplacian-style
exponential over the margin representation rows.

This module also holds ``_sq_distances``, the one pairwise-distance routine
behind every dense sample kernel in the package: the margin kernel here,
the heat and kNN graphs of the Laplacian Score and the DUFS gate kernel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import DataError, Dataset

# rows of the distance matrix finished per step of _sq_distances; keeps the
# |x_i|^2 + |x_j|^2 term a small temporary instead of a second n x n matrix
_ROW_BLOCK = 64


class MarginKind(Enum):
    RIGHT = "right"
    TWO_SIDED = "two-sided"
    LEFT = "left"


@dataclass(frozen=True)
class MarginConfig:
    """Knobs for margin construction.

    quantile is the total tail mass per feature (split across both tails for
    two-sided features); skew_right/skew_left are the classification
    thresholds; k is the minimum number of margin memberships for a sample
    to receive nonzero weight.
    """

    quantile: float = 0.05
    skew_right: float = 0.5
    skew_left: float = -0.5
    k: int = 1
    temperature_override: float | None = None

    def __post_init__(self):
        if not 0.0 < self.quantile < 0.5:
            raise ValueError(f"quantile must be in (0, 0.5), got {self.quantile}")
        if self.skew_left >= self.skew_right:
            raise ValueError(
                f"skew_left ({self.skew_left}) must be below skew_right ({self.skew_right})"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.temperature_override is not None and self.temperature_override <= 0:
            raise ValueError("temperature_override must be positive")


@dataclass
class MarginModel:
    """Everything derived from one dataset + MarginConfig pass.

    membership is the n x d boolean margin-indicator matrix, counts its row
    sums, u the log weights (zero off-margin), margin_rep the n x d matrix
    of feature values masked to margins and zeroed for rows below the k
    threshold, and t the kernel temperature.
    """

    config: MarginConfig
    kinds: list[MarginKind]
    cutoffs: list[tuple[float | None, float | None]]
    membership: np.ndarray
    counts: np.ndarray
    in_dataset_margin: np.ndarray
    u: np.ndarray
    margin_rep: np.ndarray
    t: float
    _weights_cache: "InteractionWeights | None" = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class InteractionWeights:
    weights: np.ndarray
    t: float


def skewness(X) -> np.ndarray:
    """Moment coefficient of skewness m3 / m2^(3/2) of each column of the
    n x d array X, central moments over n. Needs n >= 3 and no constant
    column."""
    cols = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    if cols.shape[1] < 3:
        raise ValueError(f"skewness needs at least 3 values, got {cols.shape[1]}")
    if (cols.max(axis=1) == cols.min(axis=1)).any():
        raise ValueError("skewness undefined for a constant column")
    # skewness is scale-free, so a column far from 1 in magnitude, whose
    # mean, dev^3 or m2^(3/2) could under- or overflow, is divided by a
    # power of two near its largest value, which is exact. Its largest
    # deviation is then at least about 2^-54, so the moments stay normal.
    # Within 2^+-200 a column is left as it is: pow is not exact under
    # scaling. A row of cols is summed pairwise, as a 1-d array would be.
    _, exponent = np.frexp(np.abs(cols).max(axis=1))
    cols = np.ldexp(cols, np.where(np.abs(exponent) > 200, -exponent, 0)[:, None])
    dev = cols - cols.mean(axis=1, keepdims=True)
    m2 = np.mean(dev * dev, axis=1)
    m3 = np.mean(dev * dev * dev, axis=1)
    # Python floats take C's pow, as a scalar does; NumPy's vectorised
    # float64 power can differ from it in the last bit on some CPUs
    return m3 / (m2.astype(object) ** 1.5).astype(float)


def temperature(n_features: int) -> float:
    """Kernel temperature max(1, 2*sqrt(d)/10); the floor stops the kernel
    from collapsing at small d."""
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    return max(1.0, 2.0 * math.sqrt(n_features) / 10.0)


def build_margin_model(ds: Dataset, config: MarginConfig) -> MarginModel:
    """Pick every feature's margin side, cut its tails and assemble sample
    weights, in one column-wise pass.

    With quantile q and Q the linearly interpolated empirical quantile, a
    right margin holds the values above Q(1 - q), a left one those below
    Q(q), a two-sided one those outside [Q(q/2), Q(1 - q/2)]. Constant
    features are two-sided with an empty margin; rows with fewer than
    ``config.k`` memberships get a zero weight and margin_rep row.
    """
    X = ds.values
    n, d = X.shape
    if n < 3:
        raise DataError(f"margins need at least 3 data rows for skewness, got {n}")
    cols = np.ascontiguousarray(X.T)  # rows reduce like 1-d arrays
    with np.errstate(over="ignore"):  # an overflowing variance is not 0
        live = (cols.max(axis=1) != cols.min(axis=1)) & (cols.var(axis=1) != 0.0)
    # a constant feature gets NaN skewness and cutoffs, which pass no
    # threshold and no comparison: two-sided, with an empty margin
    s = np.full(d, np.nan)
    s[live] = skewness(cols[live].T)
    q = config.quantile
    cut = np.quantile(cols, [q / 2.0, q, 1.0 - q, 1.0 - q / 2.0], axis=1)
    cut[:, ~live] = np.nan
    right = s >= config.skew_right
    left = (s <= config.skew_left) & ~right
    # the tail a one-sided margin leaves out gets an infinite cutoff
    lo = np.where(right, -np.inf, np.where(left, cut[1], cut[0]))
    hi = np.where(left, np.inf, np.where(right, cut[2], cut[3]))
    membership = (X < lo) | (X > hi)
    kinds = np.where(
        right, MarginKind.RIGHT, np.where(left, MarginKind.LEFT, MarginKind.TWO_SIDED)
    )
    cutoffs = list(zip(np.where(np.isfinite(lo), lo, None).tolist(),
                       np.where(np.isfinite(hi), hi, None).tolist()))

    counts = membership.sum(axis=1)
    in_margin = counts >= config.k
    u = np.where(in_margin, np.log(counts + 1.0), 0.0)
    margin_rep = np.where(membership, X, 0.0)
    margin_rep[~in_margin] = 0.0
    t = config.temperature_override
    if t is None:
        t = temperature(d)
    return MarginModel(
        config=config,
        kinds=kinds.tolist(),
        cutoffs=cutoffs,
        membership=membership,
        counts=counts,
        in_dataset_margin=in_margin,
        u=u,
        margin_rep=margin_rep,
        t=float(t),
    )


def _sq_distances(
    X: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Squared Euclidean distances between the rows of X, and their mean
    over the n(n-1)/2 pairs.

    D_ij = |x_i|^2 + |x_j|^2 - 2 x_i . x_j on the centred rows, from one BLAS
    product Xc Xc' whose diagonal supplies the norms. Centring leaves the
    distances as they are but keeps the subtraction from cancelling the
    digits of rows far from the origin. The norm sum is added as one term,
    so D is exactly symmetric; rounding below 0 is clamped and the diagonal
    is exactly 0. The pair mean is 2 sum|xc_i|^2 / (n - 1) in closed form
    (0 for a single row). Duplicated rows get distance exactly 0 when the
    BLAS forms every dot product alike, which holds for small matrices; on
    larger ones it can miss 0 by a few ulps of the squared norms. Values too
    large for finite distances raise a DataError naming the row.

    ``out``, an n x n C-contiguous float64 array, receives D in place of a
    fresh array and is returned; whatever it held is overwritten. A caller
    that builds a kernel per epoch passes the same buffer every time.
    """
    n = X.shape[0]
    # every D_ij is at most 4 max(sq) and the pair mean sums all of sq, so
    # both stay finite while 4x the running sum of sq does
    with np.errstate(over="ignore", invalid="ignore"):
        Xc = X - X.mean(axis=0)
        D = np.matmul(Xc, Xc.T, out=out)
        sq = D.diagonal().copy()
        overflow = ~np.isfinite(4.0 * np.cumsum(sq))
    if overflow.any():
        row = int(overflow.argmax()) + 1
        raise DataError(f"values too large: squared distances from row {row} overflow")
    D *= -2.0
    for start in range(0, n, _ROW_BLOCK):
        rows = D[start : start + _ROW_BLOCK]
        rows += sq[start : start + _ROW_BLOCK, None] + sq[None, :]
        np.maximum(rows, 0.0, out=rows)
    np.fill_diagonal(D, 0.0)
    mean_pair_sq = 2.0 * float(sq.sum()) / (n - 1) if n > 1 else 0.0
    return D, mean_pair_sq


def interaction_weights(model: MarginModel) -> InteractionWeights:
    """Dense pairwise kernel w_ij = exp(-||m_i - m_j|| / t) over margin rows.

    Symmetry is exact and the diagonal is exactly 1 (see ``_sq_distances``).
    Cached on the model; ``scores.mls`` and a ``dufs-mls`` training run
    each call this once, not per epoch.
    """
    if model._weights_cache is None:
        W, _ = _sq_distances(model.margin_rep)
        np.sqrt(W, out=W)
        W /= -model.t
        np.exp(W, out=W)
        model._weights_cache = InteractionWeights(weights=W, t=model.t)
    return model._weights_cache


def export_margin_csv(model: MarginModel, path) -> None:
    """Per-sample margin summary (count, weight, in-margin flag) as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "margin_count", "weight", "in_dataset_margin"])
        for i in range(model.u.shape[0]):
            writer.writerow(
                [
                    i,
                    int(model.counts[i]),
                    repr(float(model.u[i])),
                    int(model.in_dataset_margin[i]),
                ]
            )
