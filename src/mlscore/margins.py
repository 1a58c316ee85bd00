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


def skewness(f) -> float:
    """Moment coefficient of skewness m3 / m2^(3/2), central moments over n."""
    f = np.asarray(f, dtype=float)
    if f.size < 3:
        raise ValueError(f"skewness needs at least 3 values, got {f.size}")
    if f.max() == f.min():
        raise ValueError("skewness undefined for a constant vector")
    # skewness is scale-free, so values far from 1 in magnitude, whose mean,
    # dev^3 or m2^(3/2) could under- or overflow, are divided by a power of
    # two near the largest one, which is exact. The largest deviation is then
    # at least about 2^-54, so the moments stay normal. Within 2^+-200 values
    # are left as they are: pow is not exact under scaling.
    _, exponent = np.frexp(np.abs(f).max())
    if abs(exponent) > 200:
        f = np.ldexp(f, -exponent)
    dev = f - f.mean()
    m2 = np.mean(dev * dev)
    m3 = np.mean(dev * dev * dev)
    return float(m3 / m2**1.5)


def classify_skew(s: float, config: MarginConfig) -> MarginKind:
    """Map a skewness value to a margin side; thresholds are inclusive."""
    if s >= config.skew_right:
        return MarginKind.RIGHT
    if s <= config.skew_left:
        return MarginKind.LEFT
    return MarginKind.TWO_SIDED


def feature_margin(
    f, kind: MarginKind, quantile: float
) -> tuple[np.ndarray, tuple[float | None, float | None]]:
    """Boolean margin mask for one feature plus the (lower, upper) cutoffs.

    Cutoffs are values of the empirical quantile function (linear
    interpolation between order statistics); membership is strict, so ties
    sitting exactly on a cutoff stay out of the margin.
    """
    f = np.asarray(f, dtype=float)
    if not 0.0 < quantile < 0.5:
        raise ValueError(f"quantile must be in (0, 0.5), got {quantile}")
    if kind is MarginKind.RIGHT:
        hi = float(np.quantile(f, 1.0 - quantile))
        return f > hi, (None, hi)
    if kind is MarginKind.LEFT:
        lo = float(np.quantile(f, quantile))
        return f < lo, (lo, None)
    lo = float(np.quantile(f, quantile / 2.0))
    hi = float(np.quantile(f, 1.0 - quantile / 2.0))
    return (f < lo) | (f > hi), (lo, hi)


def temperature(n_features: int) -> float:
    """Kernel temperature max(1, 2*sqrt(d)/10); the floor stops the kernel
    from collapsing at small d."""
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    return max(1.0, 2.0 * math.sqrt(n_features) / 10.0)


def build_margin_model(ds: Dataset, config: MarginConfig) -> MarginModel:
    """Classify every feature, collect margins, and assemble sample weights.

    Constant features are treated as two-sided with an empty margin rather
    than rejected. The margin representation row for any sample with fewer
    than ``config.k`` memberships is zeroed entirely, matching its zero
    weight.
    """
    X = ds.values
    n, d = X.shape
    if n < 3:
        raise DataError(f"margins need at least 3 data rows for skewness, got {n}")
    kinds: list[MarginKind] = []
    cutoffs: list[tuple[float | None, float | None]] = []
    membership = np.zeros((n, d), dtype=bool)
    for r in range(d):
        f = X[:, r]
        if f.max() == f.min() or np.var(f) == 0.0:
            kinds.append(MarginKind.TWO_SIDED)
            cutoffs.append((None, None))
            continue
        kind = classify_skew(skewness(f), config)
        mask, cut = feature_margin(f, kind, config.quantile)
        kinds.append(kind)
        cutoffs.append(cut)
        membership[:, r] = mask

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
        kinds=kinds,
        cutoffs=cutoffs,
        membership=membership,
        counts=counts,
        in_dataset_margin=in_margin,
        u=u,
        margin_rep=margin_rep,
        t=float(t),
    )


def _sq_distances(X: np.ndarray) -> tuple[np.ndarray, float]:
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
    larger ones it can miss 0 by a few ulps of the squared norms.
    """
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    D = Xc @ Xc.T
    sq = D.diagonal().copy()
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
