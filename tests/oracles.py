"""Slow reference implementations that the tests compare the library against."""

import numpy as np

from mlscore.data import DataError, Dataset
from mlscore.gates import GateState, _denominator, _phi_over_sigma
from mlscore.margins import (
    InteractionWeights,
    MarginConfig,
    MarginKind,
    MarginModel,
    _sq_distances,
    temperature,
)


def mls_naive(f, weights: InteractionWeights, u) -> float:
    """Reference double sum over all ordered pairs:
    sum_ij (f_i - f_j)^2 * w_ij * u_i / Var(f).

    Kept deliberately close to the definition; the matrix form in ``mls`` is
    checked against this.
    """
    f = np.asarray(f, dtype=float)
    u = np.asarray(u, dtype=float)
    var = float(np.var(f, ddof=1))
    if var == 0.0:
        raise ValueError("variance is zero; score undefined")
    diff = f[:, None] - f[None, :]
    return float(np.sum(diff * diff * weights.weights * u[:, None]) / var)


def skewness_1d(f) -> float:
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


def _classify_skew(s: float, config: MarginConfig) -> MarginKind:
    """Map a skewness value to a margin side; thresholds are inclusive."""
    if s >= config.skew_right:
        return MarginKind.RIGHT
    if s <= config.skew_left:
        return MarginKind.LEFT
    return MarginKind.TWO_SIDED


def _feature_margin(
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


def build_margin_model_loop(ds: Dataset, config: MarginConfig) -> MarginModel:
    """Reference margin model, built one feature at a time;
    ``build_margin_model`` must match it bitwise on every field.

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
        kind = _classify_skew(skewness_1d(f), config)
        mask, cut = _feature_margin(f, kind, config.quantile)
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


def dufs_core_dense(
    F: np.ndarray,
    z: np.ndarray,
    state: GateState,
    bandwidth: float | None,
    want_grad: bool,
) -> tuple[float, np.ndarray | None]:
    """Reference dufs loss and gradient that forms every n x n matrix of
    the derivation: the kernel, G = gated gated', and P with its row and
    column sums. ``gates._dufs_core`` must match it to rounding."""
    # a bandwidth of None is taken from the same distances the kernel uses
    gated = F * z
    W, mean_sq = _sq_distances(gated)
    if bandwidth is None:
        bandwidth = max(1.0, mean_sq)
    W /= -bandwidth
    np.exp(W, out=W)
    dvec = W.sum(axis=1)
    tiny = np.flatnonzero(dvec < 1e-300)
    if tiny.size:
        raise ValueError(f"degenerate kernel row at sample {int(tiny[0])}")

    H = (W @ gated) / dvec[:, None]
    trace = float((gated * gated).sum() - (gated * H).sum())
    denom = _denominator(state)
    loss = -trace / denom
    if state.sign_flip:
        loss = -loss
    if not want_grad:
        return loss, None

    # dT/dz splits into the direct path through the gated columns and the
    # kernel path through W (and the degrees it induces)
    F2 = F * F
    G = gated @ gated.T
    R = (W * G).sum(axis=1)
    P = W * (G / dvec[:, None] - (R / (dvec * dvec))[:, None])
    kernel_path = (2.0 * z / bandwidth) * (
        (P.sum(axis=1) + P.sum(axis=0)) @ F2 - 2.0 * (F * (P @ F)).sum(axis=0)
    )
    Hf = (W @ F) / dvec[:, None]
    direct_path = 2.0 * z * (F2.sum(axis=0) - (F * Hf).sum(axis=0))
    dT_dz = direct_path + kernel_path

    open_mask = (z > 0.0) & (z < 1.0)
    grad = -(dT_dz * open_mask) / denom + trace * (
        state.m_gates * _phi_over_sigma(state)
    ) / denom**2
    if state.sign_flip:
        grad = -grad
    return loss, grad
