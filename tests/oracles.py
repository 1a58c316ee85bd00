"""Slow reference implementations that the tests compare the library against,
the kernel block sizes at which they compare the blocked paths, and the
tracemalloc peak that bounds the memory of a blocked path.

The dense n x n kernels here are built from the library's own distance
steps (``_centred``, ``_finish_sq``), so those steps are the code under
test; the distances themselves come from one Gram product with the norm sum
added as one term, where the library forms each row block as one product."""

import tracemalloc
from contextlib import contextmanager
from enum import Enum
from typing import NamedTuple
from unittest.mock import patch

import numpy as np

from mlscore import margins
from mlscore.data import DataError, Dataset, standardize
from mlscore.gates import GateState, open_prob
from mlscore.margins import (
    MarginConfig,
    MarginModel,
    _centred,
    _finish_sq,
    _mean_pair_sq,
    temperature,
)


def kernel_blocks(*sizes):
    """Kernel block sizes that cut a matrix of these row counts at every
    kind of edge: one row, a few, one short of whole, whole and past it."""
    return sorted({b for n in sizes for b in (1, 2, 7, n - 1, n, n + 1) if b >= 1})


@contextmanager
def blocking(block):
    """The kernel blocks of ``margins`` patched to ``block`` rows."""
    with patch.object(margins, "_KERNEL_BLOCK", block):
        yield


def traced_peak(run):
    """What run() returns, and the tracemalloc peak it reached above the
    memory traced when it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def wide_table() -> Dataset:
    """A standardized 2000 x 309 N(0, 1) table, the shape of the wide CSV
    benchmark: 4.9 MB of values, and 2.0 MB in a 128-row kernel block."""
    X = np.random.default_rng(9).standard_normal((2000, 309))
    ds, _ = standardize(Dataset(values=X, feature_names=[f"f{j}" for j in range(309)]))
    return ds


def sq_distances_dense(X: np.ndarray) -> tuple[np.ndarray, float]:
    """Dense squared Euclidean distances between the rows of X, and their
    mean over the n(n-1)/2 pairs, from one product Xc Xc' of the centred
    rows, with |x_i|^2 + |x_j|^2 added as one term. D is exactly symmetric
    with an exactly zero diagonal, which the row blocks of ``_sq_blocks``
    do not promise."""
    centred = _centred(X)
    Xc, sq = np.ascontiguousarray(centred.Xc), centred.sq
    D = Xc @ Xc.T
    D *= -2.0
    D += sq[:, None] + sq[None, :]
    _finish_sq(D, centred, 0, 0)
    return D, _mean_pair_sq(sq)


def margin_rep_dense(model: MarginModel, X) -> np.ndarray:
    """The n x d margin representation of the data X the model was built
    on: each row's values in its margins and 0 elsewhere, and an all-zero
    row for every row of zero weight."""
    rep = np.where(model.membership, np.asarray(X, dtype=float), 0.0)
    rep[model.u == 0] = 0.0
    return rep


def margin_kernel_dense(model: MarginModel, X) -> np.ndarray:
    """The n x n margin kernel w_ij = exp(-|m_i - m_j| / t) over every row
    m_i of the margin representation of X (``margin_rep_dense``), which
    ``mls`` streams over its weighted rows only; the diagonal is exactly 1."""
    W, _ = sq_distances_dense(margin_rep_dense(model, X))
    np.sqrt(W, out=W)
    W /= -model.t
    np.exp(W, out=W)
    return W


def mls_naive(f, W: np.ndarray, u) -> float:
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
    return float(np.sum(diff * diff * W * u[:, None]) / var)


def mls_numerators_dense(F: np.ndarray, W: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, bool]:
    """Vector of f'UDf + 1'UWf^2 - 2 f'WUf per column of F (U = diag(u),
    D = diag(W 1)), and whether W is isolated: some sample has weight and
    every such sample has degree exactly 1. Equals the naive pair sum when
    W is symmetric.

    Only rows of nonzero weight enter the pair sum. When each of them has
    degree 1, its off-diagonal weights add up to less than an ulp of 1, the
    pair sum is 0 to within the rounding of the expanded form, and the
    numerators are returned as exact zeros instead of that rounding noise.

    The dense n x n form that ``scores.mls`` used before it kept only the
    weighted rows' kernel.
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


def ls_scores_dense(X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """f~' L f~ / f~' D f~ per column of X, f~ the column centred by its
    degree-weighted mean and L = D - S, from the dense affinity S: the form
    ``scores.laplacian_score`` took before it streamed S."""
    dvec = S.sum(axis=1)
    F_centered = X - (dvec @ X) / dvec.sum()
    weighted_sq = (dvec[:, None] * F_centered * F_centered).sum(axis=0)
    numerators = weighted_sq - (F_centered * (S @ F_centered)).sum(axis=0)
    return numerators / weighted_sq


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


class Side(Enum):
    """The tail(s) a feature's margin covers, as the reference labels them;
    the library keeps only the margins themselves."""

    RIGHT = "right"
    TWO_SIDED = "two-sided"
    LEFT = "left"


def _classify_skew(s: float, config: MarginConfig) -> Side:
    """Map a skewness value to a margin side; thresholds are inclusive."""
    if s >= config.skew_right:
        return Side.RIGHT
    if s <= config.skew_left:
        return Side.LEFT
    return Side.TWO_SIDED


def feature_margin(
    f, side: Side, quantile: float
) -> tuple[np.ndarray, tuple[float | None, float | None]]:
    """Boolean margin mask for one feature plus the (lower, upper) cutoffs.

    Cutoffs are values of the empirical quantile function (linear
    interpolation between order statistics), a zero one as +0.0;
    membership is strict, so ties sitting exactly on a cutoff stay out of
    the margin.
    """
    f = np.asarray(f, dtype=float)
    if not 0.0 < quantile < 0.5:
        raise ValueError(f"quantile must be in (0, 0.5), got {quantile}")
    if side is Side.RIGHT:
        hi = float(np.quantile(f, 1.0 - quantile)) + 0.0
        return f > hi, (None, hi)
    if side is Side.LEFT:
        lo = float(np.quantile(f, quantile)) + 0.0
        return f < lo, (lo, None)
    lo = float(np.quantile(f, quantile / 2.0)) + 0.0
    hi = float(np.quantile(f, 1.0 - quantile / 2.0)) + 0.0
    return (f < lo) | (f > hi), (lo, hi)


class ReferenceMargins(NamedTuple):
    """The reference margin model, and the side and (lower, upper) cutoffs
    of each feature's margin, None for a tail it leaves out."""

    model: MarginModel
    sides: list[Side]
    cutoffs: list[tuple[float | None, float | None]]


def build_margin_model_loop(ds: Dataset, config: MarginConfig) -> ReferenceMargins:
    """Reference margin model, built one feature at a time;
    ``build_margin_model`` must match its model bitwise on every field.

    Constant features are treated as two-sided with an empty margin rather
    than rejected. A sample with fewer than ``config.k`` memberships gets
    zero weight.
    """
    X = ds.values
    n, d = X.shape
    if n < 3:
        raise DataError(f"margins need at least 3 data rows for skewness, got {n}")
    sides: list[Side] = []
    cutoffs: list[tuple[float | None, float | None]] = []
    membership = np.zeros((n, d), dtype=bool)
    for r in range(d):
        f = X[:, r]
        if f.max() == f.min() or np.var(f) == 0.0:
            sides.append(Side.TWO_SIDED)
            cutoffs.append((None, None))
            continue
        side = _classify_skew(skewness_1d(f), config)
        mask, cut = feature_margin(f, side, config.quantile)
        sides.append(side)
        cutoffs.append(cut)
        membership[:, r] = mask

    counts = membership.sum(axis=1)
    u = np.where(counts >= config.k, np.log(counts + 1.0), 0.0)
    t = config.temperature_override
    if t is None:
        t = temperature(d)
    model = MarginModel(
        config=config, membership=membership, counts=counts, u=u, t=float(t)
    )
    return ReferenceMargins(model, sides, cutoffs)


def dufs_core_dense(
    F: np.ndarray,
    z: np.ndarray,
    state: GateState,
    bandwidth: float | None,
) -> tuple[float, np.ndarray]:
    """Reference dufs loss and gradient that forms every n x n matrix of
    the derivation: the kernel, G = gated gated', and P with its row and
    column sums. The ``dufs`` step of ``gates._epoch_step`` must match it to
    rounding."""
    # a bandwidth of None is taken from the same distances the kernel uses
    gated = F * z
    W, mean_sq = sq_distances_dense(gated)
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
    denom = state.m_gates * open_prob(state).sum() + state.delta
    loss = -trace / denom

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

    # the open-probability term: d/dmu of Phi((mu + 0.5) / sigma)
    x = (state.mu + 0.5) / state.sigma
    phi_over_sigma = np.exp(-0.5 * x * x) / (np.sqrt(2.0 * np.pi) * state.sigma)
    open_mask = (z > 0.0) & (z < 1.0)
    grad = -(dT_dz * open_mask) / denom + trace * state.m_gates * phi_over_sigma / denom**2
    return loss, grad
