"""Skew-directed feature margins, per-sample weights, and the interaction kernel.

A feature's margin is the set of samples in its heavy tail(s); the side is
chosen by the sign of the sample skewness. Samples that fall in at least
``k`` margins get a log weight u_i = ln(c_i + 1), where c_i counts margin
memberships, and the pairwise interaction kernel is a Laplacian-style
exponential over the margin representation rows.

Every row below ``k`` memberships is the origin in the margin
representation and carries no weight, so the margin score needs the kernel
only among the m weighted rows, plus each weighted row's weight to the
origin; no n x n kernel is ever formed.

This module also holds the pairwise-distance arithmetic behind every sample
kernel in the package: ``_centred`` (``_centre``, then ``_normed``) lays
the centred rows out as [Xc | 1 | |xc|^2], and ``_sq_blocks`` streams
their squared distances in row blocks, for the upper triangle or for full
rows, each block one BLAS product that ``_finish_sq`` clamps and zeroes
between equal rows. Over those blocks
``_laplacian_forms`` takes the degrees and Laplacian quadratic forms of a
kernel (``mls`` and the heat graph of the Laplacian Score),
``_knn_neighbours`` the kNN graph's edges, and ``gates`` the DUFS gate
kernel of every epoch. ``_knn_forms`` takes the
kNN graph's degrees and forms from its edge list alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import DataError, Dataset

# rows of a kernel block per step where a step needs a temporary as wide
# as the block: the equal-row mask of _finish_sq and the u_i + u_j factor
# of _laplacian_forms, which 32 x n doubles of its work buffer hold
_ROW_BLOCK = 32
# rows of kernel or distance held at once by _sq_blocks: 128 x n doubles.
# Fewer rows save little memory and cost time, since each block's product
# packs the whole right operand again
_KERNEL_BLOCK = 128
# values per chunk of columns whose moments build_margin_model takes at
# once, 256 kB of deviations instead of n x d; _knn_forms gathers the rows
# of its edges in chunks of the same size
_COLUMN_CHUNK = 1 << 15


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
        if not self.skew_left < self.skew_right:  # NaN included
            raise ValueError(
                f"skew_left ({self.skew_left}) must be below skew_right ({self.skew_right})"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.temperature_override is not None:
            _check_scale("temperature_override", self.temperature_override)


def _check_scale(name: str, t: float) -> None:
    """Raise the ValueError for a scale t (a kernel bandwidth or
    temperature, or the gate noise sigma) that is not positive with a
    finite reciprocal. Each use multiplies by 1/t: a kernel multiplies its
    distances by -1/t, where -inf makes 0 x -inf on the diagonal a NaN, and
    the gates divide their means and their density by sigma."""
    if not 0.0 < t < math.inf or 1.0 / float(t) == math.inf:
        raise ValueError(f"{name} must be positive with a finite reciprocal, got {t}")


@dataclass
class MarginModel:
    """Everything derived from one dataset + MarginConfig pass.

    membership is the n x d boolean margin-indicator matrix, counts its row
    sums, u the log weights (zero off-margin) and t the kernel temperature.
    The margin representation of a row of u > 0 is its feature values
    where ``membership`` is set and 0 elsewhere; every row of u = 0 is the
    origin. It is not held: ``scores`` forms it for the weighted rows from
    membership and the dataset the model was built on.
    """

    config: MarginConfig
    membership: np.ndarray
    counts: np.ndarray
    u: np.ndarray
    t: float


def _live_skewness(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of the d x n array cols are live, not constant and of
    nonzero variance, and the moment coefficient of skewness m3 / m2^(3/2)
    of each live row, central moments over n (NaN for the other rows).
    The moments are taken once, over chunks of _COLUMN_CHUNK values; a row
    reduces the same way in a chunk as in the whole array, and as a 1-d
    array would, so the chunks change no bit of the result."""
    d, n = cols.shape
    live = np.empty(d, dtype=bool)
    s = np.full(d, np.nan)
    step = max(1, _COLUMN_CHUNK // n)
    for a in range(0, d, step):
        chunk = cols[a : a + step]
        top, bottom = chunk.max(axis=1), chunk.min(axis=1)
        # skewness is scale-free, so a row far from 1 in magnitude, whose
        # mean, dev^3 or m2^(3/2) could under- or overflow, is divided by a
        # power of two near its largest value, which is exact. Its largest
        # deviation is then at least about 2^-54, so the moments stay
        # normal. Within 2^+-200 a row is left as it is: pow is not exact
        # under scaling.
        _, exponent = np.frexp(np.maximum(top, -bottom))
        far = np.abs(exponent) > 200
        scaled = chunk
        if far.any():
            scaled = np.ldexp(chunk, np.where(far, -exponent, 0)[:, None])
        dev = scaled - scaled.mean(axis=1, keepdims=True)
        # dev^3 as (dev * dev) * dev, in the one buffer that held dev^2
        power = dev * dev
        m2 = np.mean(power, axis=1)
        power *= dev
        m3 = np.mean(power, axis=1)
        # m2 is the variance, bit for bit, of a row left unscaled; only a
        # scaled row needs its own, which may underflow to 0 (or overflow,
        # which is not 0)
        varies = m2 != 0.0
        with np.errstate(over="ignore"):
            varies[far] = chunk[far].var(axis=1) != 0.0
        ok = (top != bottom) & varies
        live[a : a + step] = ok
        # Python floats take C's pow, as a scalar does; NumPy's vectorised
        # float64 power can differ from it in the last bit on some CPUs
        s[a : a + step][ok] = m3[ok] / (m2[ok].astype(object) ** 1.5).astype(float)
    return live, s


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
    ``config.k`` memberships get a zero weight.

    Beyond the membership matrix the pass holds one copy of the data, with
    the moments taken over chunks of _COLUMN_CHUNK values.
    """
    X = ds.values
    n, d = X.shape
    if n < 3:
        raise DataError(f"margins need at least 3 data rows for skewness, got {n}")
    cols = X.T.copy()  # rows reduce like 1-d arrays; a copy, even where d = 1
    # a constant feature gets NaN skewness and cutoffs, which pass no
    # threshold and no comparison: two-sided, with an empty margin
    live, s = _live_skewness(cols)
    q = config.quantile
    # cols is this function's own copy, so it may be sorted in place
    cols.sort(axis=1)
    cut = _linear_quantiles(cols, np.array([q / 2.0, q, 1.0 - q, 1.0 - q / 2.0]))
    del cols
    # -0.0 and 0.0 tie, so which one a quantile of a column holding both
    # returns depends on the sort order; a zero cutoff is always +0.0
    cut += 0.0
    cut[:, ~live] = np.nan
    right = s >= config.skew_right
    left = (s <= config.skew_left) & ~right
    # the tail a one-sided margin leaves out gets an infinite cutoff
    lo = np.where(right, -np.inf, np.where(left, cut[1], cut[0]))
    hi = np.where(left, np.inf, np.where(right, cut[2], cut[3]))
    membership = (X < lo) | (X > hi)
    counts = membership.sum(axis=1)
    u = np.where(counts >= config.k, np.log(counts + 1.0), 0.0)
    t = config.temperature_override
    if t is None:
        t = temperature(d)
    return MarginModel(
        config=config, membership=membership, counts=counts, u=u, t=float(t)
    )


def _linear_quantiles(ordered: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The len(qs) x d quantiles qs of each row of the d x n array ordered,
    sorted along its rows, bitwise as ``np.quantile(..., method="linear")``
    takes them: its virtual index (n - 1) q, its neighbours (both the last
    value from n - 1 on) and its interpolation ``_lerp``, which counts back
    from the upper neighbour where the weight is 0.5 or more. Indexing a
    sorted copy avoids the partition, and the import of numpy.ma that
    np.quantile's np.unique makes, about 2 MB."""
    n = ordered.shape[1]
    virtual = (n - 1) * qs
    floor = np.floor(virtual)
    end = virtual >= n - 1
    below = np.where(end, -1, floor).astype(np.intp)
    above = np.where(end, -1, floor + 1).astype(np.intp)
    gamma = (virtual - below)[:, None]
    a, b = ordered[:, below].T, ordered[:, above].T
    diff = b - a
    cut = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=cut, where=gamma >= 0.5)
    return cut


class _Centred(NamedTuple):
    """Rows ready for squared distances, from ``_centred``: aug, the n x
    (d + 2) array [Xc | 1 | sq] of the centred rows Xc, a column of ones and
    their squared norms sq, which is the right operand of every distance
    product; and, where two rows are equal, twin, the index of the first row
    equal to each row (None when all rows differ)."""

    aug: np.ndarray
    twin: np.ndarray | None

    @property
    def Xc(self) -> np.ndarray:
        return self.aug[:, :-2]

    @property
    def sq(self) -> np.ndarray:
        return self.aug[:, -1]


def _centred(
    X: np.ndarray, rows: np.ndarray | None = None, out: np.ndarray | None = None
) -> _Centred:
    """The first half of every squared-distance computation in the package:
    X less ``_centre(X)``, then ``_normed``. ``rows``, the dataset row index
    of each row of X, names the dataset row in an overflow error when X is
    a subset of the dataset's rows. The centred rows go into the first d
    columns of ``out``, an n x (d + 2) array, or of a fresh one: a caller
    that builds X as those columns of ``out`` has it centred in place, so no
    second copy of the rows is made.
    """
    if out is None:
        out = np.empty((X.shape[0], X.shape[1] + 2))
    with np.errstate(over="ignore", invalid="ignore"):  # _normed names it
        np.subtract(X, _centre(X), out=out[:, :-2])
    return _normed(out, rows)


def _centre(X: np.ndarray) -> np.ndarray:
    """The point the rows of X are centred at before their distances are
    formed. Centring leaves the distances as they are but keeps |x_i|^2 +
    |x_j|^2 - 2 x_i . x_j from cancelling the digits of rows far from the
    origin. A column whose values are all equal is centred at that value,
    not at its mean, whose rounding would leave a residual that can swamp
    every other column: it becomes exactly 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(X.max(axis=0) == X.min(axis=0), X[0], X.mean(axis=0))


def _normed(aug: np.ndarray, rows: np.ndarray | None = None) -> _Centred:
    """Fill the last two columns of aug, an n x (d + 2) array whose first d
    columns hold the centred rows Xc, with ones and the squared norms of Xc,
    and find the twins. Equal rows have equal norms, so only rows whose
    norms tie are compared to find them. Values too large for finite
    distances raise a DataError naming the row, as ``rows`` maps it (see
    ``_centred``)."""
    Xc = aug[:, :-2]
    aug[:, -2] = 1.0
    # every D_ij is at most 4 max(sq) and the pair mean sums all of sq, so
    # both stay finite while 4x the running sum of sq does
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", Xc, Xc, out=aug[:, -1])
        overflow = ~np.isfinite(4.0 * np.cumsum(sq))
    if overflow.any():
        row = int(overflow.argmax())
        row = (row if rows is None else int(rows[row])) + 1
        raise DataError(f"values too large: squared distances from row {row} overflow")
    order = np.argsort(sq, kind="stable")
    tie = np.flatnonzero(sq[order[1:]] == sq[order[:-1]])
    if not tie.size:
        return _Centred(aug, None)
    # the rows of every tie, sorted, as np.union1d gives them without its
    # import of numpy.ma
    suspect = np.zeros(sq.shape[0], dtype=bool)
    suspect[order[tie]] = suspect[order[tie + 1]] = True
    suspects = np.flatnonzero(suspect)
    _, first, group = np.unique(
        Xc[suspects], axis=0, return_index=True, return_inverse=True
    )
    twin = np.arange(Xc.shape[0])
    twin[suspects] = suspects[first][group.ravel()]
    return _Centred(aug, twin)


def _finish_sq(D: np.ndarray, centred: _Centred, start: int, col0: int) -> None:
    """Finish D, the squared distances of centred rows start.. to rows
    col0.. as one product forms them, in place: rounding below 0 is clamped,
    and the distance between equal rows, which the Gram form can miss by a
    few ulps of their norms, is made exactly 0. Only the rows that have an
    equal other row are compared with every column, in copies of
    _ROW_BLOCK of them at a time; the others are equal only to themselves,
    on the diagonal."""
    twin = centred.twin
    np.maximum(D, 0.0, out=D)
    own = np.arange(max(start, col0), min(start + D.shape[0], col0 + D.shape[1]))
    D[own - start, own - col0] = 0.0
    if twin is None:
        return
    mine = twin[start : start + D.shape[0]]
    paired = np.flatnonzero(np.bincount(twin, minlength=twin.shape[0])[mine] > 1)
    for lo in range(0, paired.size, _ROW_BLOCK):
        rows = paired[lo : lo + _ROW_BLOCK]
        part = D[rows]
        part[mine[rows, None] == twin[None, col0:]] = 0.0
        D[rows] = part


def _mean_pair_sq(sq: np.ndarray) -> float:
    """Mean squared distance over the n(n-1)/2 pairs of the rows whose
    centred squared norms are sq: 2 sum(sq) / (n - 1), 0 for one row."""
    n = sq.shape[0]
    return 2.0 * float(sq.sum()) / (n - 1) if n > 1 else 0.0


def _block_buffer(n: int, width: int = 0) -> np.ndarray:
    """A flat buffer that holds the largest row block of an n-column matrix
    that ``_sq_blocks`` yields for n rows, or another block of its shape;
    with ``width``, one that holds such a block of ``width`` columns."""
    return np.empty(min(_KERNEL_BLOCK, n) * (width or n))


def _sq_blocks(
    centred: _Centred,
    upper: bool,
    buf: np.ndarray | None = None,
    left: np.ndarray | None = None,
):
    """Squared distances between the rows that ``_centred`` prepared, in
    blocks of 128 rows (_KERNEL_BLOCK): yields (a, b, D), D the distances of
    rows [a, b) to rows [a, n) with ``upper``, to every row without.

    Each D is one product L aug[c:]', with the left operand L = [-2 Xc | sq
    | 1] of rows [a, b), so its entries come out as |x_i|^2 + |x_j|^2 -
    2 x_i . x_j from the BLAS, and ``_finish_sq`` only clamps them and sets
    the exact zeros. Each D is a view of one buffer, which the next block
    overwrites, so a caller may change it in place. ``buf`` and ``left``,
    from ``_block_buffer`` (``left`` of width d + 2 or more), are that
    buffer and the one L is built in, in place of fresh ones: a caller that
    streams distances every epoch passes the same ones each time. L is
    consumed before a block is yielded, so a caller may use ``left`` for
    its own work until it asks for the next block."""
    aug = centred.aug
    n, width = aug.shape
    if buf is None:
        buf = _block_buffer(n)
    if left is None:
        left = _block_buffer(n, width)
    for a in range(0, n, _KERNEL_BLOCK):
        b = min(a + _KERNEL_BLOCK, n)
        c = a if upper else 0
        L = left[: (b - a) * width].reshape(b - a, width)
        np.multiply(aug[a:b, :-2], -2.0, out=L[:, :-2])  # exact
        L[:, -2] = aug[a:b, -1]
        L[:, -1] = 1.0
        D = buf[: (b - a) * (n - c)].reshape(b - a, n - c)
        np.matmul(L, aug[c:].T, out=D)
        _finish_sq(D, centred, a, c)
        yield a, b, D


def _laplacian_forms(
    centred: _Centred, F: np.ndarray, t: float, u: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Degrees K 1, the product K u (None without ``u``) and the quadratic
    forms q = diag(F'VF) of a kernel K over the rows that ``_centred``
    prepared, without holding K. ``u`` picks the kernel: without it, the
    heat kernel K_ij = exp(-D_ij / t) of the Laplacian Score, with V = K;
    with it, the margin kernel K_ij = exp(-sqrt(D_ij) / t) of ``mls``, with
    V_ij = K_ij (u_i + u_j).

    K is streamed in blocks of rows [a, b) against columns [a, n), the upper
    triangle. A block's product with the n x 2 columns [1 | u], u = 0
    without ``u``, gives K 1 and K u of rows [a, b). Rows b:n take theirs
    from [1 | u]' times the block's part right of the diagonal. V is
    symmetric, so that part counts twice in q: each block takes its
    diagonal part's product with F[a:b] and its right part's with F[b:],
    contracts both with F[a:b] and doubles the second, which is exact. Each
    block holds 128 rows (_KERNEL_BLOCK), and memory is O(128 n + n d)
    beyond F.
    """
    n = centred.aug.shape[0]
    d = F.shape[1]
    ones_u = np.column_stack((np.ones(n), np.zeros(n) if u is None else u))
    sums = np.zeros((2, n))
    q = np.zeros(d)
    # one buffer holds in turn a block's left operand, its u_i + u_j
    # factors and its products with F
    width = max(centred.aug.shape[1], d)
    work = np.empty(max(min(_KERNEL_BLOCK, n) * width, _ROW_BLOCK * n))
    scale = -1.0 / t
    for a, b, K in _sq_blocks(centred, upper=True, left=work):
        if u is not None:
            np.sqrt(K, out=K)
        K *= scale
        np.exp(K, out=K)
        m = b - a
        right = K[:, m:]
        sums[:, a:b] += (K @ ones_u[a:]).T
        sums[:, b:] += ones_u[a:b].T @ right
        if u is not None:
            for lo in range(0, m, _ROW_BLOCK):  # V = K o (u_i + u_j)
                part = K[lo : lo + _ROW_BLOCK]
                pair = work[: part.size].reshape(part.shape)
                np.add(u[a + lo : a + lo + part.shape[0], None], u[None, a:], out=pair)
                part *= pair
        KF = work[: m * d].reshape(m, d)
        np.matmul(K[:, :m], F[a:b], out=KF)
        q += np.einsum("ij,ij->j", F[a:b], KF)
        np.matmul(right, F[b:], out=KF)
        q += 2.0 * np.einsum("ij,ij->j", F[a:b], KF)
    deg, Ku = sums
    return deg, None if u is None else Ku, q


def _knn_neighbours(centred: _Centred, k: int) -> np.ndarray:
    """The n x k indices of each row's k nearest other rows, nearest first,
    ties broken by index, over the rows that ``_centred`` prepared.
    Distances are formed a block of full rows at a time. Self sorts
    first even where an equal row ties with it, and a row's distances to
    equal rows are made equal, which the Gram form can miss by an ulp."""
    twin = centred.twin
    nbrs = np.empty((centred.Xc.shape[0], k), dtype=np.intp)
    for a, b, D in _sq_blocks(centred, upper=False):
        if twin is not None:
            D = D[:, twin]
        D[np.arange(b - a), np.arange(a, b)] = -1.0
        # no entry above the k + 1 smallest (self among them) can be kept
        D[D > np.partition(D, k, axis=1)[:, k, None]] = np.inf
        nbrs[a:b] = np.argsort(D, axis=1, kind="stable")[:, 1 : k + 1]
    return nbrs


def _knn_forms(nbrs: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degrees S 1 and the quadratic forms q = diag(F'SF) of the binary kNN
    graph S whose directed edges i -> nbrs[i, s] ``_knn_neighbours`` lists:
    S_ij = 1 where i = j or either of i -> j and j -> i is an edge, else 0.

    Each edge is coded as i * n + j with i < j; a sort of the codes keeps
    the first of each run, the undirected edges. Over them the degrees are
    1 + the edges at a row and q = sum f^2 + 2 sum f_i f_j, gathered
    _COLUMN_CHUNK values at a time. Memory is O(n k) beyond F.
    """
    n, k = nbrs.shape
    tails = np.repeat(np.arange(n), k)
    heads = nbrs.ravel()
    key = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    key.sort()
    i, j = np.divmod(key[np.r_[True, key[1:] != key[:-1]]], n)
    deg = 1.0 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    q = np.einsum("ij,ij->j", F, F)
    step = max(1, _COLUMN_CHUNK // F.shape[1])
    for a in range(0, i.size, step):
        q += 2.0 * np.einsum("ij,ij->j", F[i[a : a + step]], F[j[a : a + step]])
    return deg, q


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X, taken on the row divided by its
    largest magnitude and multiplied back, so that squaring cannot overflow
    where the norm itself is finite."""
    scale = np.abs(X).max(axis=1, initial=0.0)
    unit = X / np.where(scale > 0.0, scale, 1.0)[:, None]
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return scale * np.sqrt(np.einsum("ij,ij->i", unit, unit))
