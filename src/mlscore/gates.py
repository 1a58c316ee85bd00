"""Stochastic feature gates and the two trainable selection losses.

A gate is z_r = clamp(0.5 + mu_r + eps_r, 0, 1) with Gaussian noise eps;
P(Z_r >= 0) = Phi((mu_r + 0.5) / sigma) is the smooth open-gate probability
that feeds the loss denominator. It is taken from ``math.erfc``, so gate
training, like every other path, needs numpy only.

Both losses have one shape, DUFS's: a Laplacian term N(z) of the gated
features over the open-gate mass, leading minus included,

    loss = -N(z) / (m * sum_r P(Z_r >= 0) + delta)

where m is the number of gates and delta = 1e-4 keeps the denominator
above 0 when every gate is closed; ``GateState`` derives the first from mu
and holds the second as a constant. The two differ only in N.

Gradients are analytic in mu for a fixed noise draw and, for the graph
loss, a fixed kernel bandwidth; the clamp contributes subgradient zero at
its boundaries. Finite differences of the same frozen-everything loss are
the ground truth the tests compare against. ``train`` steps mu -= lr * grad,
so lr is set against the gradient's size. The ``dufs`` gradient grows as
n / d^2: on raw ``bench`` draws at n = 1000 it is about 10 at d = 10 (at
lr 0.001 a gate mean moves about 1 per 100 epochs) and 0.1 at d = 100.

The graph loss ``dufs`` takes N = Tr[F~' (I - D^-1 W) F~] over the gated
features F~, with the heat kernel W of the gated rows rebuilt every
epoch from the open, varying columns only and streamed over row blocks,
so no n x n matrix is held: memory is O(128 n + n d), as for ``ls`` and
``mls``. ``_epoch_step`` says how an epoch runs.

The margin loss ``dufs-mls`` reduces to a closed form. Its kernel and
sample weights are frozen, and gating column r by z_r scales both the
column's numerator and its variance by z_r^2, so every live term is the
``mls`` score of the ungated feature: N = sum_{live r} mls_r. A column is
live while its gated variance z_r^2 Var_r is above ``VAR_GUARD``, and
``scores._mls_terms`` gives a constant column variance 0, so ``dufs-mls``
never opens a column that ``mls`` scores +inf. Its margin verdict, the
warning ``mls`` gives when every varying feature scores 0, reaches the
trace.

Training computes those scores and variances once, so an epoch costs O(d).
Only the open-probability term moves mu, by the same amount for equal
means: from a fresh state every gate mean moves in lockstep and the
trained ranking is feature order. Rank by ``scores.mls`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .margins import (
    MarginModel,
    _block_buffer,
    _centre,
    _centred,
    _check_scale,
    _mean_pair_sq,
    _normed,
    _sq_blocks,
)
from .scores import _check_finite, _mls_terms

VAR_GUARD = 1e-12  # below this a gated feature counts as switched off
LOSS_VARIANTS = ("dufs", "dufs-mls")
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)


@dataclass
class GateState:
    mu: np.ndarray
    sigma: float = 0.5
    delta = 1e-4  # unannotated: a class constant, not an __init__ argument

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("mu must be a non-empty 1-d vector")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        self.mu = mu

    @property
    def m_gates(self) -> int:
        return self.mu.size

    @classmethod
    def fresh(cls, n_features: int, **kwargs) -> "GateState":
        return cls(mu=np.zeros(n_features), **kwargs)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    learning_rate: float = 0.001
    seed: int = 0
    loss_variant: str = "dufs"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")


@dataclass
class TrainTrace:
    loss_history: np.ndarray
    mu: np.ndarray
    open_probabilities: np.ndarray
    warnings: list[str] = field(default_factory=list)  # the margin verdict


def sample_gates(state: GateState, rng: np.random.Generator) -> np.ndarray:
    """One stochastic gate draw, clamped into [0, 1]."""
    eps = rng.normal(0.0, state.sigma, state.mu.size)
    return np.clip(0.5 + state.mu + eps, 0.0, 1.0)


def _gate_x(state: GateState) -> np.ndarray:
    """x_r = (mu_r + 0.5) / sigma, the argument of every open-probability
    term; an epoch forms it once."""
    return (state.mu + 0.5) / state.sigma


def _phi(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2, elementwise,
    from ``math.erfc``. The argument is x times the double nearest
    1/sqrt(2), as in Cephes' ndtr: in the left tail an ulp of the argument
    moves erfc by about x^2 ulps, so both then round alike."""
    args = (x * -_SQRT1_2).tolist()
    return 0.5 * np.fromiter(map(math.erfc, args), dtype=float, count=len(args))


def open_prob(state: GateState) -> np.ndarray:
    """P(Z_r >= 0) = Phi((mu_r + 0.5) / sigma), elementwise. Computed with
    ``math.erfc``, so no scipy is imported; it matches scipy's ndtr to 1e-13
    relative for (mu_r + 0.5) / sigma in [-30, 30]."""
    return _phi(_gate_x(state))


def _ratio(
    state: GateState, total: float, d_total: np.ndarray | None
) -> tuple[float, np.ndarray]:
    """The loss -total / (m * sum_r P(Z_r >= 0) + delta) of both variants
    and its gradient in mu, given d_total, the gradient of total in mu;
    None means total does not move with mu, and only the open-probability
    mass does. An overflow in the gradient is left for the caller's
    finiteness check to name."""
    x = _gate_x(state)
    denom = state.m_gates * float(_phi(x).sum()) + state.delta
    loss = -total / denom
    with np.errstate(over="ignore", invalid="ignore"):
        # d/dmu of Phi((mu + 0.5)/sigma)
        phi_over_sigma = np.exp(-0.5 * x * x) / (_SQRT_2PI * state.sigma)
        grad = total * (state.m_gates * phi_over_sigma) / denom**2
        if d_total is not None:
            grad = -d_total / denom + grad
    return loss, grad


def dufs_bandwidth(gated: np.ndarray) -> float:
    """Per-epoch heat-kernel bandwidth: mean squared pairwise distance of
    the gated rows, floored at 1 so the kernel cannot collapse.

    ``train`` takes the same mean from its own distances, of the features
    centred once per run and then gated, (F - c_F) z, where this function
    centres the gated rows F z. The two round differently, so they agree
    only to rounding, on standardized features too: by about 1e-16
    relative there, and by about 5e-13 with column means of 1e4."""
    return max(1.0, _mean_pair_sq(_centred(gated).sq))


def _epoch_step(ds: Dataset, variant: str, model: MarginModel | None):
    """(step, warnings): step(z, state, bandwidth=None) -> (loss, grad) of
    ``variant`` for the gate draw z, and its margin verdict, empty for
    ``dufs``. This is the only place that picks a variant's loss or checks
    for its margin model. What an epoch needs that does not depend on z is
    worked out here, once: ``train`` makes one step per run, and the public
    loss functions one per call, so they run the gradient's work and checks
    too.

    ``dufs-mls`` takes the ungated ``mls`` score and variance of every
    column from ``_mls_terms``; gating column r by z_r scales its
    numerator and its variance alike by z_r^2, so the live scores do not
    depend on z and only the open-probability mass moves with mu. Its step
    ignores the bandwidth, and the warnings are the margin verdict of that
    call, the lines ``mls`` reports.

    ``dufs`` centres the rows once, Fc = F - c_F at c_F =
    ``margins._centre(F)``, a constant column at exactly 0, column-major;
    checks that no column's squares overflow; and takes the column sums of
    Fc and of Fc * Fc and which columns vary. It also makes the buffers an
    epoch fills, each sized for every column: the n x (k + 2) array that
    ``margins._normed`` completes, a row block of the kernel W, of W o G
    and of the left operand of their distances, and the products W [X | 1]
    and (W o G) [X_mid | 1]. Buffers this size made fresh every epoch can
    be handed back to the system and faulted in again, a page fault per
    4 kB, which at n = 300 made an epoch up to 75% slower. An epoch gathers
    its k live columns, those with an open gate that vary, from Fc into the
    first k columns of that array and scales them by their gates, the ones
    at a clamp edge first, so that the ones column follows the gates inside
    it, X_mid; the n x k arrays are held transposed, so the gather writes
    whole rows. The step takes the kernel over row blocks [a, b) of W and
    of W o G: each block fills rows a..b-1 of both products, whose last
    columns are the degrees d and R = (W o G) 1, and adds its rows' share
    to the column sums of P, so the loss and gradient are formed after the
    last block from n and n x k arrays only, with the row factors 1/d_i and
    R_i/d_i^2 applied there once. A draw with no live column has a trace
    of 0 and builds no kernel. A bandwidth of None is taken from the
    distances the kernel uses.

    The blocks are full rows, although W and W o G = W o h_j - (W o D) / 2
    are symmetric up to a column scaling. Over the upper triangle, summed
    in both directions, the two products keep their n^2 (k + 1) + n^2
    (k_mid + 1) multiply-adds, k_mid the live gates inside the clamp. Only
    the distance product, n^2 (k + 2), would halve, but the column sums of
    P need every row's d_i and R_i first, which a block of the upper
    triangle does not finish: that takes a second kernel pass, or products
    with the squared live columns, about n^2 k_mid more. At k = 84 and
    k_mid = 69, about what the ``gate-training`` benchmark runs, it saves
    43 n^2 and adds 69 n^2.

    The step calls the ``margins`` and ``scores`` helpers through this
    module's globals, so whatever wraps them there sees every epoch."""
    if variant == "dufs-mls":
        if model is None:
            raise ValueError("dufs-mls needs a margin model")
        scores, variances, verdict = _mls_terms(ds, model)

        def mls_step(z, state, bandwidth=None):
            live = z * z * variances > VAR_GUARD
            return _ratio(state, float(scores[live].sum()), None)

        return mls_step, verdict
    if variant != "dufs":
        raise ValueError(f"variant must be one of {LOSS_VARIANTS}, got {variant!r}")

    F = ds.values
    n, d = F.shape
    centre = _centre(F)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # column-major, so an epoch gathers its live columns as rows of Fc'
        Fc = np.subtract(F, centre, order="F")
        Fc2_sums = np.einsum("ij,ij->j", Fc, Fc)
    # a column whose squares overflow has no finite loss at any gate: closed
    # it adds 0 x inf, open it overflows the distances
    _check_finite(ds, Fc2_sums, "dufs loss")
    Fc_sums = Fc.sum(axis=0)
    varies = Fc.any(axis=0)
    # an epoch's n x k arrays are held transposed, k x n, in these buffers
    aug_buf = np.empty((d + 2) * n)
    HX_buf, PX_buf = np.empty((d + 1) * n), np.empty((d + 1) * n)
    W_buf, WG_buf = _block_buffer(n), _block_buffer(n)
    left = _block_buffer(n, d + 2)

    def dufs_step(z, state, bandwidth=None):
        if bandwidth is not None:
            _check_scale("bandwidth", bandwidth)
        # a closed gate or a constant column gives a column of exact 0s in
        # the gated rows, which adds exactly 0 to every product, so only the
        # k live columns enter. Those at a clamp edge, where dz/dmu = 0, come
        # first: the others then sit next to the ones column of aug
        inner = (z > 0.0) & (z < 1.0)
        live = varies & (z != 0.0)
        edge, mid = np.flatnonzero(live & ~inner), np.flatnonzero(live & inner)
        cols = np.concatenate((edge, mid))
        k, k1 = cols.size, edge.size
        if not k:  # a trace of 0 that no gate moves
            return _ratio(state, 0.0, None)
        zc = z[cols]
        # the gated rows F z centred at c = c_F z are X = Fc z, the first k
        # columns of aug; gating can make rows equal, so their norms and
        # twins are taken every epoch. take fills a temporary copy of out
        # when mode is "raise", and writes to it directly otherwise
        augT = aug_buf[: (k + 2) * n].reshape(k + 2, n)
        XT = np.take(Fc.T, cols, axis=0, out=augT[:k], mode="clip")
        with np.errstate(over="ignore", invalid="ignore"):  # _normed names it
            XT *= zc[:, None]
        centred = _normed(augT.T)
        if bandwidth is None:  # dufs_bandwidth, from the rows the kernel uses
            bandwidth = max(1.0, _mean_pair_sq(centred.sq))
        HXT = HX_buf[: (k + 1) * n].reshape(k + 1, n)
        PXT = PX_buf[: (k - k1 + 1) * n].reshape(k - k1 + 1, n)

        # dT/dz splits into the direct path through the gated columns and
        # the kernel path through W and its degrees. The kernel path needs
        # the column sums and the product with X of P = W o (G / d_i - R_i /
        # d_i^2), where G = gated gated' and R = (W o G) 1; P's rows sum to
        # 0. Both come from WG = W o G and matvecs, so P is never formed. A
        # constant added to row i of G adds d_i times it to R_i and leaves P
        # as it is, and G_ij = h_i + h_j + |c|^2 - D_ij / 2 with h = |X_i|^2
        # / 2 + X_i . c, so G is taken as h_j - D_ij / 2 from the distances
        # the kernel uses: no second Gram product, and no cancellation of
        # terms of size |c|^2 on rows far from the origin.
        with np.errstate(over="ignore", invalid="ignore"):
            c = centre[cols] * zc
            h = 0.5 * centred.sq + c @ XT
            P_colsums = np.zeros(n)
            scale = -1.0 / bandwidth
            for a, b, W in _sq_blocks(centred, upper=False, buf=W_buf, left=left):
                WG = WG_buf[: W.size].reshape(W.shape)
                np.multiply(W, -0.5, out=WG)
                WG += h
                W *= scale
                np.exp(W, out=W)
                WG *= W
                # the ones column after X turns W [X | 1] into W X and the
                # degrees d, and (W o G) [X_mid | 1] into (W o G) X_mid and R:
                # the gradient reads (W o G) X only where 0 < z < 1
                np.matmul(W, augT[: k + 1].T, out=HXT[:, a:b].T)
                np.matmul(WG, augT[k1 : k + 1].T, out=PXT[:, a:b].T)
                d_blk, r_blk = HXT[k, a:b], PXT[-1, a:b]
                P_colsums += (1.0 / d_blk) @ WG - (r_blk / (d_blk * d_blk)) @ W
            inv_d = 1.0 / HXT[k]  # d is at least 1: the diagonal of W is 1
            HX = HXT[:k]
            # T_r = g_r'(I - D^-1 W) g_r for the gated column g_r = x_r +
            # c_r 1, and T = sum_r T_r. With (I - D^-1 W) 1 = 0 it is x_r'x_r
            # - x_r' D^-1 W x_r + c_r 1'(x_r - D^-1 W x_r), with x_r = fc_r
            # z_r: no term of size c_r^2 to cancel
            T = (zc * zc * Fc2_sums[cols] - np.einsum("j,ij,ij->i", inv_d, XT, HX)
                 + c * (zc * Fc_sums[cols] - HX @ inv_d))
        per_feature = np.zeros(d)
        per_feature[cols] = T
        _check_finite(ds, per_feature, "dufs loss")
        trace = float(T.sum())

        with np.errstate(over="ignore", invalid="ignore"):
            # the kernel path takes sum_ij P_ij (x_i - x_j)^2, as P's rows sum
            # to 0: it does not move with c, so it is taken on X; P X = D^-1
            # (W o G) X - R D^-2 W X. Both it and T_r are z_r^2 times their
            # value on fc_r, so dT/dz_r = 2 (T_r + kernel path / bandwidth) /
            # z_r; dz/dmu is 1 inside the clamp and 0 at its edges
            Xm = XT[k1:]
            pf = (np.einsum("j,ij,ij->i", inv_d, Xm, PXT[:-1])
                  - np.einsum("j,ij,ij->i", PXT[-1] * inv_d * inv_d, Xm, HX[k1:]))
            kernel_path = np.einsum("j,ij,ij->i", P_colsums, Xm, Xm) - 2.0 * pf
            dT_dmu = np.zeros(d)
            dT_dmu[mid] = 2.0 * (T[k1:] + kernel_path / bandwidth) / zc[k1:]
        loss, grad = _ratio(state, trace, dT_dmu)
        _check_finite(ds, grad, "dufs gradient")
        return loss, grad

    return dufs_step, []


def dufs_loss(
    ds: Dataset, z: np.ndarray, state: GateState, bandwidth: float | None = None
) -> float:
    """Gated graph loss -Tr[F~' L F~] / (m * sum P(Z>=0) + delta) with the
    random-walk Laplacian of the heat kernel over gated rows.

    The bandwidth defaults to the gated-data heuristic; pass it explicitly
    to hold it fixed while mu varies (gradient checks do). One that is not
    positive with a finite reciprocal is a ValueError.
    """
    step, _ = _epoch_step(ds, "dufs", None)
    return step(np.asarray(z, dtype=float), state, bandwidth)[0]


def dufs_mls_loss(
    ds: Dataset, z: np.ndarray, state: GateState, model: MarginModel
) -> float:
    """Margin-weighted gate loss: per-feature scores of the gated columns
    against the frozen margin kernel, summed, normalized by the open-gate
    mass, leading minus as stated. Features whose gated variance falls
    below the guard contribute zero; every other term is the closed-form
    ``mls`` score of the ungated feature.
    """
    step, _ = _epoch_step(ds, "dufs-mls", model)
    return step(np.asarray(z, dtype=float), state)[0]


def loss_gradient(
    ds: Dataset,
    z: np.ndarray,
    state: GateState,
    variant: str,
    model: MarginModel | None = None,
    bandwidth: float | None = None,
) -> np.ndarray:
    """Analytic d loss / d mu for a fixed gate draw.

    For the graph variant the kernel bandwidth must be supplied (or it is
    computed once from the current gated rows); differentiation runs
    through the gating, the kernel, the Laplacian and the open-probability
    terms. Saturated gates get subgradient zero. The
    margin variant's gradient is its open-probability term alone.
    """
    step, _ = _epoch_step(ds, variant, model)
    return step(np.asarray(z, dtype=float), state, bandwidth)[1]


def train(
    ds: Dataset,
    config: TrainConfig,
    state: GateState,
    model: MarginModel | None = None,
) -> TrainTrace:
    """Train the gate means by plain gradient descent, mu -= lr * grad, for
    a fixed epoch budget, so the gradient's ranking of the features carries
    into mu (lr against the gradient's size: see the module docstring).

    One fresh noise draw per epoch; the graph variant refreshes its kernel
    bandwidth from the gated data at the top of each epoch and holds it
    fixed for that epoch's gradient, while the margin variant scores the
    features once before the first epoch and passes on its margin verdict
    in the trace's warnings. Deterministic for a given seed.
    """
    step, warnings = _epoch_step(ds, config.loss_variant, model)
    rng = np.random.default_rng(config.seed)
    work = replace(state, mu=state.mu.copy())
    history = np.empty(config.epochs)
    for epoch in range(config.epochs):
        z = sample_gates(work, rng)
        loss, grad = step(z, work)
        if not math.isfinite(loss):
            raise ValueError(f"non-finite loss at epoch {epoch}")
        history[epoch] = loss
        work.mu = work.mu - config.learning_rate * grad
    return TrainTrace(
        loss_history=history,
        mu=work.mu,
        open_probabilities=open_prob(work),
        warnings=warnings,
    )
