"""Stochastic feature gates and the two trainable selection losses.

A gate is z_r = clamp(0.5 + mu_r + eps_r, 0, 1) with Gaussian noise eps;
P(Z_r >= 0) = Phi((mu_r + 0.5) / sigma) is the smooth open-gate probability
that feeds the loss denominators. Both losses are implemented exactly as
stated, leading minus included; ``sign_flip`` negates them for callers who
want minimization to reward smooth (low-score) features instead.

Gradients are analytic in mu for a fixed noise draw and, for the graph
loss, a fixed kernel bandwidth; the clamp contributes subgradient zero at
its boundaries. Finite differences of the same frozen-everything loss are
the ground truth the tests compare against.

The graph loss ``dufs`` rebuilds its heat kernel W from the gated rows every
epoch. An epoch costs four n x n x d products: the Gram matrix behind the
distances, G = gated gated', W @ F and (W o G) @ F. ``train`` allocates the
two n x n buffers they fill, the kernel and W o G, once per run, and works
out F * F and its column sums before the first epoch. An overflowing loss
or gradient raises a DataError naming the feature.

The margin loss ``dufs-mls`` reduces to a closed form. Its kernel and
sample weights are frozen, and gating column r by z_r scales both the
column's numerator and its variance by z_r^2, so every live term is the
``mls`` score of the ungated feature:

    loss = -sum_{live r} mls_r / (m * sum_r P(Z_r >= 0) + delta)

Training computes those scores and variances once, so an epoch costs O(d).
Only the open-probability term moves mu, by the same amount for equal
means: from a fresh state every gate mean moves in lockstep and the
trained ranking is feature order. Rank by ``scores.mls`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data import DataError, Dataset
from .margins import MarginModel, _sq_distances, interaction_weights
from .scores import _mls_terms

VAR_GUARD = 1e-12  # below this a gated feature counts as switched off
LOSS_VARIANTS = ("dufs", "dufs-mls")
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass
class GateState:
    mu: np.ndarray
    sigma: float = 0.5
    delta: float = 1e-4
    m_gates: int | None = None  # defaults to the gate count
    sign_flip: bool = False

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("mu must be a non-empty 1-d vector")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        self.mu = mu
        if self.m_gates is None:
            self.m_gates = mu.size
        elif self.m_gates < 1:
            raise ValueError("m_gates must be >= 1")

    @classmethod
    def fresh(cls, n_features: int, **kwargs) -> "GateState":
        return cls(mu=np.zeros(n_features), **kwargs)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    learning_rate: float = 0.1
    seed: int = 0
    loss_variant: str = "dufs"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")


@dataclass
class TrainTrace:
    loss_history: np.ndarray
    mu: np.ndarray
    open_probabilities: np.ndarray
    no_margin_signal: bool = False


def sample_gates(state: GateState, rng: np.random.Generator) -> np.ndarray:
    """One stochastic gate draw, clamped into [0, 1]."""
    eps = rng.normal(0.0, state.sigma, state.mu.size)
    return np.clip(0.5 + state.mu + eps, 0.0, 1.0)


def open_prob(state: GateState) -> np.ndarray:
    """P(Z_r >= 0) = Phi((mu_r + 0.5) / sigma), elementwise."""
    return ndtr((state.mu + 0.5) / state.sigma)


def _denominator(state: GateState) -> float:
    return state.m_gates * float(open_prob(state).sum()) + state.delta


def _phi_over_sigma(state: GateState) -> np.ndarray:
    # d/dmu of Phi((mu + 0.5)/sigma)
    x = (state.mu + 0.5) / state.sigma
    return np.exp(-0.5 * x * x) / (_SQRT_2PI * state.sigma)


def dufs_bandwidth(gated: np.ndarray) -> float:
    """Per-epoch heat-kernel bandwidth: mean squared pairwise distance of
    the gated rows, floored at 1 so the kernel cannot collapse."""
    return max(1.0, _sq_distances(gated)[1])


def _dufs_buffers(F: np.ndarray, want_grad: bool) -> tuple:
    """What a dufs epoch needs that does not depend on z: F * F, its column
    sums, the kernel buffer and, for gradients, the n x n Gram buffer.
    ``train`` builds it once per run; the public functions once per call."""
    n = F.shape[0]
    with np.errstate(over="ignore"):  # the epoch names what overflows
        F2 = F * F
    gram = np.empty((n, n)) if want_grad else None
    return F2, F2.sum(axis=0), np.empty((n, n)), gram


def _check_finite(ds: Dataset, per_feature: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(per_feature))
    if bad.size:
        name = ds.feature_names[int(bad[0])]
        raise DataError(f"values too large: the dufs {what} of feature {name!r} overflows")


def _dufs_core(
    ds: Dataset,
    z: np.ndarray,
    state: GateState,
    bandwidth: float | None,
    want_grad: bool,
    buffers: tuple | None = None,
) -> tuple[float, np.ndarray | None]:
    F = ds.values
    F2, F2_sums, W, WG = buffers or _dufs_buffers(F, want_grad)
    # a bandwidth of None is taken from the same distances the kernel uses
    gated = F * z
    _, mean_sq = _sq_distances(gated, out=W)
    if bandwidth is None:
        bandwidth = max(1.0, mean_sq)
    W /= -bandwidth
    np.exp(W, out=W)
    dvec = W.sum(axis=1)  # at least 1: the diagonal of W is exactly 1

    # W @ gated = (W @ F) * z, so one product serves the trace and the
    # direct path; smooth_r = f_r'f_r - f_r' D^-1 W f_r and T = sum z^2 smooth
    with np.errstate(over="ignore", invalid="ignore"):
        Hf = (W @ F) / dvec[:, None]
        smooth = F2_sums - (F * Hf).sum(axis=0)
    _check_finite(ds, smooth, "loss")
    trace = float((z * z) @ smooth)
    denom = _denominator(state)
    loss = -trace / denom
    if state.sign_flip:
        loss = -loss
    if not want_grad:
        return loss, None

    # dT/dz splits into the direct path through the gated columns and the
    # kernel path through W and its degrees. The kernel path needs the
    # column sums and the product with F of P = W o (G / d_i - R_i / d_i^2),
    # where G = gated gated' and R = (W o G) 1; P's rows sum to 0. Both come
    # from WG = W o G and matvecs, so P is never formed. Raw values of large
    # magnitude overflow here (about x^4) before the distances do.
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(gated, gated.T, out=WG)
        WG *= W
        r2 = WG.sum(axis=1) / (dvec * dvec)
        P_colsums = (1.0 / dvec) @ WG - r2 @ W
        PF = (WG @ F) / dvec[:, None] - (r2 * dvec)[:, None] * Hf
        kernel_path = (2.0 * z / bandwidth) * (
            P_colsums @ F2 - 2.0 * (F * PF).sum(axis=0)
        )
        dT_dz = 2.0 * z * smooth + kernel_path
        open_mask = (z > 0.0) & (z < 1.0)
        grad = -(dT_dz * open_mask) / denom + trace * (
            state.m_gates * _phi_over_sigma(state)
        ) / denom**2
    _check_finite(ds, grad, "gradient")
    if state.sign_flip:
        grad = -grad
    return loss, grad


def dufs_loss(
    ds: Dataset, z: np.ndarray, state: GateState, bandwidth: float | None = None
) -> float:
    """Gated graph loss -Tr[F~' L F~] / (m * sum P(Z>=0) + delta) with the
    random-walk Laplacian of the heat kernel over gated rows.

    The bandwidth defaults to the gated-data heuristic; pass it explicitly
    to hold it fixed while mu varies (gradient checks do).
    """
    z = np.asarray(z, dtype=float)
    loss, _ = _dufs_core(ds, z, state, bandwidth, want_grad=False)
    return loss


def _margin_terms(F: np.ndarray, model: MarginModel) -> tuple[np.ndarray, np.ndarray]:
    # the ungated mls score and variance of every column: gating column r
    # by z_r scales its numerator and its variance alike by z_r^2
    scores, variances, _ = _mls_terms(F, interaction_weights(model).weights, model.u)
    return scores, variances


def _dufs_mls_core(
    terms: tuple[np.ndarray, np.ndarray],
    z: np.ndarray,
    state: GateState,
    want_grad: bool,
) -> tuple[float, np.ndarray | None]:
    scores, variances = terms
    live = z * z * variances > VAR_GUARD
    total = float(scores[live].sum())
    denom = _denominator(state)
    loss = -total / denom
    if state.sign_flip:
        loss = -loss
    if not want_grad:
        return loss, None

    # the live scores do not depend on z, so only the open-probability
    # mass in the denominator moves with mu
    grad = total * (state.m_gates * _phi_over_sigma(state)) / denom**2
    if state.sign_flip:
        grad = -grad
    return loss, grad


def dufs_mls_loss(
    ds: Dataset, z: np.ndarray, state: GateState, model: MarginModel
) -> float:
    """Margin-weighted gate loss: per-feature scores of the gated columns
    against the frozen margin kernel, summed, normalized by the open-gate
    mass, leading minus as stated. Features whose gated variance falls
    below the guard contribute zero; every other term is the closed-form
    ``mls`` score of the ungated feature.
    """
    z = np.asarray(z, dtype=float)
    loss, _ = _dufs_mls_core(_margin_terms(ds.values, model), z, state, want_grad=False)
    return loss


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
    through the gating, the kernel, the Laplacian, the variance, and the
    open-probability terms. Saturated gates get subgradient zero. The
    margin variant's gradient is its open-probability term alone.
    """
    z = np.asarray(z, dtype=float)
    if variant == "dufs":
        _, grad = _dufs_core(ds, z, state, bandwidth, want_grad=True)
    elif variant == "dufs-mls":
        if model is None:
            raise ValueError("dufs-mls gradient needs a margin model")
        _, grad = _dufs_mls_core(_margin_terms(ds.values, model), z, state, want_grad=True)
    else:
        raise ValueError(f"variant must be one of {LOSS_VARIANTS}, got {variant!r}")
    return grad


def train(
    ds: Dataset,
    config: TrainConfig,
    state: GateState,
    model: MarginModel | None = None,
) -> TrainTrace:
    """Train the gate means with Adam for a fixed epoch budget.

    One fresh noise draw per epoch; the graph variant refreshes its kernel
    bandwidth from the gated data at the top of each epoch and holds it
    fixed for that epoch's gradient, while the margin variant scores the
    features once before the first epoch. Deterministic for a given seed.
    """
    if config.loss_variant == "dufs-mls" and model is None:
        raise ValueError("loss_variant 'dufs-mls' needs a margin model")
    rng = np.random.default_rng(config.seed)
    work = GateState(
        mu=state.mu.copy(),
        sigma=state.sigma,
        delta=state.delta,
        m_gates=state.m_gates,
        sign_flip=state.sign_flip,
    )
    F = ds.values
    if config.loss_variant == "dufs-mls":
        terms = _margin_terms(F, model)
    else:
        buffers = _dufs_buffers(F, want_grad=True)
    history = np.empty(config.epochs)
    # adam accumulators
    m_acc = np.zeros_like(work.mu)
    v_acc = np.zeros_like(work.mu)
    beta1, beta2, eps_opt = 0.9, 0.999, 1e-8

    for epoch in range(config.epochs):
        z = sample_gates(work, rng)
        if config.loss_variant == "dufs":
            loss, grad = _dufs_core(ds, z, work, None, want_grad=True, buffers=buffers)
        else:
            loss, grad = _dufs_mls_core(terms, z, work, want_grad=True)
        if not math.isfinite(loss):
            raise ValueError(f"non-finite loss at epoch {epoch}")
        history[epoch] = loss
        m_acc = beta1 * m_acc + (1.0 - beta1) * grad
        v_acc = beta2 * v_acc + (1.0 - beta2) * grad * grad
        m_hat = m_acc / (1.0 - beta1 ** (epoch + 1))
        v_hat = v_acc / (1.0 - beta2 ** (epoch + 1))
        work.mu = work.mu - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps_opt)

    no_signal = bool(model is not None and not model.u.any())
    return TrainTrace(
        loss_history=history,
        mu=work.mu,
        open_probabilities=open_prob(work),
        no_margin_signal=no_signal,
    )
