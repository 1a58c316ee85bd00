"""Evaluation metrics and the synthetic recovery benchmark.

The KS statistic is exact: the empirical sup-difference over every
observed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, Dataset, standardize
from .gates import LOSS_VARIANTS, GateState, TrainConfig, TrainTrace, train
from .margins import MarginConfig, build_margin_model
from .scores import (
    SCORE_METHODS,
    KernelConfig,
    ScoreReport,
    _constant_features,
    laplacian_score,
    mls,
    select_top,
)
from .synth import SynthSpec, gen_setup

BENCH_RHOS = (0.90, 0.95, 0.97)
BENCH_SETUPS = (1, 2, 3)
METHODS = SCORE_METHODS + LOSS_VARIANTS
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass
class EvalReport:
    """One cell of the recovery grid: a method's accuracies over the draws
    of one (setup, rho)."""

    method: str
    repetitions: int
    mean: float
    std: float
    setup: int
    rho: float
    per_rep: list[float]
    warnings: list[str]


def selection_accuracy(selected, truth) -> float:
    """|selected intersect truth| / min(|selected|, |truth|)."""
    selected = set(int(i) for i in selected)
    truth = set(int(i) for i in truth)
    if not truth:
        raise ValueError("truth set is empty")
    if not selected:
        raise ValueError("selected set is empty")
    return len(selected & truth) / min(len(selected), len(truth))


def ks_statistic(a, b) -> tuple[float, float]:
    """Exact two-sample KS statistic and its asymptotic p-value.

    D is the sup over all observed points of |ECDF_a - ECDF_b|; the p-value
    is the Kolmogorov survival function (``_kolmogorov_sf``) at
    sqrt(n_e) * D with effective size n_e = |a||b| / (|a| + |b|).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.size
    cdf_b = np.searchsorted(b, everything, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_e = a.size * b.size / (a.size + b.size)
    p = _kolmogorov_sf(math.sqrt(n_e) * d)
    return d, min(max(p, 0.0), 1.0)


def _kolmogorov_sf(y: float) -> float:
    """P(K > y) for the Kolmogorov distribution, from whichever of its two
    theta series converges fast at y:

        1 - sqrt(2 pi) / y * sum_k exp(-(2k - 1)^2 pi^2 / (8 y^2))   y < 1
        2 sum_k (-1)^(k-1) exp(-2 k^2 y^2)                            y >= 1

    each summed over k >= 1 until a term no longer changes the sum, which
    takes at most four terms; 1 at y <= 0."""
    if y <= 0.0:
        return 1.0
    total, k = 0.0, 1
    if y < 1.0:
        c = -((math.pi / y) ** 2) / 8.0
        while total + (term := math.exp(c * (2 * k - 1) ** 2)) != total:
            total += term
            k += 1
        return 1.0 - _SQRT_2PI / y * total
    c = -2.0 * y * y
    while total + (term := math.exp(c * k * k)) != total:
        total += term if k % 2 else -term
        k += 1
    return 2.0 * total


def margin_weight_separation(
    ds: Dataset, config: MarginConfig, quantiles
) -> list[tuple[float, float, float]]:
    """KS separation of the margin weights u between the two label classes:
    one (quantile, D, p) row per quantile.

    The weights only depend on per-feature quantile memberships, so this is
    a label-free construction tested against the labels. Labels of one
    class are a DataError.
    """
    if ds.labels is None:
        raise ValueError("dataset has no labels")
    pos = ds.labels == 1
    if pos.all() or not pos.any():
        raise DataError("need both classes for the separation test")
    scaled, _ = standardize(ds)
    rows: list[tuple[float, float, float]] = []
    for q in quantiles:
        model = build_margin_model(scaled, replace(config, quantile=float(q)))
        d, p = ks_statistic(model.u[pos], model.u[~pos])
        rows.append((float(q), d, p))
    return rows


def score_dataset(
    ds: Dataset,
    method: str,
    margin_config: MarginConfig | None = None,
    kernel_config: KernelConfig | None = None,
    train_config: TrainConfig | None = None,
    sigma: float = GateState.sigma,
) -> tuple[ScoreReport, TrainTrace | None]:
    """Score every feature of ds with one of METHODS.

    ``ls`` and ``mls`` are closed-form scores. The gate methods train fresh
    gates (noise scale sigma) with train_config, whose loss variant is set
    to the method, and score each feature by its trained gate mean; their
    training trace comes back too, and training warnings go into the
    report, among them one for equal gate means and one for gates
    saturated at a clamp edge, both of the varying columns only. ``mls``
    and ``dufs-mls`` share one margin model built from margin_config, and
    report the same margin verdict. A constant column ranks last under
    every method: +inf for ``ls`` and ``mls``, -inf in a gate method's
    report, whose trace keeps the trained mean. Every method rejects a
    table whose features are all constant with a DataError.
    """
    if method == "ls":
        return laplacian_score(ds, kernel_config), None
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    model = None
    if method != "dufs":
        model = build_margin_model(ds, margin_config or MarginConfig())
    if method == "mls":
        return mls(ds, model), None
    constant = _constant_features(ds)
    config = replace(train_config or TrainConfig(), loss_variant=method)
    state = GateState.fresh(ds.n_features, sigma=sigma)
    trace = train(ds, config, state, model)
    report = ScoreReport(
        method=method, scores=np.where(constant, -np.inf, trace.mu),
        feature_names=list(ds.feature_names), warnings=list(trace.warnings),
    )
    # a constant column ranks last whatever its gate, so only the means of
    # the varying columns decide the order
    varying = trace.mu[~constant]
    if varying.size >= 2 and np.ptp(varying) == 0:
        report.warnings.append(
            "all gate means are equal; the selection is feature order"
        )
    # past a clamp edge by 2 sigma a fresh draw clamps the gate about 98%
    # of the time, so the order among such gates is noise
    gate = 0.5 + varying
    for edge, past in (("open", gate - 1.0), ("closed", -gate)):
        if np.count_nonzero(past > 2.0 * sigma) >= 2:
            report.warnings.append(
                f"two or more gates are saturated {edge}, past the clamp by 2 sigma;"
                " the order among them is noise"
            )
    return report, trace


def bench_margin_config(rho: float) -> MarginConfig:
    """Default margin policy for the recovery grid at contamination 1 - rho.

    The margin quantile has to cover the positive fraction, otherwise each
    margin holds only a random subset of the positives and their membership
    patterns fragment. The skew threshold must sit below the shifted
    features' skewness, which drops to about 0.39 by rho = 0.97; the usual
    0.5 cutoff flips them to two-sided margins and splits the cluster.
    """
    return MarginConfig(quantile=1.0 - rho, skew_right=0.25)


def run_recovery_benchmark(
    setups=BENCH_SETUPS,
    rhos=BENCH_RHOS,
    reps: int = 100,
    methods=("mls", "ls"),
    seed: int = 0,
    n_samples: int = 1000,
    margin_config: MarginConfig | None = None,
    train_config: TrainConfig | None = None,
) -> list[EvalReport]:
    """Repeated draw / score / select-5 / compare-to-truth over the grid.

    Every repetition derives its own generator seed from (seed, setup, rho,
    rep), and all methods see the same draw. Scores run on the values as
    generated: the shifted features carry inflated variance, and the
    variance denominator needs that contrast, so no standardization here.
    When margin_config is None each cell uses bench_margin_config(rho).
    The gate methods train with train_config, reseeded per repetition.
    Accuracies are reported in percent, std over repetitions with the
    population divisor. Each cell keeps the distinct warnings its method
    raised over the repetitions, in first-seen order. The cells come back
    ordered by setup, then rho, then method, each in the order given.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    for name, values in (("setups", setups), ("rhos", rhos), ("methods", methods)):
        if len(set(values)) < len(values):
            raise ValueError(f"repeated entry in {name}: {list(values)}")
    train_config = train_config or TrainConfig()
    cells: list[EvalReport] = []
    for setup in setups:
        for rho in rhos:
            cell_margin = margin_config or bench_margin_config(rho)
            accs: dict[str, list[float]] = {m: [] for m in methods}
            notes: dict[str, list[str]] = {m: [] for m in methods}
            for rep in range(reps):
                entropy = np.random.SeedSequence(
                    [seed, int(setup), int(round(rho * 1000)), rep]
                )
                child_seed = int(entropy.generate_state(1)[0])
                drawn = gen_setup(
                    SynthSpec(setup=setup, rho=rho, n_samples=n_samples, seed=child_seed)
                )
                truth = drawn.marginal_feature_indices
                rep_train = replace(train_config, seed=child_seed)
                for method in methods:
                    report, _ = score_dataset(
                        drawn.dataset, method, cell_margin, train_config=rep_train
                    )
                    picked = select_top(report, len(truth))
                    accs[method].append(100.0 * selection_accuracy(picked, truth))
                    notes[method].extend(report.warnings)
            for method in methods:
                values = accs[method]
                cells.append(
                    EvalReport(
                        method=method,
                        setup=setup,
                        rho=rho,
                        repetitions=reps,
                        mean=float(np.mean(values)),
                        std=float(np.std(values)),
                        per_rep=values,
                        warnings=list(dict.fromkeys(notes[method])),
                    )
                )
    return cells
