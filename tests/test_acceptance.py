"""Acceptance suite: nine numbered end-to-end criteria.

Each test prints one `criterion N: PASS/FAIL (...)` line straight to the
real stdout so a plain `pytest -v` run doubles as a checklist, then asserts.
Tolerances and budgets are stated inline next to each check.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mlscore.cli import main
from mlscore.data import Dataset, standardize
from mlscore.evaluation import (
    ks_statistic,
    margin_weight_separation,
    run_recovery_benchmark,
)
from mlscore.gates import (
    GateState,
    dufs_bandwidth,
    dufs_loss,
    dufs_mls_loss,
    loss_gradient,
    open_prob,
)
from mlscore.margins import MarginConfig, build_margin_model
from mlscore.scores import laplacian_score, mls
from mlscore.synth import SynthSpec, gen_setup

from oracles import margin_kernel_dense, mls_naive


@pytest.fixture
def check(capfd):
    """Print one report line on the real stdout, then assert."""

    def _check(num, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\ncriterion {num}: {status} ({detail})", flush=True)
        assert ok, f"criterion {num}: {detail}"

    return _check


def _random_instance(rng, n, d):
    values = rng.standard_normal((n, d))
    names = [f"f{j:02d}" for j in range(d)]
    scaled, _ = standardize(Dataset(values=values, feature_names=names))
    return scaled


# ------------------------------------------------- 1: matrix form == naive


def test_criterion_1_matrix_equals_naive(check):
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        ds = _random_instance(rng, 50, 10)
        model = build_margin_model(ds, MarginConfig())
        fast = mls(ds, model).scores
        W = margin_kernel_dense(model, ds.values)
        for r in range(ds.n_features):
            slow = mls_naive(ds.values[:, r], W, model.u)
            rel = abs(fast[r] - slow) / max(abs(slow), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    check(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"max rel diff {worst:.3e} over 50 datasets, {elapsed:.2f}s",
    )


# --------------------------------------- 2 and 3: recovery grid, 100 reps


@pytest.fixture(scope="module")
def recovery_grid():
    started = time.perf_counter()
    reports = run_recovery_benchmark(reps=100, methods=("mls", "ls"), seed=0)
    return reports, time.perf_counter() - started


def _cell(reports, method, setup, rho):
    for rep in reports:
        if rep.method == method and rep.setup == setup and rep.rho == rho:
            return rep
    raise AssertionError(f"missing grid cell {method}/{setup}/{rho}")


def test_criterion_2_mls_recovers_every_cell(check, recovery_grid):
    reports, elapsed = recovery_grid
    means = [
        _cell(reports, "mls", setup, rho).mean
        for setup in (1, 2, 3)
        for rho in (0.90, 0.95, 0.97)
    ]
    check(
        2,
        min(means) >= 95.0 and elapsed < 300.0,
        f"min MLS cell mean {min(means):.1f}, grid ran in {elapsed:.1f}s",
    )


def test_criterion_3_ls_contrast(check, recovery_grid):
    reports, _ = recovery_grid
    shifted = [
        _cell(reports, "ls", setup, rho).mean
        for setup in (2, 3)
        for rho in (0.90, 0.95, 0.97)
    ]
    balanced = _cell(reports, "ls", 1, 0.90).mean
    check(
        3,
        max(shifted) <= 10.0 and 60.0 <= balanced <= 100.0,
        f"LS max over shifted setups {max(shifted):.1f}, "
        f"easiest cell {balanced:.1f}",
    )


# -------------------------------------------------- 4: analytic gradients


def _fd_gradient(loss_of_mu, mu, h=1e-4):
    grad = np.zeros_like(mu)
    for j in range(mu.size):
        up = mu.copy()
        up[j] += h
        down = mu.copy()
        down[j] -= h
        grad[j] = (loss_of_mu(up) - loss_of_mu(down)) / (2.0 * h)
    return grad


def test_criterion_4_gradients_match_finite_differences(check):
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        ds = _random_instance(rng, 20, 5)
        model = build_margin_model(ds, MarginConfig())
        mu = rng.normal(0.0, 0.3, 5)
        eps = rng.normal(0.0, 0.5, 5)
        z = np.clip(0.5 + mu + eps, 0.0, 1.0)
        v = 0.5 + mu + eps
        checkable = (v > 1e-2) & (v < 1.0 - 1e-2)
        bandwidth = dufs_bandwidth(ds.values * z)
        state = GateState(mu=mu)

        def loss_of(variant):
            def f(mu_trial):
                trial = GateState(mu=mu_trial)
                z_trial = np.clip(0.5 + mu_trial + eps, 0.0, 1.0)
                if variant == "dufs":
                    return dufs_loss(ds, z_trial, trial, bandwidth=bandwidth)
                return dufs_mls_loss(ds, z_trial, trial, model)

            return f

        for variant in ("dufs", "dufs-mls"):
            analytic = loss_gradient(
                ds, z, state, variant, model=model, bandwidth=bandwidth
            )
            numeric = _fd_gradient(loss_of(variant), mu)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            if checkable.any():
                worst = max(worst, float(rel[checkable].max()))
    elapsed = time.perf_counter() - started
    check(
        4,
        worst <= 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.3e} over 10 instances x 2 variants, {elapsed:.1f}s",
    )


# ---------------------------------------------- 5: gate-identity at z = 1


def test_criterion_5_open_gate_loss_matches_score_sum(check):
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        ds = _random_instance(rng, 30, 6)
        model = build_margin_model(ds, MarginConfig())
        state = GateState(mu=rng.normal(0.0, 0.3, ds.n_features))
        z = np.ones(ds.n_features)
        denom = state.m_gates * open_prob(state).sum() + state.delta
        numerator = -dufs_mls_loss(ds, z, state, model) * denom
        target = float(mls(ds, model).scores.sum())
        diff = abs(numerator - target) / max(abs(target), 1.0)
        worst = max(worst, diff)
    check(5, worst <= 1e-9, f"max rel gap {worst:.3e} over 10 instances")


# --------------------------------------- 6: margin weights separate classes


def test_criterion_6_margin_weights_separate_classes(check):
    drawn = gen_setup(SynthSpec(setup=1, rho=0.9, n_samples=1000, seed=42))
    ds = drawn.dataset
    quantiles = (0.025, 0.05, 0.1)
    config = MarginConfig()
    pvals = [p for _, _, p in margin_weight_separation(ds, config, quantiles)]

    rng = np.random.default_rng(777)
    false_hits = 0
    for _ in range(10):
        shuffled = Dataset(
            values=ds.values,
            feature_names=ds.feature_names,
            labels=rng.permutation(ds.labels),
        )
        noise = margin_weight_separation(shuffled, config, quantiles)
        false_hits += sum(p < 0.05 for _, _, p in noise)
    check(
        6,
        max(pvals) < 0.01 and false_hits <= 2,
        f"max real p {max(pvals):.2e}, {false_hits}/30 shuffled combos below 0.05",
    )


# ------------------------------------------- 7: KS metric matches brute force


def _ks_sup(a, b):
    best = 0.0
    for x in np.concatenate([a, b]):
        gap = abs(np.mean(a <= x) - np.mean(b <= x))
        best = max(best, float(gap))
    return best


def test_criterion_7_metrics_match_brute_force(check):
    rng = np.random.default_rng(11)
    ks_exact = 0
    for _ in range(100):
        a = rng.integers(0, 10, size=rng.integers(5, 40)) / 3.0
        b = rng.integers(0, 10, size=rng.integers(5, 40)) / 3.0
        fast, _ = ks_statistic(a, b)
        ks_exact += fast == _ks_sup(a, b)
    check(7, ks_exact == 100, f"ks exact {ks_exact}/100")


# ------------------------------------------- 8: CLI rerun byte determinism


def _run_twice_and_compare(argv, outputs):
    assert main(argv) == 0
    first = {path: Path(path).read_bytes() for path in outputs}
    assert main(argv) == 0
    mismatched = []
    for path in outputs:
        second = Path(path).read_bytes()
        if str(path).endswith(".manifest.json"):
            a = json.loads(first[path])
            b = json.loads(second)
            a.pop("timestamp")
            b.pop("timestamp")
            if a != b:
                mismatched.append(path)
        elif second != first[path]:
            mismatched.append(path)
    return mismatched


def test_criterion_8_cli_reruns_are_byte_identical(check, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "data.csv"
    jobs = [
        (
            ["synth", "--setup", "1", "--rho", "0.9", "--n", "80", "--seed", "4",
             "--output", str(data)],
            [data, Path(str(data) + ".manifest.json")],
        ),
        (
            ["score", "--method", "mls", "--input", str(data),
             "--label-col", "label", "--output", str(tmp_path / "scores.csv")],
            [tmp_path / "scores.csv",
             Path(str(tmp_path / "scores.csv") + ".manifest.json")],
        ),
        (
            ["select", "--method", "dufs", "--num-features", "3",
             "--input", str(data), "--label-col", "label", "--epochs", "10",
             "--seed", "5", "--output", str(tmp_path / "sel.csv")],
            [tmp_path / "sel.csv", tmp_path / "sel-trace.json",
             Path(str(tmp_path / "sel.csv") + ".manifest.json")],
        ),
        (
            ["validate-margin", "--input", str(data), "--label-col", "label",
             "--quantiles", "0.05,0.1", "--output", str(tmp_path / "ks.csv")],
            [tmp_path / "ks.csv",
             Path(str(tmp_path / "ks.csv") + ".manifest.json")],
        ),
        (
            ["bench", "--reps", "2", "--setups", "1", "--rhos", "0.9",
             "--methods", "mls,ls", "--seed", "1",
             "--output", str(tmp_path / "grid")],
            [tmp_path / "grid-summary.csv", tmp_path / "grid-reps.csv",
             Path(str(tmp_path / "grid-summary.csv") + ".manifest.json")],
        ),
    ]
    mismatched = []
    for argv, outputs in jobs:
        mismatched += _run_twice_and_compare(argv, outputs)
    check(
        8,
        not mismatched,
        "all five subcommands rerun identically"
        if not mismatched
        else f"drift in {sorted(str(p) for p in mismatched)}",
    )


# ------------------------------------- 9: invariants at 1000 trials apiece


def _trial_kernel(rng, n):
    points = rng.standard_normal((n, 2))
    gaps = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    return np.exp(-gaps)


def test_criterion_9_invariants_hold_over_1000_trials(check):
    rng = np.random.default_rng(99)
    failures = []

    worst_scale = 0.0
    for _ in range(1000):
        n = int(rng.integers(8, 16))
        f = rng.standard_normal(n)
        weights = _trial_kernel(rng, n)
        u = rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.3)
        base = mls_naive(f, weights, u)
        a = float(rng.uniform(0.1, 10.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        scaled = mls_naive(a * f, weights, u)
        worst_scale = max(worst_scale, abs(scaled - base) / max(abs(base), 1.0))
    if worst_scale > 1e-9:
        failures.append(f"scale {worst_scale:.2e}")

    worst_perm = 0.0
    config = MarginConfig(quantile=0.2)
    for _ in range(1000):
        ds = _random_instance(rng, 10, 3)
        perm = rng.permutation(10)
        shuffled = Dataset(
            values=ds.values[perm], feature_names=ds.feature_names
        )
        base = mls(ds, build_margin_model(ds, config)).scores
        moved = mls(shuffled, build_margin_model(shuffled, config)).scores
        gap = np.abs(moved - base) / np.maximum(np.abs(base), 1.0)
        worst_perm = max(worst_perm, float(gap.max()))
        base_ls = laplacian_score(ds).scores
        moved_ls = laplacian_score(shuffled).scores
        gap = np.abs(moved_ls - base_ls) / np.maximum(np.abs(base_ls), 1.0)
        worst_perm = max(worst_perm, float(gap.max()))
    if worst_perm > 1e-9:
        failures.append(f"permutation {worst_perm:.2e}")

    for _ in range(1000):
        ds = _random_instance(rng, 15, 4)
        model = build_margin_model(ds, MarginConfig(quantile=0.25, k=2))
        counts = model.counts
        u = model.u
        below = counts < model.config.k
        if not (u[below] == 0.0).all():
            failures.append("u nonzero below k")
            break
        kept = ~below
        order = np.argsort(counts[kept], kind="stable")
        if not (np.diff(u[kept][order]) >= 0.0).all():
            failures.append("u not monotone in margin count")
            break

    for _ in range(1000):
        f = rng.standard_normal(20)
        lo_q, hi_q = sorted(rng.uniform(0.02, 0.48, size=2))
        if lo_q == hi_q:
            continue
        # skewness thresholds that force the right, left or two-sided margin
        skew_right, skew_left = (
            (-1e308, -math.inf), (math.inf, 1e308), (math.inf, -math.inf)
        )[int(rng.integers(3))]
        ds = Dataset(values=f[:, None], feature_names=["f"])
        narrow = build_margin_model(
            ds, MarginConfig(quantile=lo_q, skew_right=skew_right, skew_left=skew_left)
        ).membership
        wide = build_margin_model(
            ds, MarginConfig(quantile=hi_q, skew_right=skew_right, skew_left=skew_left)
        ).membership
        if (narrow & ~wide).any():
            failures.append("margin mask not monotone in quantile")
            break

    for _ in range(1000):
        ds = _random_instance(rng, 12, 4)
        model = build_margin_model(ds, MarginConfig(quantile=0.2))
        W = margin_kernel_dense(model, ds.values)
        if not (
            (W == W.T).all()
            and (np.diag(W) == 1.0).all()
            and (W > 0.0).all()
            and (W <= 1.0).all()
        ):
            failures.append("kernel symmetry/diagonal/range")
            break

    for _ in range(1000):
        mu = np.sort(rng.normal(0.0, 1.0, 6))
        probs = open_prob(GateState(mu=mu))
        if not (np.diff(probs) >= 0.0).all():
            failures.append("open probability not monotone in mu")
            break

    check(
        9,
        not failures,
        "six invariant families x 1000 trials"
        if not failures
        else "; ".join(failures),
    )
