"""The three benchmark workloads.

Each workload pairs the margin-weighted method with its unweighted baseline,
the comparison the paper makes: ``mls`` against ``ls`` on the recovery grid
and on a wide CSV, ``dufs-mls`` against ``dufs`` in gate training. One round
runs one operation of each method. A workload class provides:

- ``probe()``: the set-up a user pays before the first operation, run in a
  fresh interpreter so that importing mlscore is part of it;
- ``prepare()``: the same inputs, made in the benchmark's own process;
- ``run(method)``: one operation, through mlscore's public functions; it
  returns how many units (draws, jobs, epochs) the operation did;
- ``check()``: the correctness checks on every output, as a list of
  failure messages;
- ``summary(unit_s)``: the workload's figures under their everyday names.

Every call into mlscore goes through the module attribute (``gates.train``,
not a name bound at import), so the traced run can put spans around it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import reference
from mlscore import cli, evaluation, gates, margins, scores, synth
from mlscore.data import standardize

RTOL = 1e-6  # scores summed in another order agree to far better than this


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _mismatch(label: str, got, want, rtol: float = RTOL) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape == want.shape and np.allclose(got, want, rtol=rtol, atol=0.0):
        return []
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != reference {want.shape}"]
    worst = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
    return [f"{label}: max relative error {worst:.3e} against the reference"]


class RecoveryGrid:
    """The paper's synthetic experiment: setups 1-3 x rho 0.90/0.95/0.97,
    two draws of n = 1000 per cell, each scored and top-5 selected. Every
    pass uses the run's seed, so every pass scores the same 18 draws."""

    name = "recovery-grid"
    methods = ("mls", "ls")
    SETUPS = (1, 2, 3)
    RHOS = (0.90, 0.95, 0.97)
    N = 1000
    REPS = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.per_rep: dict[str, list] = {m: [] for m in self.methods}

    def probe(self) -> None:
        """Nothing beyond importing mlscore: the grid draws its own inputs."""

    def prepare(self) -> None:
        pass

    def run(self, method: str) -> int:
        cells = evaluation.run_recovery_benchmark(
            setups=self.SETUPS,
            rhos=self.RHOS,
            reps=self.REPS,
            methods=(method,),
            seed=self.seed,
            n_samples=self.N,
        )
        self.per_rep[method].append(
            {(c.setup, c.rho): tuple(c.per_rep) for c in cells}
        )
        return len(cells) * self.REPS

    def _recovery(self, method: str) -> dict:
        return {cell: float(np.mean(reps)) for cell, reps in self.per_rep[method][0].items()}

    def check(self) -> list[str]:
        failures = []
        for method, passes in self.per_rep.items():
            if any(p != passes[0] for p in passes):
                failures.append(f"{method}: passes with one seed gave different recoveries")
        # the paper's claim: the margin score finds the planted block in every
        # cell. At setup 3, rho 0.97 about one draw in ten misses one to three
        # of the five features, so the floors leave room for one such draw.
        mls_cells = self._recovery("mls")
        for cell, pct in mls_cells.items():
            if pct < 60.0:
                failures.append(f"mls recovered {pct:.0f}% at setup/rho {cell}")
        if np.mean(list(mls_cells.values())) < 90.0:
            failures.append("mls recovered under 90% over the grid")
        for cell, pct in self._recovery("ls").items():
            if cell[0] == 1 and pct < 60.0:
                failures.append(f"ls recovered {pct:.0f}% at setup/rho {cell}")
        failures += self._check_scores()
        return failures

    def _check_scores(self) -> list[str]:
        """mls and ls scores of one draw per cell against the reference."""
        failures = []
        for setup in self.SETUPS:
            for rho in self.RHOS:
                entropy = np.random.SeedSequence([self.seed, setup, round(rho * 1000)])
                spec = synth.SynthSpec(
                    setup=setup, rho=rho, n_samples=self.N,
                    seed=int(entropy.generate_state(1)[0]),
                )
                ds = synth.gen_setup(spec).dataset
                X = ds.values
                config = evaluation.bench_margin_config(rho)
                model = margins.build_margin_model(ds, config)
                u, rep = reference.margins(
                    X, config.quantile, config.skew_right, config.skew_left, config.k
                )
                t = config.temperature_override or reference.temperature(X.shape[1])
                W = reference.margin_kernel(rep, t)
                cell = f"setup {setup} rho {rho}"
                failures += _mismatch(f"mls margin weights, {cell}", model.u, u)
                failures += _mismatch(
                    f"mls scores, {cell}", scores.mls(ds, model).scores,
                    reference.mls_scores(X, W, u),
                )
                failures += _mismatch(
                    f"ls scores, {cell}", scores.laplacian_score(ds).scores,
                    reference.laplacian_scores(X),
                )
        return failures

    def summary(self, unit_s: dict) -> list[tuple[str, float, str]]:
        mls_pct = float(np.mean(list(self._recovery("mls").values())))
        ls_pct = float(np.mean(list(self._recovery("ls").values())))
        return [
            ("grid_draws_per_s", 1.0 / (unit_s["mls"] + unit_s["ls"]), "draws/s"),
            ("mls_recovery_pct", mls_pct, "%"),
            ("ls_recovery_pct", ls_pct, "%"),
        ]


class CsvSelectWide:
    """``mlscore select`` top-5 with mls and with ls on one wide CSV:
    ``synth --noisy`` (309 features) at n = 2000, called in-process through
    ``mlscore.cli.main``, from reading the CSV to the written selection and
    manifest."""

    name = "csv-select-wide"
    methods = ("mls", "ls")
    N = 2000
    TOP = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "wide.csv"
        self.out = {m: workdir / f"selected-{m}.csv" for m in self.methods}
        self.digests: dict[str, set] = {m: set() for m in self.methods}

    def probe(self) -> None:
        argv = [
            "synth", "--setup", "1", "--rho", "0.95", "--n", str(self.N),
            "--seed", str(self.seed), "--noisy", "--output", str(self.csv),
        ]
        if cli.main(argv) != 0:
            raise RuntimeError("mlscore synth failed")

    def prepare(self) -> None:
        if not self.csv.exists():
            self.probe()

    def run(self, method: str) -> int:
        argv = [
            "select", "--method", method, "--num-features", str(self.TOP),
            "--input", str(self.csv), "--label-col", "label",
            "--output", str(self.out[method]),
        ]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mlscore select exited with {code}")
        self.digests[method].add(_sha256(self.out[method]))
        return 1

    def check(self) -> list[str]:
        failures = []
        names, X, _ = reference.load_csv(self.csv, "label")
        Z = reference.standardize(X)
        config = margins.MarginConfig()
        u, rep = reference.margins(
            Z, config.quantile, config.skew_right, config.skew_left, config.k
        )
        W = reference.margin_kernel(rep, reference.temperature(Z.shape[1]))
        want = {
            "mls": reference.mls_scores(Z, W, u),
            "ls": reference.laplacian_scores(Z),
        }
        input_hash = _sha256(self.csv)
        for method in self.methods:
            out = self.out[method]
            if len(self.digests[method]) != 1:
                failures.append(f"{method}: reruns wrote different selections")
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != ["rank", "feature", "score"] or len(rows) != self.TOP + 1:
                failures.append(f"{method}: selection file has header {rows[0]}, "
                                f"{len(rows) - 1} rows")
                continue
            ranks = [int(r[0]) for r in rows[1:]]
            picked = [r[1] for r in rows[1:]]
            written = [float(r[2]) for r in rows[1:]]
            if ranks != list(range(1, self.TOP + 1)):
                failures.append(f"{method}: ranks {ranks}")
            if any(a > b for a, b in zip(written, written[1:])):
                failures.append(f"{method}: ranks do not follow ascending scores")
            ref = want[method]
            ref_of = dict(zip(names, ref))
            failures += _mismatch(f"{method} written scores", written,
                                  [ref_of[p] for p in picked])
            # picking the reference's best five, in order, up to near-ties
            failures += _mismatch(f"{method} picked features", written,
                                  np.sort(ref)[: self.TOP])
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            if manifest.get("inputs") != {str(self.csv): input_hash}:
                failures.append(f"{method}: manifest input hash does not match the CSV")
        return failures

    def summary(self, unit_s: dict) -> list[tuple[str, float, str]]:
        return [
            ("select_mls_s", unit_s["mls"], "s"),
            ("select_ls_s", unit_s["ls"], "s"),
        ]


class GateTraining:
    """``gates.train`` with dufs-mls and with dufs on one setup-3 draw
    (d = 100, n = 300, rho 0.95, standardized), 50 Adam epochs, fixed seed.
    A dufs-mls operation builds its margin model and trains, so the margin
    kernel is built once and then served from the model's cache every epoch;
    dufs rebuilds its kernel every epoch."""

    name = "gate-training"
    methods = ("dufs-mls", "dufs")
    SETUP = 3
    RHO = 0.95
    N = 300
    EPOCHS = 50
    FD_STEP = 1e-4
    FD_GATES = 25  # gates per finite-difference check, evenly spaced

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.mu: dict[str, set] = {m: set() for m in self.methods}
        self.nonfinite: list[str] = []
        self.last: dict[str, tuple] = {}

    def probe(self) -> None:
        spec = synth.SynthSpec(setup=self.SETUP, rho=self.RHO, n_samples=self.N,
                               seed=self.seed)
        self.ds, _ = standardize(synth.gen_setup(spec).dataset)

    prepare = probe

    def run(self, method: str) -> int:
        model = None
        if method == "dufs-mls":
            model = margins.build_margin_model(self.ds, margins.MarginConfig())
        config = gates.TrainConfig(epochs=self.EPOCHS, seed=self.seed, loss_variant=method)
        trace = gates.train(self.ds, config, gates.GateState.fresh(self.ds.n_features), model)
        if not np.all(np.isfinite(trace.loss_history)):
            self.nonfinite.append(method)
        self.mu[method].add(trace.mu.tobytes())
        self.last[method] = (trace.mu, model)
        return self.EPOCHS

    def check(self) -> list[str]:
        failures = [f"{m}: non-finite loss in training" for m in self.nonfinite]
        for method in self.methods:
            if len(self.mu[method]) != 1:
                failures.append(f"{method}: trainings with one seed ended at different mu")
        X = self.ds.values
        d = X.shape[1]
        model = self.last["dufs-mls"][1]
        config = model.config
        u, rep = reference.margins(
            X, config.quantile, config.skew_right, config.skew_left, config.k
        )
        W = reference.margin_kernel(rep, reference.temperature(d))
        for method in self.methods:
            # the final mu of the run's training, and the fresh all-zero mu:
            # training can leave every gate saturated (dufs-mls closes them
            # all), and only open gates exercise the gradient through z
            for point, mu in (("final", self.last[method][0]), ("start", np.zeros(d))):
                failures += self._check_losses(f"{method} at the {point} mu",
                                               method, mu, model, W, u)
        return failures

    def _check_losses(self, label, method, mu, model, W, u) -> list[str]:
        """Loss against the reference and the analytic gradient against
        central differences, for one fixed gate draw and bandwidth."""
        X = self.ds.values
        state = gates.GateState(mu=mu)
        eps = np.random.default_rng(self.seed).normal(0.0, state.sigma, X.shape[1])
        z = np.clip(0.5 + mu + eps, 0.0, 1.0)
        bandwidth = reference.gate_bandwidth(X * z)
        failures = _mismatch(f"{label}: bandwidth", gates.dufs_bandwidth(X * z), bandwidth)

        def loss(mu_trial):
            trial = gates.GateState(mu=mu_trial)
            z_trial = np.clip(0.5 + mu_trial + eps, 0.0, 1.0)
            if method == "dufs":
                return gates.dufs_loss(self.ds, z_trial, trial, bandwidth=bandwidth)
            return gates.dufs_mls_loss(self.ds, z_trial, trial, model)

        fixed = (state.sigma, state.delta, state.m_gates)
        if method == "dufs":
            want = reference.dufs_loss(X, z, mu, *fixed, bandwidth)
        else:
            want = reference.dufs_mls_loss(X, z, mu, *fixed, W, u)
        got = loss(mu)
        if not np.isfinite(got):
            failures.append(f"{label}: non-finite loss")
        failures += _mismatch(f"{label}: loss", got, want)

        # central differences on gates whose draw stays on one side of each
        # clamp boundary over the step; saturated gates still move the loss
        # through their open probability
        h = self.FD_STEP
        v = 0.5 + mu + eps
        smooth = np.flatnonzero((np.abs(v) > 10 * h) & (np.abs(v - 1.0) > 10 * h))
        picked = smooth[:: max(1, smooth.size // self.FD_GATES)]
        grad = gates.loss_gradient(self.ds, z, state, method, model=model,
                                   bandwidth=bandwidth)
        numeric = np.empty(picked.size)
        for k, j in enumerate(picked):
            up = mu.copy()
            up[j] += h
            down = mu.copy()
            down[j] -= h
            numeric[k] = (loss(up) - loss(down)) / (2.0 * h)
        # relative 1e-4, plus 100x the rounding error of a central difference
        allowed = 1e-4 * np.abs(numeric) + 100 * np.finfo(float).eps * abs(got) / h
        off = np.abs(grad[picked] - numeric) > allowed
        if not picked.size or off.any():
            failures.append(f"{label}: gradient vs central differences off on "
                            f"{int(off.sum())} of {picked.size} gates")
        return failures

    def summary(self, unit_s: dict) -> list[tuple[str, float, str]]:
        return [
            ("dufs_epochs_per_s", 1.0 / unit_s["dufs"], "epochs/s"),
            ("dufs_mls_epochs_per_s", 1.0 / unit_s["dufs-mls"], "epochs/s"),
        ]


WORKLOADS = {w.name: w for w in (RecoveryGrid, CsvSelectWide, GateTraining)}
