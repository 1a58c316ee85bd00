"""Benchmark command for mlscore.

    python3 perfbench/run.py --workload recovery-grid --seed 1 --seconds 25 --trace 0

The checkout is the directory above this file: the package is imported
from its ``src/`` directory, never from an installed copy, and the command
fails with exit code 2 when that directory is missing.

With ``--trace 0`` the run times the set-up (in fresh interpreters), runs
one warm-up round, then whole rounds for ``--seconds`` seconds, and prints
the end-to-end metrics. With ``--trace 1`` it runs untraced rounds for half
the time and traced rounds for the other half, prints the per-layer metrics
and writes the spans to ``.perfbench/traces/``. Either way every output is
checked, the workload's figures are printed under their everyday names, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The load comes from this one process. BLAS runs on one thread, which keeps
run-to-run spread low on a shared machine.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("recovery-grid", "csv-select-wide", "gate-training")
BLAS_THREADS = "1"
SETUP_REPEATS = 3


class SetupError(RuntimeError):
    pass


def load_mlscore() -> None:
    """Put the checkout's src/ first on the path and import mlscore from it."""
    src = ROOT / "src"
    if not (src / "mlscore" / "__init__.py").is_file():
        raise SetupError(f"no mlscore package under {src}")
    sys.path.insert(0, str(src))
    import mlscore

    if Path(mlscore.__file__).resolve().parent != (src / "mlscore").resolve():
        raise SetupError(f"imported mlscore from {mlscore.__file__}, not {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run only the workload's set-up, in a fresh interpreter
    parser.add_argument("--probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def time_setup(args, workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports mlscore and builds the
    workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", str(workdir)]
    started = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - started


class Runner:
    """Runs whole rounds (one operation per method) and keeps their times."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def round(self) -> dict:
        """One operation per method; returns seconds per unit for each
        method whose operation succeeded."""
        per_unit = {}
        for method in self.workload.methods:
            self.attempted += 1
            started = time.perf_counter()
            try:
                units = self.workload.run(method)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            per_unit[method] = (time.perf_counter() - started) / units
        return per_unit

    def rounds_for(self, seconds: float) -> dict:
        """Whole rounds until ``seconds`` have passed. Returns per method the
        seconds per unit, and per round its wall time."""
        out = {"unit_s": {m: [] for m in self.workload.methods}, "round_s": []}
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for method, value in self.round().items():
                out["unit_s"][method].append(value)
            out["round_s"].append(time.perf_counter() - t0)
            if time.perf_counter() - started >= seconds:
                return out


def measure(args, runner) -> tuple[dict, float]:
    """Median seconds per unit for each method, and the peak resident
    memory so far."""
    times = runner.rounds_for(args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    OUT.joinpath("runs").mkdir(parents=True, exist_ok=True)
    path = OUT / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
    path.write_text(json.dumps(times) + "\n")
    medians = {m: statistics.median(v) for m, v in times["unit_s"].items() if v}
    return medians, peak_mb


def measure_traced(args, runner) -> dict:
    plain = runner.rounds_for(args.seconds / 2.0)["round_s"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = runner.rounds_for(args.seconds / 2.0)["round_s"]
    finally:
        tracer.uninstall()
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = spans.per_layer_metrics(tracer, len(traced), overhead)
    OUT.joinpath("traces").mkdir(parents=True, exist_ok=True)
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(traced),
        "untraced_round_s": statistics.median(plain),
        "traced_round_s": statistics.median(traced),
        "trace.overhead_s": overhead,
        "layers": tracer.layers(),
        "spans": tracer.dump(),
    }) + "\n")
    return metrics


def benchmark(args, workdir: Path) -> dict:
    import workloads  # imports mlscore, so only once src/ is on the path

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(
            time_setup(args, workdir) for _ in range(SETUP_REPEATS)
        )
    runner = Runner(workload)
    with contextlib.redirect_stdout(io.StringIO()):  # mlscore.cli reports on stdout
        workload.prepare()
        runner.round()  # warm-up: first-call costs stay out of the medians
        if args.trace:
            metrics = measure_traced(args, runner)
        else:
            medians, peak_mb = measure(args, runner)
    failures = []
    if not args.trace and len(medians) < len(workload.methods):
        failures.append("a method had no successful operation")
    try:
        failures += workload.check()
    except Exception:
        traceback.print_exc()
        failures.append("the checks raised")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    if not args.trace:
        margin, baseline = workload.methods
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "margin_method_s": {"value": medians.get(margin, 0.0), "unit": "s"},
            "baseline_method_s": {"value": medians.get(baseline, 0.0), "unit": "s"},
        }
        if not failures:
            for name, value, unit in workload.summary(medians):
                print(f"{name} {value:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy is first imported; set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    try:
        load_mlscore()
    except (SetupError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, Path(args.probe)).probe()
        return 0
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
