"""Command-line surface: score, select, synth, validate-margin, bench.

Every command writes a JSON manifest next to its primary output so a run
can be replayed: command name, parameter echo, seed, the sha256 of the
bytes read from each input, output list, tool version, the BLAS thread
settings of the environment, timestamp, and the warnings of score, select
and bench. Reruns with the same seed, inputs and environment are
byte-identical except for the manifest timestamp. Every CSV and JSON file a
command writes is UTF-8, whatever the locale.

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import DataError, LabelColumnError, load_csv, save_csv, standardize
from .evaluation import (
    BENCH_RHOS,
    BENCH_SETUPS,
    METHODS,
    margin_weight_separation,
    run_recovery_benchmark,
    score_dataset,
)
from .gates import GateState, TrainConfig
from .margins import MarginConfig, build_margin_model
from .scores import KERNEL_MODES, SCORE_METHODS, KernelConfig, select_top
from .synth import SynthSpec, add_noise_features, gen_setup

DEFAULT_KS_GRID = tuple(round(0.01 * i, 2) for i in range(1, 31))
# scores differ across BLAS thread counts in the last bits; unset is the default
BLAS_THREAD_VARIABLES = ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _write_manifest(primary, command: str, args, seed, inputs: dict, outputs,
                    extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "params": {key: value for key, value in vars(args).items() if key != "func"},
        "seed": seed,
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    _write_json(str(primary) + ".manifest.json", manifest)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _usage_errors(parser, call, *args, **kwargs):
    """call(*args, **kwargs), with the ValueError it raises for a bad
    setting reported as a usage error of parser; a DataError stays one."""
    try:
        return call(*args, **kwargs)
    except DataError:
        raise
    except ValueError as err:
        parser.error(str(err))


def _trace_path(table: Path) -> Path:
    """The trace JSON that a gate method of select writes beside its table."""
    return Path(str(table).removesuffix(".csv") + "-trace.json")


def _check_outputs(args, parser, tag: str, *extra) -> Path:
    """The command's table: ``--output``, or the default named by ``tag``
    beside ``--input``. A usage error, before anything is read, if
    ``--input`` is not a regular file (a pipe, a FIFO) and no ``--output``
    is named, if ``--output`` or the manifest beside it resolves to
    ``--input``, or if one of the ``extra`` outputs resolves to
    ``--input``, the table or its manifest: the command would write over a
    file it reads or writes. Each of ``extra`` is a flag of args that names
    a path, or a function, such as ``_trace_path``, that derives a path
    from the table's."""
    source = Path(args.input)
    if args.output is None and source.exists() and not source.is_file():
        parser.error("--output is required when --input is not a regular file")
    out = Path(args.output) if args.output else source.with_name(f"{source.stem}-{tag}.csv")
    source = source.resolve()
    if args.output and out.resolve() == source:
        parser.error(f"--output {args.output} would write over --input")
    manifest = Path(f"{out}.manifest.json")
    if manifest.resolve() == source:
        parser.error(f"the manifest {manifest} would write over --input")
    taken = {source: "--input", out.resolve(): f"the table {out}",
             manifest.resolve(): f"the manifest {manifest}"}
    for flag in extra:
        if callable(flag):
            path = flag(out)
            name = f"the output {path}"
        else:
            path = getattr(args, flag)
            name = f"--{flag.replace('_', '-')} {path}"
        if path and Path(path).resolve() in taken:
            parser.error(f"{name} would write over {taken[Path(path).resolve()]}")
    return out


def _load_input(args, parser):
    """The dataset of ``--input``; a ``--label-col`` that is not in its
    header is a usage error."""
    try:
        return load_csv(args.input, label_column=args.label_col)
    except LabelColumnError:
        parser.error(f"label column {args.label_col!r} not found in input")


def _load_for_scoring(args, parser):
    ds = _load_input(args, parser)
    inputs = {args.input: ds.source_sha256}
    if not args.no_standardize:
        ds, _ = standardize(ds)
    return ds, inputs


def _print_warnings(lines: list[str]) -> None:
    for line in lines:
        print(f"warning: {line}", file=sys.stderr)


def cmd_score(args, parser) -> int:
    out = _check_outputs(args, parser, "scores")
    margin_config = _usage_errors(parser, MarginConfig, quantile=args.quantile, k=args.k,
                                  skew_right=args.skew_right, skew_left=args.skew_left)
    kernel_config = _usage_errors(parser, KernelConfig, bandwidth=args.bandwidth,
                                  mode=args.kernel, n_neighbors=args.n_neighbors)
    ds, inputs = _load_for_scoring(args, parser)
    report, _ = score_dataset(ds, args.method, margin_config, kernel_config)
    rank_of = {j: rank for rank, j in enumerate(select_top(report, ds.n_features), start=1)}
    _write_csv(out, ["feature", "score", "rank"],
               ([name, repr(float(value)), rank_of[j]]
                for j, (name, value) in enumerate(zip(ds.feature_names, report.scores))))
    _print_warnings(report.warnings)
    _write_manifest(out, "score", args, None, inputs, [out],
                    extra={"warnings": report.warnings})
    print(f"wrote {out}")
    return 0


def cmd_select(args, parser) -> int:
    if args.num_features < 1:
        parser.error("num-features must be >= 1")
    extra = () if args.method in SCORE_METHODS else (_trace_path,)
    out = _check_outputs(args, parser, "selected", *extra)
    margin_config = _usage_errors(parser, MarginConfig, quantile=args.quantile, k=args.k,
                                  skew_right=args.skew_right, skew_left=args.skew_left)
    kernel_config = _usage_errors(parser, KernelConfig, bandwidth=args.bandwidth,
                                  mode=args.kernel, n_neighbors=args.n_neighbors)
    _usage_errors(parser, GateState.fresh, 1, sigma=args.sigma)  # GateState checks sigma
    train_config = _usage_errors(parser, TrainConfig, epochs=args.epochs,
                                 learning_rate=args.lr, seed=args.seed)
    ds, inputs = _load_for_scoring(args, parser)
    if args.num_features > ds.n_features:
        parser.error(
            f"num-features {args.num_features} exceeds {ds.n_features} features"
        )
    report, trace = score_dataset(
        ds, args.method, margin_config, kernel_config, train_config,
        sigma=args.sigma,
    )
    picked = select_top(report, args.num_features)
    _write_csv(out, ["rank", "feature", "score"],
               ([rank, ds.feature_names[idx], repr(float(report.scores[idx]))]
                for rank, idx in enumerate(picked, start=1)))
    outputs = [out]
    if trace is not None:
        trace_path = _trace_path(out)
        _write_json(trace_path, {
            "loss_history": [float(x) for x in trace.loss_history],
            "mu": [float(x) for x in trace.mu],
            "open_probabilities": [float(x) for x in trace.open_probabilities],
            "warnings": report.warnings,
        })
        outputs.append(trace_path)
    _print_warnings(report.warnings)
    seed = args.seed if trace is not None else None
    _write_manifest(out, "select", args, seed, inputs, outputs,
                    extra={"warnings": report.warnings})
    print(f"wrote {out}")
    return 0


def cmd_synth(args, parser) -> int:
    spec = _usage_errors(parser, SynthSpec, setup=args.setup, rho=args.rho,
                         n_samples=args.n, seed=args.seed)
    drawn = gen_setup(spec)
    ds = drawn.dataset
    marginal_columns = [ds.feature_names[i] for i in drawn.marginal_feature_indices]
    if args.noisy:
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 309]))
        ds = add_noise_features(ds, rng)
    out = Path(args.output)
    save_csv(ds, out, label_column="label")
    _write_manifest(
        out, "synth", args, args.seed, {}, [out],
        extra={"marginal_columns": marginal_columns},
    )
    n_pos = int(ds.labels.sum())
    print(f"wrote {out} ({ds.n_samples} rows, {ds.n_features} features, "
          f"{n_pos} positives)")
    return 0


def cmd_validate_margin(args, parser) -> int:
    out = _check_outputs(args, parser, "margin-ks", "dump_margins")
    quantiles = (
        _parse_list(args.quantiles, parser, float, "quantile")
        if args.quantiles
        else DEFAULT_KS_GRID
    )
    base = _usage_errors(parser, MarginConfig, quantile=args.quantile, k=args.k,
                         skew_right=args.skew_right, skew_left=args.skew_left)
    # MarginConfig checks each entry of the list before the input is read
    for q in quantiles:
        _usage_errors(parser, replace, base, quantile=q)
    ds = _load_input(args, parser)
    rows = _usage_errors(parser, margin_weight_separation, ds, base, quantiles=quantiles)
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    print(f"{'quantile':>10} {'D':>10} {'p':>12}")
    for i, (q, d, p) in enumerate(rows):
        marker = "  <- max D" if i == best else ""
        print(f"{q:>10.3f} {d:>10.4f} {p:>12.3e}{marker}")
    _write_csv(out, ["quantile", "ks_distance", "p_value", "is_max"],
               ([repr(float(q)), repr(float(d)), repr(float(p)), int(i == best)]
                for i, (q, d, p) in enumerate(rows)))
    outputs = [out]
    if args.dump_margins:
        scaled, _ = standardize(ds)
        model = build_margin_model(scaled, base)
        _write_csv(args.dump_margins,
                   ["sample_index", "margin_count", "weight", "in_dataset_margin"],
                   ([i, count, repr(u), int(u > 0.0)] for i, (count, u)
                    in enumerate(zip(model.counts.tolist(), model.u.tolist()))))
        outputs.append(Path(args.dump_margins))
    _write_manifest(out, "validate-margin", args, None,
                    {args.input: ds.source_sha256}, outputs)
    print(f"wrote {out}")
    return 0


def _parse_list(text: str, parser, kind, label: str) -> tuple:
    """The comma list ``text`` as a tuple of ``kind``, each entry stripped of
    spaces; an entry that does not parse, an empty list or a repeated entry
    is a usage error."""
    try:
        values = tuple(kind(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        parser.error(f"could not parse {label} list {text!r}")
    if not values:
        parser.error(f"empty {label} list")
    if len(set(values)) < len(values):
        parser.error(f"repeated entry in {label} list {text!r}")
    return values


def cmd_bench(args, parser) -> int:
    if args.reps < 1:
        parser.error("reps must be >= 1")
    setups = _parse_list(args.setups, parser, int, "setup")
    rhos = _parse_list(args.rhos, parser, float, "rho")
    methods = _parse_list(args.methods, parser, str, "method")
    # SynthSpec owns the setups, the rho range, the sample-count floor, the
    # class sizes of a draw and the seed
    for setup in setups:
        for rho in rhos:
            _usage_errors(parser, SynthSpec, setup=setup, rho=rho, n_samples=args.n,
                          seed=args.seed)
    if args.quantile is None and any(r <= 0.5 for r in rhos):
        # the default margin quantile 1 - rho must stay below 0.5
        parser.error("rhos must be above 0.5 unless --quantile is given")
    if any(m not in METHODS for m in methods):
        parser.error(f"methods must be drawn from {','.join(METHODS)}")
    train_config = _usage_errors(parser, TrainConfig, epochs=args.epochs)
    margin_flags = {name: getattr(args, name) for name in ("k", "skew_right", "skew_left")
                    if getattr(args, name) is not None}
    margin_config = None
    if args.quantile is not None:
        margin_config = _usage_errors(parser, MarginConfig, quantile=args.quantile,
                                      **margin_flags)
    elif margin_flags:
        flags = ", ".join(f"--{name.replace('_', '-')}" for name in margin_flags)
        parser.error(f"--quantile is required with {flags}")
    cells = run_recovery_benchmark(
        setups=setups,
        rhos=rhos,
        reps=args.reps,
        methods=methods,
        seed=args.seed,
        n_samples=args.n,
        margin_config=margin_config,
        train_config=train_config,
    )
    # the cells come ordered by setup, rho and method: one row per len(methods)
    print(f"{'setup':>5} {'rho':>5}" + "".join(f" {m:>16}" for m in methods))
    for first in range(0, len(cells), len(methods)):
        row = cells[first:first + len(methods)]
        print(f"{row[0].setup:>5} {row[0].rho:>5.2f}"
              + "".join(f" {cell.mean:>8.1f} +-{cell.std:>5.2f}" for cell in row))
    summary = Path(f"{args.output}-summary.csv")
    _write_csv(summary, ["setup", "rho", "method", "reps", "mean", "std"],
               ([cell.setup, repr(float(cell.rho)), cell.method, len(cell.per_rep),
                 repr(float(cell.mean)), repr(float(cell.std))] for cell in cells))
    per_rep = Path(f"{args.output}-reps.csv")
    _write_csv(per_rep, ["setup", "rho", "method", "rep", "accuracy"],
               ([cell.setup, repr(float(cell.rho)), cell.method, rep, repr(float(value))]
                for cell in cells for rep, value in enumerate(cell.per_rep)))
    warnings = [f"setup {cell.setup} rho {cell.rho:g} {cell.method}: {line}"
                for cell in cells for line in cell.warnings]
    _print_warnings(warnings)
    _write_manifest(summary, "bench", args, args.seed, {}, [summary, per_rep],
                    extra={"warnings": warnings})
    print(f"wrote {summary} and {per_rep}")
    return 0


def _add_margin_flags(sub, fixed_quantile=True) -> None:
    """The margin flags, with MarginConfig's defaults; with no fixed
    quantile every flag defaults to None, and the command takes the
    others only together with --quantile."""
    defaults = vars(MarginConfig()) if fixed_quantile else {}
    sub.add_argument("--quantile", type=float,
                     default=defaults.get("quantile"),
                     help="margin quantile in (0, 0.5)" if fixed_quantile else
                     "fixed margin quantile for every cell; when omitted each"
                     " cell matches the quantile to its contamination 1-rho"
                     " (the other margin flags apply only together with this)")
    sub.add_argument("--k", type=int, default=defaults.get("k"),
                     help="minimum margin memberships for a sample to count")
    sub.add_argument("--skew-right", type=float, default=defaults.get("skew_right"),
                     help="skewness at or above this uses the right margin")
    sub.add_argument("--skew-left", type=float, default=defaults.get("skew_left"),
                     help="skewness at or below this uses the left margin")


def _add_scoring_flags(sub) -> None:
    sub.add_argument("--input", required=True, help="input CSV path")
    sub.add_argument("--label-col", default=None,
                     help="column to treat as the 0/1 label")
    sub.add_argument("--no-standardize", action="store_true",
                     help="score the raw values instead of standardized ones")
    sub.add_argument("--output", default=None, help="output CSV path")
    _add_margin_flags(sub)
    sub.add_argument("--kernel", choices=KERNEL_MODES, default="heat",
                     help="affinity kernel for the classic score")
    sub.add_argument("--bandwidth", type=float, default=None,
                     help="heat-kernel bandwidth (default: mean squared distance)")
    sub.add_argument("--n-neighbors", type=int, default=5,
                     help="neighbor count for the binary-knn kernel")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlscore",
        description="Margin-aware Laplacian feature scoring and selection",
    )
    parser.add_argument("--version", action="version", version=__version__)
    train_defaults = TrainConfig()
    subs = parser.add_subparsers(dest="command", required=True)

    score = subs.add_parser("score", help="score every feature of a CSV")
    _add_scoring_flags(score)
    score.add_argument("--method", choices=SCORE_METHODS, required=True)
    score.set_defaults(func=functools.partial(cmd_score, parser=score))

    select = subs.add_parser("select", help="rank and keep the top features")
    _add_scoring_flags(select)
    select.add_argument("--method", choices=METHODS, required=True)
    select.add_argument("--num-features", type=int, required=True)
    select.add_argument("--epochs", type=int, default=train_defaults.epochs)
    select.add_argument("--lr", type=float, default=train_defaults.learning_rate)
    select.add_argument("--sigma", type=float, default=GateState.sigma)
    select.add_argument("--seed", type=int, default=0)
    select.set_defaults(func=functools.partial(cmd_select, parser=select))

    synth = subs.add_parser("synth", help="generate a benchmark dataset CSV")
    synth.add_argument("--setup", type=int, choices=(1, 2, 3), required=True)
    synth.add_argument("--rho", type=float, required=True,
                       help="majority-class fraction in (0, 1)")
    synth.add_argument("--n", type=int, default=1000, help="sample count")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--noisy", action="store_true",
                       help="append correlated plus iid noise features")
    synth.add_argument("--output", required=True, help="output CSV path")
    synth.set_defaults(func=functools.partial(cmd_synth, parser=synth))

    validate = subs.add_parser(
        "validate-margin",
        help="test whether positives concentrate in the margins",
    )
    validate.add_argument("--input", required=True, help="input CSV path")
    validate.add_argument("--label-col", required=True,
                          help="column holding 0/1 labels")
    validate.add_argument("--quantiles", default=None,
                          help="comma list; default 0.01..0.30 step 0.01")
    validate.add_argument("--output", default=None, help="output CSV path")
    validate.add_argument("--dump-margins", default=None,
                          help="also write per-sample margin stats to this path")
    _add_margin_flags(validate)
    validate.set_defaults(func=functools.partial(cmd_validate_margin, parser=validate))

    bench = subs.add_parser("bench", help="run the synthetic recovery grid")
    bench.add_argument("--reps", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--methods", default="mls,ls")
    bench.add_argument("--n", type=int, default=1000,
                       help="sample count of every draw")
    bench.add_argument("--epochs", type=int, default=train_defaults.epochs,
                       help="gate training epochs for dufs and dufs-mls")
    bench.add_argument("--setups",
                       default=",".join(str(s) for s in BENCH_SETUPS))
    bench.add_argument("--rhos", default=",".join(str(r) for r in BENCH_RHOS))
    bench.add_argument("--output", default="bench",
                       help="prefix for the summary and per-rep CSVs")
    _add_margin_flags(bench, fixed_quantile=False)
    bench.set_defaults(func=functools.partial(cmd_bench, parser=bench))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
