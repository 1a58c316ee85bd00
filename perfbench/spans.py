"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces, in mlscore.evaluation, mlscore.cli,
mlscore.scores and mlscore.gates, every function name those modules import
from another mlscore module, plus the entry points the benchmark and the
gate training loop call through module globals. Each replacement records a
span (name, start, end, parent) around the original call. Spans stay in
memory and are summarised into per-layer totals and self times at the end.
Nothing in mlscore is edited; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from collections import Counter

PACKAGE = "mlscore"
TRACED_MODULES = ("evaluation", "cli", "scores", "gates")
# functions a traced module defines itself but that are called through its
# module globals, so replacing the global attribute puts a span around them
OWN_FUNCTIONS = {
    "evaluation": ("run_recovery_benchmark",),
    "cli": ("main",),
    "gates": ("train", "sample_gates", "dufs_bandwidth"),
}


def _span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{fn.__name__.lstrip('_')}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # id(model) -> (weakref to model, weakref to the kernel it last returned)
        self._kernels: dict[int, tuple] = {}

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for mod_name in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            own = OWN_FUNCTIONS.get(mod_name, ())
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith(PACKAGE + "."):
                    continue
                if home == module.__name__ and attr not in own:
                    continue
                setattr(module, attr, self._wrap(value))
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn):
        name = _span_name(fn)
        observe = {
            "data.load_csv": self._observe_load,
            "margins.interaction_weights": self._observe_kernel,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "gates.train":
                config = kwargs.get("config", args[1] if len(args) > 1 else None)
                label = f"{name}_{config.loss_variant.replace('-', '_')}"
            with self.span(label):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # ------------------------------------------------------------ recording

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _observe_load(self, args, ds) -> None:
        labels = 0 if ds.labels is None else 1
        self.counts["data.load_csv_cells"] += ds.n_samples * (ds.n_features + labels)

    def _observe_kernel(self, args, result) -> None:
        """Count distinct models and cold kernel builds from outside: a build
        is cold when the returned kernel is not the object this model
        returned on its previous call."""
        model = args[0]
        key = id(model)
        seen = self._kernels.get(key)
        if seen is None or seen[0]() is not model:
            self.counts["margins.interaction_weights_models"] += 1
            seen = None
        if seen is None or seen[1]() is not result:
            n = result.weights.shape[0]
            self.counts["margins.kernel_bytes"] += n * n * 8
        self._kernels[key] = (weakref.ref(model), weakref.ref(result))

    # ------------------------------------------------------------ summaries

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, total (inclusive) seconds and self
        seconds, where self time is the span's duration minus that of its
        direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def dump(self) -> list[list]:
        """Spans with times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), None, parent])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()
        return False


def per_layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict:
    """The per-layer metric values, each per round of the workload.

    Times are inclusive except those named ``self``: ``scores.mls_s`` leaves
    out its interaction_weights child, ``gates.train_self_s``,
    ``evaluation.self_s`` and ``cli.self_s`` leave out every traced child.
    A layer that the workload does not call reads 0.
    """
    layers = tracer.layers()

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0) / rounds

    def self_time(*names):
        return sum(layers.get(n, {}).get("self_s", 0.0) for n in names) / rounds

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / rounds

    load_s = layers.get("data.load_csv", {}).get("total_s", 0.0)
    cells = tracer.counts["data.load_csv_cells"]
    values = {
        "data.load_csv_s": (total("data.load_csv"), "s"),
        "data.load_csv_cells_per_s": (cells / load_s if load_s else 0.0, "1/s"),
        "data.standardize_s": (total("data.standardize"), "s"),
        "synth.gen_setup_s": (total("synth.gen_setup"), "s"),
        "synth.gen_setup_calls": (calls("synth.gen_setup"), "count"),
        "margins.build_margin_model_s": (total("margins.build_margin_model"), "s"),
        "margins.interaction_weights_s": (total("margins.interaction_weights"), "s"),
        "margins.interaction_weights_calls": (calls("margins.interaction_weights"), "count"),
        "margins.interaction_weights_models": (
            tracer.counts["margins.interaction_weights_models"] / rounds, "count"),
        "margins.kernel_bytes": (tracer.counts["margins.kernel_bytes"] / rounds, "B"),
        "scores.mls_s": (self_time("scores.mls"), "s"),
        "scores.laplacian_score_s": (total("scores.laplacian_score"), "s"),
        "scores.mls_numerators_s": (total("scores.mls_numerators"), "s"),
        "gates.train_dufs_s": (total("gates.train_dufs"), "s"),
        "gates.train_dufs_mls_s": (total("gates.train_dufs_mls"), "s"),
        "gates.dufs_bandwidth_s": (total("gates.dufs_bandwidth"), "s"),
        "gates.sample_gates_s": (total("gates.sample_gates"), "s"),
        "gates.train_self_s": (self_time("gates.train_dufs", "gates.train_dufs_mls"), "s"),
        "evaluation.run_recovery_benchmark_s": (
            total("evaluation.run_recovery_benchmark"), "s"),
        "evaluation.self_s": (self_time("evaluation.run_recovery_benchmark"), "s"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
