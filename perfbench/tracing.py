"""Span recorder for the traced run.

`Tracer.install` wraps every public function of the metriclab layer
modules and rebinds the wrapper at every module attribute that refers to
the function.  The package imports names module-to-module (``build``
imports ``validate`` from ``spaces``), so only rebinding every binding
makes nested calls show up as child spans.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc

LAYERS = ("spaces", "moduli", "build", "cantor", "rangesets", "lab", "cli")

# Functions whose self time the per-layer report names one by one.
NAMED = (
    "spaces.diagnose",
    "spaces.metric_closure",
    "spaces.sup_distance",
    "spaces.ultra_distance",
    "moduli.doubling_constant",
    "moduli.bottleneck_matrix",
    "moduli.up_constant",
    "build.mcshane_extend",
    "build.pairwise_linf",
    "build.amalgamate_metric",
    "build.amalgamate_ultrametric",
    "build.carve_pieces",
    "cantor.generate_type",
    "lab.run_experiment",
    "cli.main",
)

# Span fields, in order.
NAME, LAYER, START, END, PARENT, OP, EXTRA = range(7)


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


# Counters read from a call's arguments and return value.
OBSERVERS = {
    "build.greedy_net": lambda args, kwargs, net: {
        "net": len(net),
        "n": _first_arg(args, kwargs, "space").n,
    },
    "build.carve_pieces": lambda args, kwargs, partition: {
        "pieces": len(partition.pieces),
        "singletons": sum(len(piece) == 1 for piece in partition.pieces),
    },
    "lab.sample_subsets": lambda args, kwargs, subsets: {"subsets": len(subsets)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # index of the top-level op now running
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"metriclab.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}", layer)
        for module_name, module in list(sys.modules.items()):
            if module_name != "metriclab" and not module_name.startswith("metriclab."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in self._restore:
            setattr(module, name, obj)
        self._restore.clear()

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        # tracemalloc runs only inside this call, so it slows nothing else.
        measure_memory = name == "build.mcshane_extend"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            if measure_memory:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if measure_memory:
                    span[EXTRA] = {"peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
                    tracemalloc.stop()
            if observe is not None:
                span[EXTRA] = observe(args, kwargs, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans, op_names, passes: int) -> dict:
    """Per-layer metrics of a traced run of `passes` whole passes.

    Totals are per pass.  Every layer and named function reports
    `.calls` (0 where it does not run); times, shares and medians appear
    only where the layer or function ran.
    """
    own = self_times(spans)
    metrics = {}

    def add_totals(key, selected):
        metrics[f"{key}.calls"] = len(selected) / passes
        if selected:
            metrics[f"{key}.self_s"] = sum(own[i] for i in selected) / passes

    by_name: dict[str, list[int]] = {}
    by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)
        by_layer[span[LAYER]].append(index)
    for layer in LAYERS:
        add_totals(layer, by_layer[layer])
    for name in NAMED:
        add_totals(name, by_name.get(name, []))

    diagnose = by_name.get("spaces.diagnose", [])
    metrics["spaces.diagnose.calls_per_op"] = len(diagnose) / len(op_names)

    def extras(name):
        return [spans[i][EXTRA] for i in by_name.get(name, [])]

    # 0 where mcshane_extend never runs: no call, no allocation.
    metrics["build.mcshane_extend.peak_mb"] = max(
        (e["peak_mb"] for e in extras("build.mcshane_extend")), default=0.0
    )
    if nets := extras("build.greedy_net"):
        metrics["build.greedy_net.net_share"] = sum(e["net"] for e in nets) / sum(
            e["n"] for e in nets
        )
        metrics["build.greedy_net.full_share"] = sum(e["net"] == e["n"] for e in nets) / len(nets)
    if carvings := extras("build.carve_pieces"):
        metrics["build.carve_pieces.singleton_share"] = sum(
            e["singletons"] for e in carvings
        ) / sum(e["pieces"] for e in carvings)
    if subsets := extras("lab.sample_subsets"):
        metrics["lab.sample_subsets.subsets"] = statistics.mean(e["subsets"] for e in subsets)

    # Medians of the top-level op spans, grouped by op name.
    for top in ("lab.run_experiment", "cli.main"):
        layer = top.split(".")[0]
        groups: dict[str, list[float]] = {}
        for i in by_name.get(top, []):
            span = spans[i]
            if span[PARENT] < 0:
                groups.setdefault(op_names[span[OP]], []).append(span[END] - span[START])
        for op_name, durations in sorted(groups.items()):
            metrics[f"{layer}.{op_name}.p50_ms"] = 1000 * statistics.median(durations)
    return metrics


def span_records(spans, op_names) -> list[dict]:
    """Spans as JSON-ready records (name, layer, start, end, parent, op)."""
    return [
        {
            "name": span[NAME],
            "layer": span[LAYER],
            "start": span[START],
            "end": span[END],
            "parent": span[PARENT],
            "op": span[OP],
            "op_name": op_names[span[OP]] if span[OP] >= 0 else None,
            **({"extra": span[EXTRA]} if span[EXTRA] else {}),
        }
        for span in spans
    ]
