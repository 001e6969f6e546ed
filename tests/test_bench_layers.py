"""The traced benchmark run yields every per-layer metric BENCHMARK.json names.

`perfbench/run.py --trace 1` reads each `per_layer` name from the traced
run's metrics, and a name that no span produced stops the run with a
KeyError.  The tracer sees a call only through a module attribute it has
rebound, so a library function reached another way (a default argument,
a function kept in a container) drops its span.  This runs one traced
pass of each workload at a small n with perfbench's own tracer, worker
loop and workloads, and checks the names.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SMALL_N = 48


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
worker = _load("worker")
workloads = _load("workloads")

PER_LAYER = [
    metric["name"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if metric["name"] != "trace.overhead_share"  # from the untraced passes
]


def _traced_metrics(name, tmp_path, monkeypatch, keep=lambda op: True):
    monkeypatch.setattr(workloads, "LARGE_N", SMALL_N)
    monkeypatch.setattr(workloads, "CLI_N", SMALL_N)
    ops = [op for op in workloads.make(name, 1, str(tmp_path)).ops() if keep(op)]
    if name == "lab_mix":
        ops = list({op.name: op for op in ops}.values())  # one op per kind
    tracer = tracing.Tracer()
    tracer.install()
    try:
        log = worker.run_passes(ops, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert log.failures == []
    return tracing.layer_metrics(tracer.spans, log.names, log.passes)


@pytest.mark.parametrize("name", ["lab_mix", "large_metric", "cli_ultra"])
def test_a_traced_pass_yields_every_per_layer_metric(name, tmp_path, monkeypatch):
    metrics = _traced_metrics(name, tmp_path, monkeypatch)
    assert [key for key in PER_LAYER if key not in metrics] == []


def test_a_pass_without_the_sum_form_pipelines_lacks_the_amalgam_metric(tmp_path, monkeypatch):
    # the check above can fail: these two ops are large_metric's only
    # callers of amalgamate_metric
    metrics = _traced_metrics(
        "large_metric",
        tmp_path,
        monkeypatch,
        keep=lambda op: not op.name.startswith(("approximate_ud", "approximate_up")),
    )
    assert "build.amalgamate_metric.self_s" in PER_LAYER
    assert "build.amalgamate_metric.self_s" not in metrics
