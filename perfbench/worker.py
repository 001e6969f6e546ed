"""One benchmark process: set up one workload, then run it.

    python3 perfbench/worker.py --workload W --seed N --seconds T --mode M

Modes: `setup` builds the inputs and exits; `run` also runs the timed
closed loop; `trace` runs the loop untraced, then the same number of
passes with every public metriclab function wrapped in a span.  The
worker prints `ready` when set-up is done (the parent times set-up up to
that line) and, in run and trace mode, one JSON line of results last.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_package():
    """Import metriclab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import metriclab

    expected = (ROOT / "src" / "metriclab").resolve()
    if Path(metriclab.__file__).resolve().parent != expected:
        raise SystemExit(f"metriclab was imported from {metriclab.__file__}, not {expected}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for path in sorted(paths):
            library = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(library, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return int(getter())
    except OSError:
        pass
    return None


class PassLog:
    """Per-op outcomes of a run of whole passes."""

    def __init__(self):
        self.names: list[str] = []
        self.latencies: list[float] = []  # seconds, per op, failed ops included
        self.ok: list[bool] = []
        self.failures: list[str] = []
        self.digests: list[str] = []  # one per pass
        self.passes = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_passes(ops, budget_s=None, passes=None, tracer=None) -> PassLog:
    """Closed loop, one client: run whole passes over `ops`.

    With `budget_s`, the first pass's wall time sets the number of passes:
    the whole number nearest to the budget over it, at least one.  With
    `passes`, exactly that many run.  An op fails if it raises or its
    output fails its check; checks run outside the op's latency.
    """
    log = PassLog()
    while True:
        pass_started = time.perf_counter()
        digest = hashlib.sha256()
        for op in ops:
            if tracer is not None:
                tracer.op = len(log.names)
            log.names.append(op.name)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op
                log.latencies.append(time.perf_counter() - t0)
                log.ok.append(False)
                log.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            log.latencies.append(time.perf_counter() - t0)
            try:
                ok, material = op.check(out)
            except Exception as exc:  # so does one whose output cannot be checked
                ok, material = False, b""
                log.failures.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    log.failures.append(f"{op.name}: output failed its check")
            log.ok.append(bool(ok))
            digest.update(op.name.encode() + b"\0" + material + b"\0")
        log.digests.append(digest.hexdigest())
        log.passes += 1
        if passes is None:
            passes = max(1, round(budget_s / (time.perf_counter() - pass_started)))
        if log.passes >= passes:
            return log


def summary(log: PassLog) -> dict:
    done = [lat for lat, ok in zip(log.latencies, log.ok) if ok]
    result = {
        "attempted": len(log.ok),
        "failed": log.ok.count(False),
        "failures": log.failures[:10],
        "passes": log.passes,
        "busy_s": log.busy_s,
        "ops_per_s": len(done) / log.busy_s,
        "op_p50_ms": 1000 * statistics.median(done) if done else None,
        "digest": log.digests[0],
        "digest_stable": len(set(log.digests)) == 1,
    }
    if len(done) >= 100:  # at least ten samples beyond the 90th percentile
        result["op_p90_ms"] = 1000 * statistics.quantiles(done, n=10)[-1]
    result["op_count"] = len(done)
    by_name: dict[str, list[float]] = {}
    for name, lat, ok in zip(log.names, log.latencies, log.ok):
        if ok:
            by_name.setdefault(name, []).append(lat)
    result["op_p50_ms_by_name"] = {
        name: 1000 * statistics.median(lats) for name, lats in by_name.items()
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        ops = workload.ops()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        result = {"blas_threads": blas_threads()}
        if args.mode == "run":
            log = run_passes(ops, budget_s=args.seconds)
            result.update(summary(log))
        else:
            import tracing

            plain = run_passes(ops, budget_s=args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(ops, passes=plain.passes, tracer=tracer)
            finally:
                tracer.uninstall()
            layers = tracing.layer_metrics(tracer.spans, traced.names, traced.passes)
            layers["trace.overhead_share"] = traced.busy_s / plain.busy_s - 1
            trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump(tracing.span_records(tracer.spans, traced.names), handle)
            result.update(summary(traced))
            result["attempted"] += len(plain.ok)
            result["failed"] += plain.ok.count(False)
            result["failures"] += plain.failures[:10]
            result["digest_stable"] = len(set(plain.digests + traced.digests)) == 1
            result["layers"] = layers
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["counters"] = workload.counters()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
