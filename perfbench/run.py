"""metriclab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Runs one workload (see workloads.py) from the root of a checkout and
prints two JSON lines: a report (environment stamp, output digest,
failures, every metric measured) and, last, the result object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics named in BENCHMARK.json; with
--trace 1 they are its per-layer metrics.  See perfbench/README.md.

This process imports neither numpy nor metriclab: every set-up and the
workload itself run in fresh worker processes, so set-up time includes
interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lab_mix", "large_metric", "cli_ultra")

# setup_s is the median of this many set-ups, the workload process's own
# included.
SETUP_SAMPLES = 5
# Wall-time limit for the whole run, worker processes included.
RUN_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to its `ready` line,
    its result object or None in setup mode)."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "ready":
        raise WorkerFailed(f"{mode} worker exited with code {code}")
    if mode == "setup":
        return ready_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} worker printed no result")
    return ready_s, json.loads(lines[-1])


def speed_probe_ms(seconds: float = 0.25) -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs
    right now.  The machine's speed can drift between and within runs,
    so the report carries it next to the metrics."""
    times = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return 1000 * statistics.median(times)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def baseline_digest(workload: str, seed: int) -> str | None:
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    digests = json.loads(path.read_text())["workloads"].get(workload, {}).get("digests", {})
    return digests.get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metriclab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "metriclab" / "__init__.py").is_file():
        print(f"error: no metriclab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    env["busy_at_start"] = env["loadavg_start"][0] > env["nproc"]
    env["speed_probe_ms_start"] = speed_probe_ms()

    try:
        if args.trace:
            _, result = spawn(args, "trace", deadline)
            setup = []
        else:
            setup = [spawn(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            ready_s, result = spawn(args, "run", deadline)
            setup.append(ready_s)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    env["speed_probe_ms_end"] = speed_probe_ms()
    env["blas_threads"] = result.pop("blas_threads")

    measured = dict(result.pop("layers", {}))
    measured.update(result.pop("counters"))
    if args.trace:
        names = bench["per_layer"]
    else:
        names = bench["end_to_end"]
        measured.update(
            setup_s=statistics.median(setup),
            ops_per_s=result["ops_per_s"],
            op_p50_ms=result["op_p50_ms"],
            peak_rss_mb=result["peak_rss_mb"],
        )
        if "op_p90_ms" in result:
            measured["op_p90_ms"] = result["op_p90_ms"]
    attempted, failed = result["attempted"], result["failed"]
    expected = baseline_digest(args.workload, args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_samples_s": setup,
        "fail_share": failed / attempted,
        "digest_matches_baseline": None if expected is None else expected == result["digest"],
        **result,
        "measured": measured,
    }
    print(json.dumps({"report": report}))
    correct = failed == 0 and result["digest_stable"]
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in names
    }
    result_line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
