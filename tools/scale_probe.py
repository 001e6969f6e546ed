"""Scale probe: host build, `diagnose` and the three approximation
pipelines at n in {64, 256, 1024, 2048}.

    PYTHONPATH=src python tools/scale_probe.py --out probe.json

Hosts: the seeded closure and `points_linf` hosts of `lab.random_space`
and an S-valued ultrametric (`lab.random_s_ultrametric`, S geometric
with ratio 1/2).  Each pipeline runs at eps = diameter / 8; the
S-valued host also runs `approximate_ud` with S.  Every (host, n) case
runs in its own process, so its `ru_maxrss` is that case's peak RSS.
Each stage is timed REPEATS times and the median is reported; a case
that exceeds CAP_S seconds reads "over cap".  Uses only the
standard library, numpy and the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HOSTS = ("closure", "points_linf", "s_ultrametric")
SIZES = (64, 256, 1024, 2048)
REPEATS = 3
CAP_S = 900.0


def _host(kind: str, n: int):
    from metriclab import geometric_range_set, random_s_ultrametric, random_space

    if kind == "s_ultrametric":
        return random_s_ultrametric(n, geometric_range_set(0.5), 0)
    return random_space(kind, n, 0)


def run_case(kind: str, n: int) -> dict:
    """Times of each stage on one host, in this process."""
    from metriclab import (
        approximate_doubling,
        approximate_ud,
        approximate_up,
        diagnose,
        geometric_range_set,
    )

    samples: dict[str, list[float]] = {}

    def timed(stage, fn):
        start = time.perf_counter()
        result = fn()
        samples.setdefault(stage, []).append(time.perf_counter() - start)
        return result

    for _ in range(REPEATS):
        host = timed("host", lambda: _host(kind, n))
        eps = host.diameter / 8
        timed("diagnose", lambda: diagnose(host.labels, host.matrix))
        timed("approximate_ud", lambda: approximate_ud(host, eps))
        timed("approximate_up", lambda: approximate_up(host, eps))
        timed("approximate_doubling", lambda: approximate_doubling(host, eps))
        if kind == "s_ultrametric":
            S = geometric_range_set(0.5)
            timed("approximate_ud_S", lambda: approximate_ud(host, eps, S=S))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "host": kind,
        "n": n,
        "median_s": {stage: statistics.median(xs) for stage, xs in samples.items()},
        "samples_s": samples,
        "peak_rss_mib": round(peak_kib / 1024, 1),
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--case", nargs=2, metavar=("HOST", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        kind, n = args.case[0], int(args.case[1])
        json.dump(run_case(kind, n), sys.stdout)
        return 0
    cases = []
    for n in SIZES:
        for kind in HOSTS:
            command = [sys.executable, __file__, "--out", "-"]
            try:
                done = subprocess.run(
                    command + ["--case", kind, str(n)],
                    capture_output=True, text=True, timeout=CAP_S, check=True,
                )
            except subprocess.TimeoutExpired:
                cases.append({"host": kind, "n": n, "over_cap_s": CAP_S})
            else:
                cases.append(json.loads(done.stdout))
            print(json.dumps(cases[-1].get("median_s", cases[-1])), kind, n, file=sys.stderr)
    report = {"environment": environment(), "repeats": REPEATS, "cases": cases}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
