"""Scale probe: host build, `diagnose`, `doubling_constant`, `up_constant`,
the three approximation pipelines and the `approximate` command at n in
{64, 256, 1024, 2048}.

    PYTHONPATH=src python tools/scale_probe.py --out probe.json

Hosts: the seeded closure and `points_linf` hosts of `lab.random_space`
and an S-valued ultrametric (`lab.random_s_ultrametric`, S geometric
with ratio 1/2).  Each pipeline runs at eps = diameter / 8; the
S-valued host also runs `approximate_ud` with S.  The `cli_approximate_ud`
and `cli_approximate_up` stages time the whole command,
``metriclab approximate FILE --property P --epsilon 0.125 --fraction
--out OUT`` run in-process: reading and validating the host's space file
(written once per case, untimed), the pipeline and writing the output
file, whose sha256 is reported so two versions can be seen to write the
same bytes.  `doubling_constant`
runs as `classify` calls it (beta = 2, the default budget, rng 0), and
so does `up_constant` (r_min = the host's separation, computed untimed).
Every (host, n) case runs in its own process, so its `ru_maxrss` is
that case's peak RSS.  Each stage is timed REPEATS times and the median
is reported.  The first `doubling_constant` call of the process, which
draws the random subsets, is reported apart as
`doubling_constant_first`; the REPEATS calls after it make the warm
median.  A case that exceeds CAP_S seconds reads "over cap".  Uses only
the standard library, numpy and the package.

One case alone, as JSON on standard output (run it under another
checkout's `src` to compare two versions case by case):

    PYTHONPATH=src python tools/scale_probe.py --out - --case closure 256
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
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
        doubling_constant,
        geometric_range_set,
        space_to_json,
        up_constant,
    )
    from metriclab.cli import main as cli_main

    samples: dict[str, list[float]] = {}
    digests: dict[str, str] = {}
    workdir = tempfile.TemporaryDirectory(prefix="scale_probe_")
    space_path = os.path.join(workdir.name, "host.json")
    out_path = os.path.join(workdir.name, "out.json")

    def timed(stage, fn):
        start = time.perf_counter()
        result = fn()
        samples.setdefault(stage, []).append(time.perf_counter() - start)
        return result

    for repeat in range(REPEATS):
        host = timed("host", lambda: _host(kind, n))
        eps = host.diameter / 8
        timed("diagnose", lambda: diagnose(host.labels, host.matrix))
        if not repeat:
            timed("doubling_constant_first", lambda: doubling_constant(host, 2.0))
        timed("doubling_constant", lambda: doubling_constant(host, 2.0))
        separation = host.separation
        timed("up_constant", lambda: up_constant(host, separation))
        timed("approximate_ud", lambda: approximate_ud(host, eps))
        timed("approximate_up", lambda: approximate_up(host, eps))
        timed("approximate_doubling", lambda: approximate_doubling(host, eps))
        if kind == "s_ultrametric":
            S = geometric_range_set(0.5)
            timed("approximate_ud_S", lambda: approximate_ud(host, eps, S=S))
        if not repeat:
            with open(space_path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(space_to_json(host)))
        for prop in ("ud", "up"):
            argv = ["approximate", space_path, "--property", prop]
            argv += ["--epsilon", "0.125", "--fraction", "--out", out_path]
            if timed(f"cli_approximate_{prop}", lambda: cli_main(argv)) != 0:
                raise RuntimeError(f"metriclab {' '.join(argv)} failed")
            with open(out_path, "rb") as handle:
                digests[prop] = hashlib.sha256(handle.read()).hexdigest()
    workdir.cleanup()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "host": kind,
        "n": n,
        "median_s": {stage: statistics.median(xs) for stage, xs in samples.items()},
        "samples_s": samples,
        "cli_output_sha256": digests,
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
