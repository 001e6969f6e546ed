"""Measure how steady the benchmark is, the way its gate compares runs.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads cli_ultra --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --write-baseline

It makes two sets of end-to-end runs (--trace 0, BENCHMARK.json's
run_seconds), one set after the other.  Within a set each seed runs every
chosen workload in turn, so the workloads interleave.  For each set,
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median, against the metric's bound.  It
then prints how much worse the second set's median is than the first's.
Both sets must give the same output digest for each seed.  With
--write-baseline it stores those figures and each seed's digest in
perfbench/baseline.json; run.py compares each run's digest against it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def figures(series: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(series, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": series}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [workload["name"] for workload in bench["workloads"]]
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {
        (s, w): {name: [] for name in metrics} for s in range(SETS) for w in args.workloads
    }
    digests: dict[str, dict[str, str]] = {w: {} for w in args.workloads}
    all_correct = True
    env = None
    run_walls = []
    for s in range(SETS):
        for seed in args.seeds:
            for workload in args.workloads:
                started = time.monotonic()
                report, result = run_once(workload, seed, seconds)
                run_walls.append(time.monotonic() - started)
                env = report["env"]
                if not result["correct"]:
                    print(f"{workload} seed {seed}: not correct: {report['failures']}")
                    all_correct = False
                if digests[workload].setdefault(str(seed), report["digest"]) != report["digest"]:
                    print(f"{workload} seed {seed}: digest differs between sets")
                    all_correct = False
                for name, entry in result["metrics"].items():
                    values[s, workload][name].append(entry["value"])
                shown = " ".join(
                    f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
                )
                probe = f"probe_ms={env['speed_probe_ms_start']:.3f}/{env['speed_probe_ms_end']:.3f}"
                print(
                    f"set {s + 1} {workload} seed {seed}: passes={report['passes']}"
                    f" wall_s={run_walls[-1]:.1f} {probe} {shown}",
                    flush=True,
                )

    baseline_path = HERE / "baseline.json"
    baseline = {"workloads": {}}
    if baseline_path.is_file():
        baseline = json.loads(baseline_path.read_text())
    baseline.update(seconds=seconds, env=env)
    for workload in args.workloads:
        sets = [
            {name: figures(series) for name, series in values[s, workload].items()}
            for s in range(SETS)
        ]
        worse_by = {}
        for name, metric in metrics.items():
            bound = metric["bound"]
            for s, figs in enumerate(sets):
                fig = figs[name]
                verdict = "under bound/3" if fig["spread"] < bound / 3 else (
                    "under bound" if fig["spread"] <= bound else "OVER bound"
                )
                print(
                    f"set {s + 1} {workload} {name}: median={fig['median']:.6g}"
                    f" q1={fig['q1']:.6g} q3={fig['q3']:.6g}"
                    f" spread={fig['spread']:.4f} {verdict} {bound}"
                )
            first, second = sets[0][name]["median"], sets[-1][name]["median"]
            change = (second - first) / first
            worse_by[name] = change if metric["better"] == "lower" else -change
            verdict = "within" if worse_by[name] <= bound else "OVER"
            print(
                f"sets 1->2 {workload} {name}: worse_by={worse_by[name]:.4f}"
                f" {verdict} bound {bound}"
            )
        baseline["workloads"][workload] = {
            "digests": digests[workload],
            "sets": sets,
            "worse_by": worse_by,
        }
    runs = 4 + 22 * len(bench["workloads"])
    mean_wall = statistics.mean(run_walls)
    print(f"mean run wall time {mean_wall:.1f} s; {runs} runs would take {runs * mean_wall:.0f} s")
    if args.write_baseline:
        baseline_path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
