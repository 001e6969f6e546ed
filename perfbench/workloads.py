"""The three benchmark workloads.

Each workload builds its inputs from the seed with the benchmark's own
numpy code (so set-up time does not move when a library kernel changes),
lists the ops of one pass, and checks every op's output.  An op is one
call into the public API or one CLI command.  Every pass runs the same
ops on the same inputs, so each pass must produce the same output digest.

Library calls go through module attributes (``spaces.validate``, not a
name bound at import time), so the traced run sees them once it has
rebound those attributes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from metriclab import build, cli, lab, moduli, spaces

@dataclass(frozen=True)
class Op:
    """One call into the library: `run()` returns the output, `check(out)`
    returns (ok, bytes to digest)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, bytes]]


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"p{k:03d}" for k in range(n))


def _sup(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _metric_shape_ok(matrix: np.ndarray, n: int) -> bool:
    return (
        matrix.shape == (n, n)
        and bool((matrix == matrix.T).all())
        and bool((np.diagonal(matrix) == 0).all())
    )


# ---------------------------------------------------------------- lab_mix

_LAB_ROUND_KINDS = (
    "dense_doubling",
    "dense_ud",
    "dense_up",
    "dense_ult_doubling",
    "dense_ult_up",
    "perturb_chain",
)


def lab_order() -> list[str]:
    """The 63 ops of a pass: ten rounds of the six common kinds, with the
    two perturb_uniform ops after rounds 3 and 8 and the one type_grid op
    after round 5."""
    order = []
    for round_index in range(10):
        order.extend(_LAB_ROUND_KINDS)
        if round_index in (3, 8):
            order.append("perturb_uniform")
        if round_index == 5:
            order.append("type_grid")
    return order


class LabMix:
    """Single-trial `run_experiment` ops over all eight kinds (n = 32-128)."""

    def __init__(self, seed: int, workdir: str):
        order = lab_order()
        op_seeds = np.random.SeedSequence(seed).generate_state(len(order))
        self.configs = [
            (kind, lab.ExperimentConfig(experiment=kind, trials=1, seed=int(s)))
            for kind, s in zip(order, op_seeds)
        ]
        self.dense_up_rows = 0
        self.dense_up_vacuous = 0

    def ops(self) -> list[Op]:
        return [
            Op(kind, lambda config=config: lab.run_experiment(config), self._checker(kind))
            for kind, config in self.configs
        ]

    def _checker(self, kind):
        def check(report):
            if kind == "dense_up":
                for row in report["rows"]:
                    self.dense_up_rows += 1
                    self.dense_up_vacuous += row.get("after_heredity_floor") == 0
            ok = report["summary"]["all_pass"] is True
            return ok, json.dumps(report, sort_keys=True).encode()

        return check

    def counters(self) -> dict:
        share = self.dense_up_vacuous / self.dense_up_rows if self.dense_up_rows else 0.0
        return {"lab.dense_up.vacuous_share": share}


# ----------------------------------------------------------- large_metric

LARGE_N = 512


def dissimilarity(rng, n: int) -> np.ndarray:
    """Symmetric uniform(0.5, 2) matrix with a zero diagonal."""
    raw = np.triu(rng.uniform(0.5, 2.0, size=(n, n)), k=1)
    return raw + raw.T


def linf_points(rng, n: int) -> np.ndarray:
    """Max-norm distances of n uniform points in the unit square, redrawn
    until no two points coincide."""
    while True:
        points = rng.uniform(0.0, 1.0, size=(n, 2))
        matrix = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2)
        if matrix[~np.eye(n, dtype=bool)].min() > 0:
            return matrix


def floyd_warshall(raw: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths, for checking metric_closure."""
    m = raw.copy()
    for k in range(m.shape[0]):
        np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
    return m


def minimax_paths(matrix: np.ndarray) -> np.ndarray:
    """Reference all-pairs minimax chain costs (the largest step of the
    best chain), for checking the disconnectedness report."""
    m = matrix.copy()
    for k in range(m.shape[0]):
        np.minimum(m, np.maximum(m[:, k : k + 1], m[k : k + 1, :]), out=m)
    return m


class LargeMetric:
    """Closure and point hosts at n = 512, then classify and the three
    approximation pipelines on each, at eps = diameter / 8."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.labels = _labels(LARGE_N)
        self.raw = dissimilarity(rng, LARGE_N)
        self.points = linf_points(rng, LARGE_N)
        self.hosts = {}
        self._closure_reference = None
        self._bottleneck_reference = {}

    def ops(self) -> list[Op]:
        ops = [
            Op("metric_closure", self._closure, self._check_closure),
            Op("validate", self._validate, self._check_validate),
        ]
        for host in ("closure", "points"):
            ops.append(
                Op(
                    f"classify.{host}",
                    lambda h=host: moduli.classify(self.hosts[h]),
                    self._check_classify(host),
                )
            )
            for kind in ("ud", "up", "doubling"):
                ops.append(
                    Op(
                        f"approximate_{kind}.{host}",
                        lambda h=host, k=kind: self._approx(k, h),
                        self._bound_checker(host, kind),
                    )
                )
        return ops

    def _closure(self):
        self.hosts["closure"] = spaces.metric_closure(self.labels, self.raw)
        return self.hosts["closure"]

    def _validate(self):
        self.hosts["points"] = spaces.validate(self.labels, self.points, flavor="metric")
        return self.hosts["points"]

    def _approx(self, kind, host):
        space = self.hosts[host]
        eps = space.diameter / 8
        pipeline = getattr(build, f"approximate_{kind}")
        return pipeline(space, eps) + (eps,)

    def _check_closure(self, space):
        if self._closure_reference is None:
            self._closure_reference = floyd_warshall(self.raw)
        ok = space.labels == self.labels and np.allclose(
            space.matrix, self._closure_reference, rtol=1e-12, atol=0.0
        )
        return ok, space.matrix.tobytes()

    def _check_validate(self, space):
        ok = space.labels == self.labels and np.array_equal(space.matrix, self.points)
        return ok, space.matrix.tobytes()

    def _check_classify(self, host):
        def check(tv):
            space = self.hosts[host]
            t = moduli.DEFAULT_THRESHOLDS
            doubling, ud, up = (tv.reports[k] for k in ("doubling", "ud", "up"))
            # Each bit is its report's value against the default threshold.
            ok = tv.thresholds == t and tv.bits == (
                int(doubling.constant <= t.c_max),
                int(ud.delta_star >= t.delta_min),
                int(up.c_star >= t.c_min),
            )
            # Each report's value is recomputed from its witness on the host.
            sub = space.matrix[np.ix_(doubling.witness, doubling.witness)]
            ratio = len(doubling.witness) * (sub[sub > 0].min() / sub.max()) ** t.beta0
            ok = ok and doubling.beta == t.beta0 and np.isclose(doubling.constant, ratio)
            if host not in self._bottleneck_reference:
                self._bottleneck_reference[host] = minimax_paths(space.matrix)
            off = ~np.eye(space.n, dtype=bool)
            i, j = ud.witness_pair
            ok = (
                ok
                and np.array_equal(ud.bottleneck, self._bottleneck_reference[host])
                and ud.delta_star == (ud.bottleneck[off] / space.matrix[off]).min()
                and ud.delta_star == ud.bottleneck[i, j] / space.matrix[i, j]
            )
            ok = ok and up.r_min == space.separation and 0.0 <= up.c_star <= 1.0
            values = (tv.bits, doubling.constant, doubling.mode, ud.delta_star, up.c_star)
            return bool(ok), repr(values).encode()

        return check

    def _bound_checker(self, host, kind):
        def check(result):
            out, report, eps = result
            reference = self.hosts[host]
            if kind == "up":
                limit = 4 * report.eps_effective
                scalars = (report.c_star, report.bound, report.r_min, report.eps_effective)
            elif kind == "doubling":
                limit = 4 * eps
                scalars = (report.dimension,)
            else:
                limit = 4 * eps
                scalars = (report.delta_star,)
            ok = (
                out.labels == reference.labels
                and _metric_shape_ok(out.matrix, reference.n)
                and _sup(out.matrix, reference.matrix) <= limit
            )
            return ok, out.matrix.tobytes() + repr(scalars).encode()

        return check

    def counters(self) -> dict:
        return {}


# -------------------------------------------------------------- cli_ultra

CLI_DEPTH = 10
CLI_N = 640
RANGESET = {"kind": "geometric", "ratio": 0.5, "scale": 1.0}


def s_valued_ultrametric(rng, depth: int, n: int) -> tuple[list[str], np.ndarray]:
    """n distinct binary strings of length `depth`; the distance of two
    strings is 0.5**e[k], k the first position where they differ, for
    seeded strictly increasing exponents e.  All values lie in S."""
    ids = np.sort(rng.choice(1 << depth, size=n, replace=False))
    exponents = np.sort(rng.choice(2 * depth, size=depth, replace=False))
    table = np.append(0.5 ** exponents.astype(float), 0.0)
    bit_length = np.array([int(k).bit_length() for k in range(1 << depth)])
    level = depth - bit_length[ids[:, None] ^ ids[None, :]]
    labels = [format(int(i), f"0{depth}b") for i in ids]
    return labels, table[level]


class CliUltra:
    """The metriclab command on a 640-point S-valued ultrametric file,
    run in-process through `metriclab.cli.main`."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        labels, self.matrix = s_valued_ultrametric(rng, CLI_DEPTH, CLI_N)
        self.space_path = os.path.join(workdir, "space.json")
        self.rangeset_path = os.path.join(workdir, "rangeset.json")
        with open(self.space_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"labels": labels, "matrix": self.matrix.tolist(), "flavor": "ultrametric"},
                handle,
            )
        with open(self.rangeset_path, "w", encoding="utf-8") as handle:
            json.dump(RANGESET, handle)
        self.eps = 0.125 * float(self.matrix.max())
        self.out = {
            name: os.path.join(workdir, f"{name}.out.json")
            for name in ("validate", "approximate_ud", "approximate_up")
        }

    def ops(self) -> list[Op]:
        approximate = ["approximate", self.space_path, "--fraction", "--epsilon", "0.125"]
        argvs = {
            "validate": ["validate", self.space_path],
            "approximate_ud": approximate + ["--property", "ud", "--rangeset", self.rangeset_path],
            "approximate_up": approximate + ["--property", "up"],
        }
        return [
            Op(
                name,
                lambda argv=argv + ["--out", self.out[name]]: cli.main(argv),
                self._checker(name),
            )
            for name, argv in argvs.items()
        ]

    def _checker(self, name):
        def check(code):
            if code != 0:
                return False, b""
            with open(self.out[name], "rb") as handle:
                raw = handle.read()
            os.remove(self.out[name])  # so the next pass cannot pass on a stale file
            payload = json.loads(raw)
            if name == "validate":
                expected = {
                    "valid": True,
                    "n": CLI_N,
                    "flavor": "ultrametric",
                    "diameter": float(self.matrix.max()),
                }
                return payload == expected, raw
            out = np.array(payload["space"]["matrix"], dtype=float)
            if name == "approximate_ud":
                # S-valued max form: every changed pair stays at or below eps (eps is in S).
                keys = {"space", "delta_star", "epsilon"}
                changed = out != self.matrix
                worst = np.maximum(out, self.matrix)[changed]
                ok = not changed.any() or float(worst.max()) <= self.eps
            else:
                keys = {"space", "c_star", "heredity_floor", "r_min", "eps_effective", "epsilon"}
                ok = _sup(out, self.matrix) <= 4 * payload["eps_effective"]
            ok = (
                ok
                and set(payload) == keys
                and _metric_shape_ok(out, CLI_N)
                and payload["epsilon"] == self.eps
            )
            return bool(ok), raw

        return check

    def counters(self) -> dict:
        return {}


def make(name: str, seed: int, workdir: str):
    classes = {"lab_mix": LabMix, "large_metric": LargeMetric, "cli_ultra": CliUltra}
    return classes[name](seed, workdir)
