"""Seeded experiment driver.

Three experiment families, all deterministic per (config, seed):

* dense_*   -- draw a random instance, run the matching approximation
               pipeline, and check the theorem-backed proximity bound
               (4 * eps for the sum form, eps for the range-set form);
* perturb_* -- draw metrics close to a reference (uniform or
               arithmetic-progression) metric and check the stability
               inequalities for subset diameter/separation and for the
               chain-based disconnectedness modulus;
* type_grid -- for each of the eight type bit vectors: generate a space
               of that type, amalgamate type-matching pieces onto a
               random two-cluster host, and require both measurements
               to land on the target type.

Each trial derives its own generator from (master seed, trial index),
so reports are byte-identical across runs of the same config.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import operator
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from .build import (
    _max_norm_space,
    amalgamate_metric,
    approximate_doubling,
    approximate_ud,
    approximate_up,
    carve_pieces,
)
from .cantor import (
    _blow_up,
    _gapped_rungs,
    _ladder_space,
    _point_labels,
    _prefix_labels,
    _ring_matrix,
    _s_ladder_space,
    _string_depth,
    generate_type,
)
from .errors import GenerationFailed, MetricLabError, NonpositiveOffDiagonal
from .jsontext import dumps
from .moduli import (
    DEFAULT_THRESHOLDS,
    Thresholds,
    classify,
    doubling_constant,
    ud_modulus,
    up_report,
)
from .rangesets import RangeSet, _element, _is_integer, _is_number, geometric_range_set
from .spaces import (
    METRIC,
    ULTRAMETRIC,
    FiniteMetricSpace,
    diagnose,
    metric_closure,
    sup_distance,
    ultra_distance,
    validate,
)

# Budget for the before/after modulus measurements recorded per trial
# (kept modest: these are report fields, not the pass/fail criteria).
_RECORD_BUDGET = 400


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int | None = None
    depth: int | None = None
    epsilon: float = 0.125
    epsilon_mode: str = "fraction"  # "fraction" of diameter, or "absolute"
    trials: int = 1
    seed: int = 0
    thresholds: Thresholds = DEFAULT_THRESHOLDS
    format: str = "json"
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for name in ("n", "depth", "trials", "seed"):
            value = getattr(self, name)
            if not _is_integer(value) and not (value is None and name in ("n", "depth")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not _is_number(self.epsilon):
            raise ValueError(f"epsilon must be a number, got {self.epsilon!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a file path, got {self.out!r}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.epsilon_mode not in ("fraction", "absolute"):
            raise ValueError("epsilon_mode must be 'fraction' or 'absolute'")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be 'json' or 'csv'")
        _, size, default, least = _KINDS[self.experiment]
        value = default if getattr(self, size) is None else getattr(self, size)
        if value < least:
            raise ValueError(f"{self.experiment} needs {size} >= {least}")
        object.__setattr__(self, size, value)

    def to_json(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["thresholds"] = self.thresholds.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Read the config's fields from `obj`; absent ones keep their
        defaults, and `experiment` is required."""
        try:
            names = [f.name for f in fields(cls) if f.default is MISSING or f.name in obj]
            args = {name: obj[name] for name in names}
            if "thresholds" in args:
                args["thresholds"] = Thresholds.from_json(args["thresholds"])
            return cls(**args)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed experiment config: {exc}") from exc


def matrix_digest(space: FiniteMetricSpace) -> str:
    return hashlib.sha256(space.matrix.tobytes()).hexdigest()[:16]


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial,)))


def random_space(mode: str, size: int, seed) -> FiniteMetricSpace:
    """Seeded random instances.

    closure     -- symmetric uniform(0.5, 2.0) entries repaired by the
                   shortest-path closure;
    points_linf -- uniform points in the unit square under the max norm
                   (so the instance is realizable by construction);
    sequential  -- random strictly decreasing ladder on the first `size`
                   binary strings (an ultrametric).
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = np.random.default_rng(seed)
    labels = _point_labels(size)
    if mode == "closure":
        raw = rng.uniform(0.5, 2.0, size=(size, size))
        raw = np.triu(raw, k=1)
        raw = raw + raw.T
        return metric_closure(labels, raw)
    if mode == "points_linf":
        while True:
            try:
                return _max_norm_space(labels, rng.uniform(0.0, 1.0, size=(size, 2)))
            except NonpositiveOffDiagonal:  # two points coincide: redraw
                continue
    if mode == "sequential":
        depth = _string_depth(size)
        rungs = np.sort(rng.uniform(0.05, 1.0, size=depth))[::-1]
        while len(set(rungs.tolist())) < depth:  # vanishing probability
            rungs = np.sort(rng.uniform(0.05, 1.0, size=depth))[::-1]
        return _ladder_space(rungs, _prefix_labels(size, depth))
    raise ValueError(f"unknown random_space mode {mode!r}")


def random_s_ultrametric(size: int, S: RangeSet, seed) -> FiniteMetricSpace:
    """Random S-valued ultrametric: a sequential metric whose rungs are
    S elements at randomly chosen consecutive-or-skipping exponents."""
    if S.kind != "geometric":
        raise ValueError("random S-valued instances need a geometric range set")
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = np.random.default_rng(seed)
    depth = _string_depth(size)
    exponents = np.sort(rng.choice(2 * depth, size=depth, replace=False))
    rungs = [_element(S, int(e)) for e in exponents]
    return _ladder_space(rungs, _prefix_labels(size, depth))


def _absolute_epsilon(config: ExperimentConfig, space: FiniteMetricSpace) -> float:
    if config.epsilon_mode == "absolute":
        return config.epsilon
    return config.epsilon * space.diameter


def _modulus(name: str, space: FiniteMetricSpace, thresholds: Thresholds) -> float:
    if name == "doubling":
        return doubling_constant(space, thresholds.beta0, budget=_RECORD_BUDGET).constant
    if name == "delta_star":
        return ud_modulus(space).delta_star
    return up_report(space, space.separation).c_star


# A check is (name, value, relation, bound); a row passes when every
# check of its trial holds.
_RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def _passes(checks) -> bool:
    return all(_RELATIONS[relation](value, bound) for _, value, relation, bound in checks)


def _row(trial, space, eps, achieved, bound, before, after) -> dict:
    """A trial's report row; `space` is the matrix its digest names."""
    row = {
        "trial": trial,
        "digest": matrix_digest(space),
        "epsilon": eps,
        "achieved": achieved,
        "bound": bound,
        "error": None,
    }
    row.update((f"before_{key}", value) for key, value in before.items())
    row.update((f"after_{key}", value) for key, value in after.items())
    return row


def _dense_trial(sampler: str, modulus: str, config: ExperimentConfig, trial: int):
    """One dense trial: draw a host from `sampler` (a random_space mode,
    or "s_ultrametric"), run the experiment's pipeline on it, and record
    `modulus` on the host and on the output.  S-valued hosts are measured
    in the ultrametric distance over S with bound eps, the others in the
    sup distance with bound 4 * eps."""
    rng = trial_rng(config.seed, trial)
    S = geometric_range_set(0.5) if sampler == "s_ultrametric" else None
    if S is None:
        host = random_space(sampler, config.n, rng)
    else:
        host = random_s_ultrametric(config.n, S, rng)
    eps = _absolute_epsilon(config, host)
    before = {modulus: _modulus(modulus, host, config.thresholds)}

    scale = eps  # the bound's eps
    if config.experiment == "dense_doubling":
        out, embedding = approximate_doubling(host, eps)
        after = {"embedding_dimension": float(embedding.dimension)}
        checks = []
    elif config.experiment == "dense_up":
        out, report = approximate_up(host, eps)
        scale = report.eps_effective
        after = {
            "c_star": report.c_star,
            "heredity_floor": report.bound,
            "eps_effective": report.eps_effective,
        }
        checks = [("c_star", report.c_star, ">=", report.bound)]
    else:
        out, report = approximate_ud(host, eps, S=S)
        after = {"delta_star": report.delta_star}
        floor = min(0.5, eps / (2 * out.diameter))  # approximate_ud's proven floor
        checks = [("delta_star", report.delta_star, ">=", floor)]
    if S is None:
        achieved, bound = float(sup_distance(out, host)), float(4 * scale)
    else:
        achieved, bound = float(ultra_distance(out, host, S)), float(scale)
    checks.append(("distance", achieved, "<=", bound))
    if modulus not in after:
        after[modulus] = _modulus(modulus, out, config.thresholds)
    return _row(trial, host, eps, achieved, bound, before, after), checks


def _run_trials(trial_fn, config: ExperimentConfig) -> list[dict]:
    """One row per trial, its `pass` from the checks that `trial_fn`
    returns with it; a library error becomes a failed row of nulls."""
    rows = []
    for trial in range(config.trials):
        try:
            row, checks = trial_fn(config, trial)
            row["pass"] = _passes(checks)
        except MetricLabError as exc:
            row = {
                "trial": trial,
                "digest": "",
                "epsilon": None,
                "achieved": None,
                "bound": None,
                "pass": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        rows.append(row)
    return rows


def _uniform_space(n: int) -> FiniteMetricSpace:
    matrix = np.ones((n, n)) - np.eye(n)
    return validate(_point_labels(n), matrix, flavor=ULTRAMETRIC)


def _progression_space(n: int) -> FiniteMetricSpace:
    ids = np.arange(n, dtype=float)
    matrix = np.abs(ids[:, None] - ids[None, :])
    return validate(_point_labels(n), matrix, flavor=METRIC)


def _perturb_within_half(base: FiniteMetricSpace, rng) -> FiniteMetricSpace:
    """Add symmetric off-diagonal uniform(-0.49, 0.49) noise to the
    uniform base and repair a broken triangle inequality by the
    shortest-path closure.  Raw entries lie in [0.51, 1.49) and a closure
    path sums at least two of them, so repaired entries stay there too and
    the result lies within sup distance 1/2 of the base."""
    n = base.n
    noise = np.triu(rng.uniform(-0.49, 0.49, size=(n, n)), k=1)
    raw = base.matrix + noise + noise.T
    if diagnose(base.labels, raw, flavor=METRIC) is None:
        return FiniteMetricSpace(base.labels, raw, flavor=METRIC)
    return metric_closure(base.labels, raw)


def _perturb_uniform_trial(config: ExperimentConfig, trial: int):
    """Subset diameters and separations of the uniform base are all 1.
    Every pair is a subset, and adding points only raises a diameter or
    lowers a separation, so the extreme ratios over all subsets are the
    extreme off-diagonal entries of the perturbed matrix: its separation
    and, as those entries are positive, its diameter."""
    rng = trial_rng(config.seed, trial)
    base = _uniform_space(config.n)
    perturbed = _perturb_within_half(base, rng)
    min_diam_ratio = perturbed.separation
    max_sep_ratio = perturbed.diameter
    achieved = sup_distance(perturbed, base)
    before = {"diam_ratio_floor": 0.5, "sep_ratio_cap": 2.0}
    after = {"min_diam_ratio": min_diam_ratio, "max_sep_ratio": max_sep_ratio}
    checks = [
        ("distance", achieved, "<", 0.5),
        ("min_diam_ratio", min_diam_ratio, ">=", 0.5),
        ("max_sep_ratio", max_sep_ratio, "<=", 2.0),
    ]
    return _row(trial, perturbed, 0.5, achieved, 0.5, before, after), checks


def _perturb_chain_trial(config: ExperimentConfig, trial: int):
    rng = trial_rng(config.seed, trial)
    n = config.n
    base = _progression_space(n)
    positions = np.arange(n, dtype=float) + rng.uniform(-0.24, 0.24, size=n)
    matrix = np.abs(positions[:, None] - positions[None, :])
    perturbed = validate(_point_labels(n), matrix, flavor=METRIC)
    base_mod = float(ud_modulus(base).delta_star)
    pert_mod = float(ud_modulus(perturbed).delta_star)
    before, after = {"delta_star": base_mod}, {"delta_star": pert_mod}
    checks = [
        ("distance", sup_distance(perturbed, base), "<", 0.5),
        ("delta_star", pert_mod, "<=", 4 * base_mod),
    ]
    return _row(trial, perturbed, 0.5, pert_mod, 4 * base_mod, before, after), checks


def grid_host(n: int, rng) -> FiniteMetricSpace:
    """Two tight uniform-ish clusters far apart: cluster spreads in
    [0.01, 0.02], cross distances in [sigma, sigma + 0.01] for a random
    sigma in [1.5, 2.5].  Triangle-valid by construction."""
    half = n // 2
    sigma = float(rng.uniform(1.5, 2.5))
    matrix = np.zeros((n, n))
    for block in (slice(0, half), slice(half, n)):
        size = block.stop - block.start
        intra = rng.uniform(0.01, 0.02, size=(size, size))
        intra = np.triu(intra, k=1)
        matrix[block, block] = intra + intra.T
    cross = sigma + rng.uniform(0.0, 0.01, size=(half, n - half))
    matrix[:half, half:] = cross
    matrix[half:, :half] = cross.T
    return validate(_point_labels(n), matrix, flavor=METRIC)


def _fat_piece_matrix(count: int, diameter: float, gap: float) -> np.ndarray:
    """Three-level ultrametric: blocks at `gap`, block pairs at
    diameter / 8, everything else at `diameter`.  Block sizes are fixed
    fractions of the piece (40/64, 8/64, 12/64, 4/64), so one block
    always exceeds the default doubling threshold when count >= 54."""
    sizes = [
        max(1, round(count * 40 / 64)),
        max(1, round(count * 8 / 64)),
        max(1, round(count * 12 / 64)),
    ]
    sizes.append(count - sum(sizes))
    if sizes[-1] < 1:
        raise GenerationFailed(f"fat piece needs more than {count} points")
    # the base: blocks (0, 1) and blocks (2, 3) meet at the middle level
    base = np.full((4, 4), diameter)
    base[:2, :2] = base[2:, 2:] = diameter / 8
    return _blow_up(base, sizes, gap)


def _grid_piece(style: str, labels, eps: float) -> FiniteMetricSpace:
    count = len(labels)
    if style == "geo":
        return _s_ladder_space(labels, eps, geometric_range_set(0.5, eps))
    if style == "ring":
        return validate(
            tuple(labels), _ring_matrix(count, eps / (count // 2)), flavor=METRIC
        )
    if style == "gapped":
        return _ladder_space(_gapped_rungs(_string_depth(count), eps), tuple(labels))
    if style == "fat":
        return validate(
            tuple(labels), _fat_piece_matrix(count, eps, eps / 32), flavor=ULTRAMETRIC
        )
    if style == "fat_offset":
        return validate(
            tuple(labels), _fat_piece_matrix(count, eps, eps / 16), flavor=ULTRAMETRIC
        )
    raise ValueError(f"unknown grid piece style {style!r}")


# Piece styles per type target: chosen so the amalgam's measured bits
# reproduce the target (doubling breaks inside a fat block; the chain
# bit breaks on a ring; perfectness breaks on a gapped ladder or on a
# separation mismatch between the two pieces).
GRID_PIECES = {
    (1, 1, 1): ("geo", "geo"),
    (0, 1, 1): ("fat", "fat"),
    (1, 0, 1): ("ring", "ring"),
    (1, 1, 0): ("gapped", "gapped"),
    (0, 1, 0): ("fat", "gapped"),
    (1, 0, 0): ("ring", "gapped"),
    (0, 0, 1): ("fat", "ring"),
    (0, 0, 0): ("fat_offset", "ring"),
}


def run_type_grid(config: ExperimentConfig) -> list[dict]:
    depth = config.depth
    n = 1 << depth
    rows = []
    for index, (target, styles) in enumerate(GRID_PIECES.items()):
        rng = trial_rng(config.seed, index)
        row = {
            "target": "".join(str(b) for b in target),
            "standalone": None,
            "amalgam": None,
            "sup_distance": None,
            "epsilon": None,
            "pass": False,
            "error": None,
        }
        try:
            standalone, recipe = generate_type(
                target, depth, seed=int(rng.integers(1 << 32)), thresholds=config.thresholds
            )
            row["recipe"] = recipe
            row["standalone"] = row["target"]  # generate_type re-measured it

            host = grid_host(n, rng)
            eps = _absolute_epsilon(config, host)
            partition = carve_pieces(host, eps)
            if len(partition.pieces) != len(styles):
                raise GenerationFailed(
                    f"carving produced {len(partition.pieces)} pieces, wanted {len(styles)}"
                )
            pieces = [
                _grid_piece(style, tuple(host.labels[i] for i in piece), eps)
                for style, piece in zip(styles, partition.pieces)
            ]
            amalgam = amalgamate_metric(host, partition, pieces)
            measured = classify(amalgam, thresholds=config.thresholds)
            row["amalgam"] = "".join(str(b) for b in measured.bits)
            distance = row["sup_distance"] = sup_distance(amalgam, host)
            row["epsilon"] = eps
            row["pass"] = _passes(
                [("bits", measured.bits, "==", target), ("distance", distance, "<=", 4 * eps)]
            )
        except MetricLabError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _dense(sampler: str, modulus: str):
    return partial(_run_trials, partial(_dense_trial, sampler, modulus))


# Per experiment kind: the function from config to report rows, the
# config field that sizes the run, that field's default and its least
# value.  A perfectness host needs two pieces of at least two points.
_KINDS = {
    "dense_doubling": (_dense("closure", "doubling"), "n", 64, 2),
    "dense_ud": (_dense("points_linf", "delta_star"), "n", 64, 2),
    "dense_up": (_dense("points_linf", "c_star"), "n", 64, 3),
    "dense_ult_doubling": (_dense("s_ultrametric", "doubling"), "n", 64, 2),
    "dense_ult_up": (_dense("s_ultrametric", "c_star"), "n", 64, 2),
    "perturb_uniform": (partial(_run_trials, _perturb_uniform_trial), "n", 32, 2),
    "perturb_chain": (partial(_run_trials, _perturb_chain_trial), "n", 33, 2),
    "type_grid": (run_type_grid, "depth", 7, 6),
}
EXPERIMENTS = tuple(_KINDS)


def run_experiment(config: ExperimentConfig) -> dict:
    """Collect the kind's rows and assemble the deterministic report."""
    rows = _KINDS[config.experiment][0](config)
    passes = [row["pass"] for row in rows]
    return {
        "config": config.to_json(),
        "rows": rows,
        "summary": {
            "rows": len(rows),
            "passes": sum(passes),
            "pass_rate": sum(passes) / len(passes) if passes else 0.0,
            "all_pass": all(passes) if passes else False,
        },
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv(report: dict) -> str:
    rows = report["rows"]
    columns = sorted({key for row in rows for key in row})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(column)) for column in columns])
    return buffer.getvalue()


def render_report(report: dict, fmt: str) -> str:
    if fmt == "csv":
        return report_csv(report)
    return dumps(report)
