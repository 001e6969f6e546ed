"""Quantitative moduli for the three quasi-symmetry-invariant properties.

Finite spaces satisfy all three properties vacuously at some constant,
so each yes/no property is replaced by a measured modulus:

* doubling        -- the minimal constant C with card(A) <= C * (diam/sep)**beta
                     over subsets A (exhaustive for small spaces, a seeded
                     lower-bound search otherwise);
* disconnectedness -- delta* = min over pairs of bottleneck(x, y) / d(x, y),
                     where bottleneck is the minimax chain cost;
* perfectness     -- c* = the largest c such that every annulus
                     [c*r, r] around every point is inhabited for every
                     radius r in [r_min, diameter).

``classify`` compares the three measurements against thresholds and
returns the resulting bit vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadScaleCutoff, DegenerateSpace
from .spaces import FiniteMetricSpace, _subdominant_ultrametric

# Largest point count for which the doubling search enumerates all subsets.
EXHAUSTIVE_LIMIT = 15

# Relative margin by which an upper bound on a subset's ratio must fall
# short of the running best before the doubling search skips the subset:
# the bound and the ratio each carry a few ulps of ``**`` rounding error,
# far inside 1e-12, so nothing that could tie or beat the best is skipped.
_BOUND_MARGIN = 1 + 1e-12


@dataclass(frozen=True)
class Thresholds:
    """Classification thresholds (defaults are pinned by the test suite)."""

    beta0: float = 2.0
    c_max: float = 32.0
    delta_min: float = 0.05
    c_min: float = 0.05

    def to_json(self) -> dict:
        return {
            "beta0": self.beta0,
            "c_max": self.c_max,
            "delta_min": self.delta_min,
            "c_min": self.c_min,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Thresholds":
        base = cls()
        return cls(
            beta0=float(obj.get("beta0", base.beta0)),
            c_max=float(obj.get("c_max", base.c_max)),
            delta_min=float(obj.get("delta_min", base.delta_min)),
            c_min=float(obj.get("c_min", base.c_min)),
        )


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class DoublingReport:
    beta: float
    constant: float
    witness: tuple[int, ...]
    mode: str  # "exhaustive" | "sampled"


@dataclass(frozen=True)
class UDReport:
    delta_star: float
    witness_pair: tuple[int, int]
    bottleneck: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class UPReport:
    c_star: float
    r_min: float
    witness: tuple[int, float]  # (point index, binding radius)
    degenerate: bool = False  # r_min >= diameter: empty scale window


@dataclass(frozen=True)
class TypeVector:
    u1: int
    u2: int
    u3: int
    thresholds: Thresholds
    reports: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def bits(self) -> tuple[int, int, int]:
        return (self.u1, self.u2, self.u3)


def _subset_ratio(beta: float, card: int, diam: float, sep: float) -> float:
    # card / (diam/sep)**beta, computed as card * (sep/diam)**beta so the
    # witness identity card = constant * (diam/sep)**beta round-trips.
    return card * (sep / diam) ** beta


def _mask_to_tuple(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (mask >> i) & 1)


def _exhaustive_doubling(matrix: np.ndarray, beta: float) -> tuple[float, tuple[int, ...]]:
    """Scan every subset with >= 2 points via subset DP over bitmasks."""
    n = matrix.shape[0]
    size = 1 << n
    dmax = np.full(size, -np.inf)
    dmin = np.full(size, np.inf)
    for hi in range(n):
        sub = 1 << hi
        # rowmax/rowmin over subsets of {0..hi-1}: subset-DP on singletons.
        rowmax = np.full(sub, -np.inf)
        rowmin = np.full(sub, np.inf)
        if hi:
            rowmax[[1 << j for j in range(hi)]] = matrix[hi, :hi]
            rowmin[[1 << j for j in range(hi)]] = matrix[hi, :hi]
            for j in range(hi):
                half = 1 << j
                vmax = rowmax.reshape(-1, 2 * half)
                vmax[:, half:] = np.maximum(vmax[:, half:], vmax[:, :half])
                vmin = rowmin.reshape(-1, 2 * half)
                vmin[:, half:] = np.minimum(vmin[:, half:], vmin[:, :half])
        dmax[sub : 2 * sub] = np.maximum(dmax[:sub], rowmax)
        dmin[sub : 2 * sub] = np.minimum(dmin[:sub], rowmin)

    cards = np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(float)
    eligible = cards >= 2
    safe_min = np.where(eligible, dmin, 0.0)
    safe_max = np.where(eligible, dmax, 1.0)
    ratios = np.where(eligible, cards * (safe_min / safe_max) ** beta, -np.inf)
    best = float(ratios.max())
    tie_masks = np.nonzero(ratios == best)[0]
    witness = min(_mask_to_tuple(int(mask), n) for mask in tie_masks)
    return best, witness


def _ball_prefix_candidates(matrix: np.ndarray, beta: float, floor):
    """Deterministic candidates: prefixes of every sorted distance row.

    For each center c, the points o_0, o_1, ... in stable distance order
    from c yield nested "balls" P_r = {o_0, ..., o_r}; diameter and
    separation are running max / min over the rows of the reordered
    matrix.  Yields (ratio, witness tuple) of the best prefix (the first
    argmax) per center.

    `floor()` is read once per center, just before it is scored, and
    centers that cannot reach it are dropped.  P_r contains the pairs
    (o_1, o_0) and (o_r, o_0), so sep(P_r) <= d(o_1, o_0) and
    diam(P_r) >= d(o_r, o_0), which bounds its ratio by
    bound_r = (r+1) * (d(o_1, o_0) / d(o_r, o_0))**beta, one vector per
    center from a single column.  Division is correctly rounded and
    monotone and ``**`` is off by a few ulps, so a ratio never exceeds
    its bound by the _BOUND_MARGIN factor.  A center with no bound_r
    reaching the floor is skipped; otherwise only the leading block up to
    the last live prefix is gathered and reduced, which leaves the first
    argmax unchanged whenever it reaches the floor.  With any floor <=
    the caller's running best, everything dropped scores strictly below
    that best, so a search that ignores such candidates stays exact.
    """
    n = matrix.shape[0]
    tril = np.tril(np.ones((n, n), dtype=bool), k=-1)
    cards = np.arange(2, n + 1, dtype=float)
    for center in range(n):
        order = np.argsort(matrix[center], kind="stable")
        arm = matrix[order[1:], order[0]]
        bounds = cards * (arm[0] / arm) ** beta
        live = np.nonzero(bounds * _BOUND_MARGIN >= floor())[0]
        if not live.size:
            continue
        size = int(live[-1]) + 2
        head = order[:size]
        sub = matrix[head][:, head]
        rowmax = sub.max(axis=1, where=tril[:size, :size], initial=-np.inf)
        rowmin = sub.min(axis=1, where=tril[:size, :size], initial=np.inf)
        diam = np.maximum.accumulate(rowmax)[1:]
        sep = np.minimum.accumulate(rowmin)[1:]
        ratios = cards[: size - 1] * (sep / diam) ** beta
        k = int(np.argmax(ratios))
        witness = tuple(sorted(int(i) for i in order[: k + 2]))
        yield float(ratios[k]), witness


def doubling_constant(
    space: FiniteMetricSpace,
    beta: float,
    budget: int = 2000,
    rng=0,
) -> DoublingReport:
    """Largest card(A) / (diam(A)/sep(A))**beta over subsets A.

    Exhaustive over all subsets when the space has at most
    EXHAUSTIVE_LIMIT points.  Otherwise a deterministic-seeded search
    over `budget` random subsets, all pairs, the full set, and all
    sorted-row ball prefixes; the result is then a lower bound for the
    true constant and the report says so via mode="sampled".

    The search skips candidates that provably cannot reach the running
    best, without changing its result.  A random subset A keeps its RNG
    draws, then one arm d(a_0, a) over its other points a is read:
    sep(A) <= min arm and diam(A) >= max arm, so
    card * (min arm / max arm)**beta bounds its ratio, and the O(k^2)
    gather runs only when that bound, times _BOUND_MARGIN (which covers
    the rounding error of ``**``), reaches the best.  Ball prefixes
    are pruned the same way against the running best (see
    :func:`_ball_prefix_candidates`).  Ties are still scored, so the
    constant, the witness (least tied subset) and the mode are those of
    the unpruned search.
    """
    if space.n < 2:
        raise DegenerateSpace("doubling constant needs at least 2 points")
    if not beta > 0:
        raise ValueError("beta must be positive")
    m = space.matrix
    n = space.n

    if n <= EXHAUSTIVE_LIMIT:
        constant, witness = _exhaustive_doubling(m, beta)
        return DoublingReport(beta, constant, witness, "exhaustive")

    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    best = -np.inf
    witness: tuple[int, ...] = ()

    def consider(ratio: float, subset: tuple[int, ...]):
        nonlocal best, witness
        if ratio > best or (ratio == best and subset < witness):
            best = ratio
            witness = subset

    # Every pair has diam = sep, hence ratio exactly 2.
    consider(2.0, (0, 1))
    off = ~np.eye(n, dtype=bool)
    consider(_subset_ratio(beta, n, float(m.max()), float(m[off].min())), tuple(range(n)))
    for ratio, subset in _ball_prefix_candidates(m, beta, lambda: best):
        consider(ratio, subset)
    for _ in range(budget):
        k = int(generator.integers(2, n + 1))
        chosen = generator.choice(n, size=k, replace=False)
        arm = m[chosen[0], chosen[1:]]
        if _subset_ratio(beta, k, float(arm.max()), float(arm.min())) * _BOUND_MARGIN < best:
            continue
        idx = np.sort(chosen)
        sub = m[idx][:, idx]
        diam = float(sub.max())
        np.fill_diagonal(sub, np.inf)
        ratio = _subset_ratio(beta, k, diam, float(sub.min()))
        if ratio >= best:  # consider() ignores anything smaller
            consider(ratio, tuple(idx.tolist()))

    return DoublingReport(beta, float(best), witness, "sampled")


def bottleneck_matrix(space: FiniteMetricSpace) -> np.ndarray:
    """All-pairs minimax chain cost.

    Entry (x, y) is the minimum over chains x = z_1, ..., z_N = y of the
    maximum step d(z_i, z_{i+1}): the subdominant ultrametric, computed
    exactly as the single-linkage cophenetic matrix (the minimax-path
    property of minimum spanning trees); the values are original matrix
    entries, no arithmetic is performed on them.
    """
    return _subdominant_ultrametric(space.matrix)


def ud_modulus(space: FiniteMetricSpace) -> UDReport:
    """delta* = min over pairs of bottleneck(x, y) / d(x, y)."""
    if space.n < 2:
        raise DegenerateSpace("the disconnectedness modulus needs >= 2 points")
    bottleneck = bottleneck_matrix(space)
    iu = np.triu_indices(space.n, k=1)
    ratios = bottleneck[iu] / space.matrix[iu]
    # triu_indices lists pairs in lexicographic order, so the first
    # minimum is the least tied pair.
    t = int(np.argmin(ratios))
    return UDReport(float(ratios[t]), (int(iu[0][t]), int(iu[1][t])), bottleneck)


def up_constant(space: FiniteMetricSpace, r_min: float) -> UPReport:
    """Largest c such that every annulus [c*r, r] is inhabited.

    For every point x and every radius r in [r_min, diameter), some
    other point y must satisfy c*r <= d(x, y) <= r.  Per point, the
    binding ratios are consecutive distinct distances a_k / a_{k+1}
    clipped to the radius window; a point whose nearest neighbor sits
    beyond r_min forces c* = 0.  The witness records the point and the
    radius at which the constraint binds (the right end of the binding
    interval; for c* = 0 the concrete failing radius r_min).
    """
    if space.n < 2:
        raise DegenerateSpace("the perfectness constant needs >= 2 points")
    diameter = space.diameter
    if not 0 < r_min < diameter:
        raise BadScaleCutoff(
            f"r_min = {r_min!r} must lie in (0, diameter = {diameter!r})"
        )
    best = np.inf
    witness = (0, r_min)
    for x in range(space.n):
        row = space.matrix[x]
        dists = np.unique(row[row > 0])
        if dists[0] > r_min:
            # No distance at all in [r_min, dists[0]): annuli there are empty.
            return UPReport(0.0, r_min, (x, r_min))
        upper = np.append(dists[1:], np.inf)
        lo = np.maximum(dists, r_min)
        hi = np.minimum(upper, diameter)
        live = lo < hi
        if not live.any():
            continue
        bounds = dists[live] / hi[live]
        k = int(np.argmin(bounds))
        if bounds[k] < best:
            best = float(bounds[k])
            witness = (x, float(hi[live][k]))
    return UPReport(best, r_min, witness)


def classify(
    space: FiniteMetricSpace,
    thresholds: Thresholds | None = None,
    r_min: float | None = None,
    budget: int = 2000,
    rng=0,
) -> TypeVector:
    """Measure all three moduli and compare against thresholds.

    r_min defaults to the smallest positive distance.  When the scale
    window [r_min, diameter) is empty (two-point and uniform spaces),
    the perfectness constant is reported as 0 with degenerate=True
    rather than raising, so such spaces classify with u3 = 0.
    """
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS
    doubling = doubling_constant(space, thresholds.beta0, budget=budget, rng=rng)
    ud = ud_modulus(space)
    cutoff = space.separation if r_min is None else float(r_min)
    if cutoff >= space.diameter:
        up = UPReport(0.0, cutoff, (0, cutoff), degenerate=True)
    else:
        up = up_constant(space, cutoff)
    return TypeVector(
        u1=int(doubling.constant <= thresholds.c_max),
        u2=int(ud.delta_star >= thresholds.delta_min),
        u3=int(up.c_star >= thresholds.c_min),
        thresholds=thresholds,
        reports={"doubling": doubling, "ud": ud, "up": up},
    )


def doubling_report_to_json(report: DoublingReport) -> dict:
    return {
        "beta": report.beta,
        "constant": report.constant,
        "witness": list(report.witness),
        "mode": report.mode,
    }


def ud_report_to_json(report: UDReport, include_matrix: bool = True) -> dict:
    obj = {
        "delta_star": report.delta_star,
        "witness_pair": list(report.witness_pair),
    }
    if include_matrix:
        obj["bottleneck_matrix"] = report.bottleneck.tolist()
    return obj


def up_report_to_json(report: UPReport) -> dict:
    return {
        "c_star": report.c_star,
        "r_min": report.r_min,
        "witness": {"point": report.witness[0], "radius": report.witness[1]},
        "degenerate": report.degenerate,
    }


def type_vector_to_json(tv: TypeVector, include_matrix: bool = False) -> dict:
    obj = {
        "u1": tv.u1,
        "u2": tv.u2,
        "u3": tv.u3,
        "thresholds": tv.thresholds.to_json(),
    }
    if tv.reports:
        obj["reports"] = {
            "doubling": doubling_report_to_json(tv.reports["doubling"]),
            "ud": ud_report_to_json(tv.reports["ud"], include_matrix=include_matrix),
            "up": up_report_to_json(tv.reports["up"]),
        }
    return obj
