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

from dataclasses import asdict, dataclass, field, fields

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
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Thresholds":
        try:
            return cls(**{f.name: float(obj.get(f.name, f.default)) for f in fields(cls)})
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"malformed thresholds object: {exc}") from exc


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


def _extreme_pairs(matrix: np.ndarray):
    """The n smallest and the n largest pairs i < j of a metric matrix.

    Returns (small, large), each a triple (a, b, values) of arrays over
    min(n, n*(n-1)/2) pairs: small sorted by ascending distance, large by
    descending distance.  Every pair outside small is >= every value in
    it, and every pair outside large is <= every value in it.

    Hence, for a point set A holding at least one pair of small, sep(A)
    is the value of the first pair of small that A holds: A holds no
    earlier one, the later ones are no smaller, the pairs outside the
    list are no smaller either, and that pair is itself in A.  In the
    same way diam(A) is the value of the first pair of large that A
    holds.  These are matrix entries read as they are, so a ratio built
    from them is bit-identical to one built from an O(card(A)^2) gather.
    """
    n = matrix.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    values = matrix[rows, cols]
    count = min(n, values.size)
    small = np.argpartition(values, count - 1)[:count]
    small = small[np.argsort(values[small], kind="stable")]
    large = np.argpartition(values, values.size - count)[values.size - count :]
    large = large[np.argsort(values[large], kind="stable")[::-1]]
    return tuple((rows[t], cols[t], values[t]) for t in (small, large))


def _first_held(pairs, inside: np.ndarray) -> float | None:
    """Value of the first listed pair with both ends inside, or None."""
    a, b, values = pairs
    held = inside[a] & inside[b]
    t = int(np.argmax(held))
    return float(values[t]) if held[t] else None


def _ball_prefix_candidates(matrix: np.ndarray, beta: float, floor, extremes):
    """Deterministic candidates: prefixes of every sorted distance row.

    For each center c, the points o_0, o_1, ... in stable distance order
    from c yield nested "balls" P_r = {o_0, ..., o_r}.  Yields (ratio,
    witness tuple) of the best prefix (the first argmax) per center.

    `floor()` is read once per center, just before it is scored, and
    centers that cannot reach it are dropped.  P_r contains the pairs
    (o_1, o_0) and (o_r, o_0), so sep(P_r) <= d(o_1, o_0) and
    diam(P_r) >= d(o_r, o_0), which bounds its ratio by
    bound_r = (r+1) * (d(o_1, o_0) / d(o_r, o_0))**beta, one vector per
    center from a single column.  Division is correctly rounded and
    monotone and ``**`` is off by a few ulps, so a ratio never exceeds
    its bound by the _BOUND_MARGIN factor.  A center with no bound_r
    reaching the floor is skipped; otherwise only the prefixes up to
    the last live one are scored, which leaves the first argmax
    unchanged whenever it reaches the floor.  With any floor <= the
    caller's running best, everything dropped scores strictly below
    that best, so a search that ignores such candidates stays exact.

    Separation and diameter come from `extremes` (see
    :func:`_extreme_pairs`).  With rank(x) the position of x in the
    order, P_r holds the listed pair (a, b) iff max(rank(a), rank(b))
    <= r, so the running minimum `enter` of that position along a list
    is non-increasing and the first pair P_r holds is the first t with
    enter[t] <= r, found by ``searchsorted``.  This gives sep and
    diam exactly for every r >= r0, the first prefix holding a pair of
    each list.  Only the r0 points before it are gathered, and their
    prefixes are reduced as running max / min over the rows of the
    reordered block.
    """
    n = matrix.shape[0]
    tril = np.tril(np.ones((n, n), dtype=bool), k=-1)
    cards = np.arange(2, n + 1, dtype=float)
    positions = np.arange(n)
    rank = np.empty(n, dtype=np.intp)
    (_, _, small), (_, _, large) = extremes
    for center in range(n):
        order = np.argsort(matrix[center], kind="stable")
        arm = matrix[order[1:], order[0]]
        bounds = cards * (arm[0] / arm) ** beta
        live = np.nonzero(bounds * _BOUND_MARGIN >= floor())[0]
        if not live.size:
            continue
        size = int(live[-1]) + 2
        rank[order] = positions
        small_enter, large_enter = (
            np.minimum.accumulate(np.maximum(rank[a], rank[b])) for a, b, _ in extremes
        )
        r0 = max(int(small_enter[-1]), int(large_enter[-1]))
        head = order[: min(size, r0)]
        sub = matrix[np.ix_(head, head)]
        below = tril[: head.size, : head.size]
        rowmax = sub.max(axis=1, where=below, initial=-np.inf)
        rowmin = sub.min(axis=1, where=below, initial=np.inf)
        later = -np.arange(r0, size)
        sep = np.concatenate(
            [np.minimum.accumulate(rowmin)[1:], small[np.searchsorted(-small_enter, later)]]
        )
        diam = np.concatenate(
            [np.maximum.accumulate(rowmax)[1:], large[np.searchsorted(-large_enter, later)]]
        )
        ratios = cards[: size - 1] * (sep / diam) ** beta
        k = int(np.argmax(ratios))
        yield float(ratios[k]), tuple(np.sort(order[: k + 2]).tolist())


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
    card * (min arm / max arm)**beta bounds its ratio, and A is scored
    only when that bound, times _BOUND_MARGIN (which covers the rounding
    error of ``**``), reaches the best.  Ball prefixes are pruned the
    same way against the running best (see
    :func:`_ball_prefix_candidates`).  Ties are still scored, so the
    constant, the witness (least tied subset) and the mode are those of
    the unpruned search.

    Candidates are scored from the n smallest and n largest pairs,
    built once (:func:`_extreme_pairs`): the full set, every ball prefix
    from r0 on, and every random subset holding a pair of each list read
    their separation and diameter there, exactly, in O(n) per candidate.
    Only a random subset missing one list gathers its O(k^2) block.
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

    generator = np.random.default_rng(rng)
    best = -np.inf
    witness: tuple[int, ...] = ()

    def consider(ratio: float, subset: tuple[int, ...]):
        nonlocal best, witness
        if ratio > best or (ratio == best and subset < witness):
            best = ratio
            witness = subset

    # Every pair has diam = sep, hence ratio exactly 2.
    consider(2.0, (0, 1))
    extremes = _extreme_pairs(m)
    (_, _, small), (_, _, large) = extremes
    consider(_subset_ratio(beta, n, float(large[0]), float(small[0])), tuple(range(n)))
    for ratio, subset in _ball_prefix_candidates(m, beta, lambda: best, extremes):
        consider(ratio, subset)
    inside = np.zeros(n, dtype=bool)
    for _ in range(budget):
        k = int(generator.integers(2, n + 1))
        chosen = generator.choice(n, size=k, replace=False)
        arm = m[chosen[0], chosen[1:]]
        if _subset_ratio(beta, k, float(arm.max()), float(arm.min())) * _BOUND_MARGIN < best:
            continue
        inside[chosen] = True
        sep, diam = (_first_held(pairs, inside) for pairs in extremes)
        inside[chosen] = False
        idx = np.sort(chosen)
        if sep is None or diam is None:
            sub = m[idx][:, idx]
            diam = float(sub.max())
            np.fill_diagonal(sub, np.inf)
            sep = float(sub.min())
        ratio = _subset_ratio(beta, k, diam, sep)
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


def up_report(space: FiniteMetricSpace, r_min: float) -> UPReport:
    """:func:`up_constant`, except that an empty scale window
    [r_min, diameter) (two-point and uniform spaces) gives c* = 0 with
    degenerate=True instead of raising."""
    if r_min >= space.diameter:
        return UPReport(0.0, r_min, (0, r_min), degenerate=True)
    return up_constant(space, r_min)


def classify(
    space: FiniteMetricSpace,
    thresholds: Thresholds | None = None,
    r_min: float | None = None,
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
    doubling = doubling_constant(space, thresholds.beta0, rng=rng)
    ud = ud_modulus(space)
    cutoff = space.separation if r_min is None else float(r_min)
    up = up_report(space, cutoff)
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
