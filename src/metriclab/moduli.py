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

import functools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.spatial.distance import squareform

from .errors import BadScaleCutoff, DegenerateSpace
from .rangesets import _is_integer, _is_number
from .spaces import FiniteMetricSpace, _subdominant_ultrametric

# Largest point count for which the doubling search enumerates all subsets.
EXHAUSTIVE_LIMIT = 15

# Relative margin by which an upper bound on a subset's ratio must fall
# short of the running best before the doubling search skips the subset:
# the bound and the ratio each carry a few ulps of ``**`` rounding error,
# far inside 1e-12, so nothing that could tie or beat the best is skipped.
_BOUND_MARGIN = 1 + 1e-12

# Block budget in matrix entries: the kernels take fixed blocks of
# _BLOCK_ENTRIES // width items (centers, random subsets or up_constant
# rows, each n wide; at least one), 128 KiB of floats per temporary, and
# gather heads of w points in chunks of max(w*w, _BLOCK_ENTRIES) entries.
_BLOCK_ENTRIES = 1 << 14

# Draw tables (see :func:`_draw_subsets`) kept per process.
_DRAW_CACHE_SIZE = 8


@dataclass(frozen=True)
class Thresholds:
    """Classification thresholds (defaults are pinned by the test suite):
    numbers (not bools), kept as floats, and finite but for beta0, whose
    range doubling_constant checks."""

    beta0: float = 2.0
    c_max: float = 32.0
    delta_min: float = 0.05
    c_min: float = 0.05

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if name != "beta0" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Thresholds":
        """Read the thresholds from `obj`; absent ones keep their defaults."""
        try:
            return cls(**{f.name: obj.get(f.name, f.default) for f in fields(cls)})
        except (AttributeError, ValueError) as exc:
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
    witness = min(tuple(i for i in range(n) if (int(mask) >> i) & 1) for mask in tie_masks)
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

    The values are read as the condensed upper triangle (row-major, the
    order of ``np.triu_indices``), and only the 2n kept positions are
    mapped back to (i, j) through the row starts, so no index array over
    all pairs is built.
    """
    n = matrix.shape[0]
    values = squareform(matrix, checks=False)
    count = min(n, values.size)
    small = np.argpartition(values, count - 1)[:count]
    small = small[np.argsort(values[small], kind="stable")]
    large = np.argpartition(values, values.size - count)[values.size - count :]
    large = large[np.argsort(values[large], kind="stable")[::-1]]
    i = np.arange(n)
    starts = i * (2 * n - i - 1) // 2  # condensed position of pair (i, i + 1)
    pairs = []
    for t in (small, large):
        a = np.searchsorted(starts, t, side="right") - 1
        pairs.append((a, t - starts[a] + a + 1, values[t]))
    return tuple(pairs)


def _first_held(pairs, inside: np.ndarray):
    """Per row of a (rows, n) membership block, the value of the first
    listed pair with both ends inside, or NaN for none."""
    a, b, values = pairs
    held = inside[:, a] & inside[:, b]
    return np.where(held.any(axis=1), values[np.argmax(held, axis=1)], np.nan)


def _blocks(count: int, width: int):
    """(start, stop) ranges covering range(count), max(1, _BLOCK_ENTRIES // width) at a time."""
    step = max(1, _BLOCK_ENTRIES // width)
    for start in range(0, count, step):
        yield start, min(start + step, count)


def _ball_prefix_candidates(matrix, entries, beta: float, floor, extremes):
    """Deterministic candidates: prefixes of every sorted distance row.

    For each center c, the points o_0, o_1, ... in stable distance order
    from c yield nested "balls" P_r = {o_0, ..., o_r}, scored from r = 2
    on: P_1 is a pair, and no pair is ever scored (see
    :func:`doubling_constant`).  Centers are scored in fixed blocks of
    _BLOCK_ENTRIES // n (:func:`_blocks`), `floor()` is read once per
    block, and each block yields one (ratio, witness tuple): the largest
    best prefix (the first argmax per center) of its centers, with the
    least tuple among the centers tied at it.  The caller keeps the
    largest ratio, then the least tuple, whatever the order of arrival,
    so that is all of the block it can keep.  P_r holds (o_1, o_0) and
    (o_r, o_0), so its ratio is at most bound_r = (r+1) * (d(o_1, o_0) /
    d(o_r, o_0))**beta; ``**`` is off by a few ulps, so a prefix is live
    only if bound_r * _BOUND_MARGIN reaches the floor, and a dead one
    scores below it.

    With rank(x) the position of x in the order, P_r holds the listed
    pair (a, b) of `extremes` (:func:`_extreme_pairs`) iff max(rank(a),
    rank(b)) <= r; the running minimum `enter` of that along a list is
    non-increasing, so P_r's first held pair is the t-th, t the count of
    `enter` above r.  That gives sep and diam exactly, with no gather,
    for r >= r0, the first prefix holding a pair of each list.  These
    ratios are achieved, so the floor is raised to their largest before
    the live prefixes below r0 are gathered from `entries`, the raveled
    matrix (:func:`_head_prefixes`); a padded one is the center's own,
    and from r0 on bit-equal to the list read.  Every floor is at most
    the final best: the search stays exact.
    """
    n = matrix.shape[0]
    cards = np.arange(3, n + 1, dtype=float)
    prefixes = np.arange(2, n)
    everything = tuple(range(n))
    for lo, hi in _blocks(n, n):
        order = np.argsort(matrix[lo:hi], axis=1, kind="stable")
        arm = matrix[order[:, 1:], order[:, :1]]
        bounds = cards * (arm[:, :1] / arm[:, 1:]) ** beta * _BOUND_MARGIN
        live = bounds >= floor()
        kept = live.any(axis=1)
        if not kept.any():
            continue
        order, bounds, live = order[kept], bounds[kept], live[kept]
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n), axis=1)
        enters = [np.maximum(rank[:, a], rank[:, b]) for a, b, _ in extremes]
        r0 = np.maximum(enters[0].min(axis=1), enters[1].min(axis=1))
        tail = live & (prefixes >= r0[:, None])
        ratios = np.full(live.shape, -np.inf)
        if tail.any():
            sep, diam = (_held_values(e, v, tail) for e, (_, _, v) in zip(enters, extremes))
            ratios[tail] = np.broadcast_to(cards, live.shape)[tail] * (sep / diam) ** beta
        raised = max(floor(), ratios.max())
        heads = (bounds >= raised) & (prefixes < r0[:, None])
        sizes = np.where(heads.any(axis=1), n - np.argmax(heads[:, ::-1], axis=1), 0)
        for group, head in _head_prefixes(entries, beta, cards, order, sizes):
            ratios[group, : head.shape[1]] = np.maximum(ratios[group, : head.shape[1]], head)
        best = ratios.max(axis=1)
        top = float(best.max())
        if top >= floor():
            where = ratios.argmax(axis=1) + 3
            tied = np.nonzero(best == top)[0].tolist()
            yield top, min(
                everything if where[i] == n else tuple(np.sort(order[i, : where[i]]).tolist())
                for i in tied
            )


def _held_values(enter, values, tail):
    """`values` of the first listed pair P_r holds, at each (center, r >= 2) in `tail`."""
    rows, n = tail.shape[0], tail.shape[1] + 2
    enter = np.minimum.accumulate(enter, axis=1)
    counts = np.bincount((enter + n * np.arange(rows)[:, None]).ravel(), minlength=rows * n)
    below = np.cumsum(counts.reshape(rows, n), axis=1)[:, 2:]
    return values[values.size - below[tail]]


def _head_prefixes(entries, beta, cards, order, sizes):
    """Yields (centers, ratios of P_2 .. P_{w-1}) for heads of h >= 3 points, by
    chunks: the largest head left, of w points, and the next by size while
    h > w/2 and the cube stays within max(w*w, _BLOCK_ENTRIES) entries.
    A chunk's cube is gathered from `entries`, the raveled matrix, at the
    flat positions o_a * n + o_b: one ``take`` per slab of rows a, each
    index within max(g*w, _BLOCK_ENTRIES) entries for g centers, so the
    index never doubles a wide cube."""
    n = order.shape[1]
    members = np.argsort(-sizes, kind="stable")[: np.count_nonzero(sizes)]
    lo = 0
    while lo < members.size:
        width = int(sizes[members[lo]])
        group = members[lo : lo + max(1, _BLOCK_ENTRIES // (width * width))]
        group = group[2 * sizes[group] > width]
        lo += group.size
        rows = order[group, :width]
        cube = np.empty((group.size, width, width))
        for a, b in _blocks(width, rows.size):  # the index is intp: build it by slabs
            cube[:, a:b] = entries.take(rows[:, a:b, None] * n + rows[:, None, :])
        tri = np.tri(width, k=-1, dtype=bool)
        diam = np.maximum.accumulate(cube.max(axis=2, where=tri, initial=-np.inf), axis=1)
        sep = np.minimum.accumulate(cube.min(axis=2, where=tri, initial=np.inf), axis=1)
        del cube  # before the next chunk's cube is gathered
        yield group, cards[: width - 2] * (sep[:, 2:] / diam[:, 2:]) ** beta


@functools.lru_cache(maxsize=_DRAW_CACHE_SIZE)
def _draw_subsets(seed: int, n: int, budget: int):
    """`budget` random subsets of range(n), drawn from default_rng(seed)
    as the doubling search draws them: integers(2, n + 1) for the size
    k, then choice(n, size=k, replace=False), one subset after the other.

    Returns read-only (sizes, positions): the sizes, and for every drawn
    point a of a subset (a_0, ..., a_{k-1}), in draw order, its arm
    position a_0 * n + a in the raveled matrix, in the smallest unsigned
    dtype that holds n * n - 1; the point itself is position % n.  Each
    draw is written straight into the table, sized for the expected
    budget * (n + 2) / 2 points, grown by an eighth when a draw
    overflows it and cut to the drawn count, and a_0 * n is then added
    in blocks (:func:`_blocks`), so the build holds no second copy.
    """
    generator = np.random.default_rng(seed)
    sizes = np.empty(budget, dtype=np.intp)
    positions = np.empty(budget * (n + 2) // 2, np.min_scalar_type(n * n - 1))
    end = 0
    for i in range(budget):
        k = int(generator.integers(2, n + 1))
        sizes[i] = k
        if end + k > positions.size:  # no view of the table exists yet
            positions.resize(end + k + positions.size // 8, refcheck=False)
        positions[end : end + k] = generator.choice(n, size=k, replace=False)
        end += k
    positions.resize(end, refcheck=False)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    for lo, hi in _blocks(budget, n):
        heads = positions[starts[lo:hi]] * n
        positions[starts[lo] : ends[hi - 1]] += np.repeat(heads, sizes[lo:hi])
    sizes.flags.writeable = positions.flags.writeable = False
    return sizes, positions


def _arm_bounds(entries, beta: float, sizes: np.ndarray, positions: np.ndarray):
    """Arm bound k * (min arm / max arm)**beta of every drawn subset.

    The arm of a subset A = (a_0, ..., a_{k-1}) is d(a_0, a) over its
    other points a, read from `entries`, the raveled matrix, at the
    cached arm positions (:func:`_draw_subsets`).  Subsets are taken in
    fixed blocks of _BLOCK_ENTRIES // n (:func:`_blocks`), so a block
    holds at most max(n, _BLOCK_ENTRIES) drawn points.  Each block is
    one ``take`` of its arms (a_0's own 0 included), then
    ``maximum.reduceat`` per subset and, with that 0 set to inf,
    ``minimum.reduceat``.  Returns the bounds and each subset's offset
    into `positions`.
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    bounds = np.empty(sizes.size)
    for lo, hi in _blocks(sizes.size, math.isqrt(entries.size)):
        arms = entries.take(positions[starts[lo] : ends[hi - 1]])
        heads = starts[lo:hi] - starts[lo]
        longest = np.maximum.reduceat(arms, heads)
        arms[heads] = np.inf
        shortest = np.minimum.reduceat(arms, heads)
        bounds[lo:hi] = sizes[lo:hi] * (shortest / longest) ** beta
    return bounds, starts


def doubling_constant(
    space: FiniteMetricSpace, beta: float, budget: int = 2000, rng: int = 0
) -> DoublingReport:
    """Largest card(A) / (diam(A)/sep(A))**beta over subsets A.

    Exhaustive over all subsets when the space has at most
    EXHAUSTIVE_LIMIT points.  Otherwise a deterministic-seeded search
    over `budget` random subsets, all pairs, the full set, and all
    sorted-row ball prefixes; the result is then a lower bound for the
    true constant and the report says so via mode="sampled".

    `rng` is an integer seed.  The random subsets depend on (rng, n,
    budget) only, never on the matrix, so they are drawn into one table
    (:func:`_draw_subsets`), cached per process under that key, at most
    _DRAW_CACHE_SIZE keys; its arrays are read-only since calls share
    them.  It holds each drawn point's arm position a_0 * n + a in the
    raveled matrix (a_0 its subset's first point; the point is the
    position % n): with the default budget, 7.8 MiB at n = 2048, 2.0 MiB
    at n = 512 and 0.25 MiB at n = 128.

    No pair is ever scored: a pair's ratio is 2 * 1.0**beta = 2.0
    exactly, and (0, 1), considered first, is the least pair.  So the
    ball prefixes start at three points and two-point samples are dropped.

    The search skips candidates that provably cannot reach the running
    best, without changing its result.  For a random subset A, one arm
    d(a_0, a) over its other points a is read: sep(A) <= min arm and
    diam(A) >= max arm, so card * (min arm / max arm)**beta bounds its
    ratio.  Every subset's bound is computed at once, one ``take`` of
    the cached arm positions per block (:func:`_arm_bounds`); the
    subsets of three or more points whose bound times _BOUND_MARGIN
    reaches the best are then scored in fixed blocks of _BLOCK_ENTRIES
    // n, as rows of a membership matrix (one ``argmax`` per row finds
    each list's first held pair), and only those whose numpy ratio
    times the margin still reaches the best get their exact ratio
    (:func:`_subset_ratio`) and witness.  The margin covers the few ulps
    of ``**`` error, so no filter drops a subset that could tie or beat
    the best; ball prefixes are pruned the same way, and each block of
    centers yields one candidate, its largest ratio with the least tied
    tuple (:func:`_ball_prefix_candidates`).  consider() keeps the
    largest ratio, then the least tuple, whatever the order of arrival,
    so the report is that of the unpruned search.

    Candidates are scored from the n smallest and n largest pairs,
    built once (:func:`_extreme_pairs`): the full set, every ball prefix
    from r0 on, and every random subset holding a pair of each list read
    their separation and diameter there, exactly, in O(n) per candidate.
    Only a random subset missing one list gathers its O(k^2) block.
    """
    if space.n < 2:
        raise DegenerateSpace("doubling constant needs at least 2 points")
    if not (_is_number(beta) and 0 < beta < np.inf):
        raise ValueError("beta must be positive and finite")
    if not _is_integer(budget) or budget < 0:
        raise ValueError("budget must be a nonnegative integer")
    if not _is_integer(rng):
        raise ValueError("rng must be an integer seed")
    m = space.matrix
    n = space.n

    if n <= EXHAUSTIVE_LIMIT:
        constant, witness = _exhaustive_doubling(m, beta)
        return DoublingReport(beta, constant, witness, "exhaustive")

    sizes, positions = _draw_subsets(int(rng), n, int(budget))
    entries = m.ravel()  # read by flat position: a view unless m is not C-ordered
    best = -np.inf
    witness: tuple[int, ...] = ()

    def consider(ratio: float, subset: tuple[int, ...]):
        nonlocal best, witness
        if ratio > best or (ratio == best and subset < witness):
            best = ratio
            witness = subset

    # Every pair has diam = sep, hence ratio exactly 2, and (0, 1) is the
    # least pair: no other pair is scored.
    consider(2.0, (0, 1))
    extremes = _extreme_pairs(m)
    (_, _, small), (_, _, large) = extremes
    consider(_subset_ratio(beta, n, float(large[0]), float(small[0])), tuple(range(n)))
    for ratio, subset in _ball_prefix_candidates(m, entries, beta, lambda: best, extremes):
        consider(ratio, subset)
    bounds, starts = _arm_bounds(entries, beta, sizes, positions)
    passed = np.nonzero((bounds * _BOUND_MARGIN >= best) & (sizes > 2))[0]
    for lo, hi in _blocks(passed.size, n):
        block = passed[lo:hi]
        k = sizes[block]
        ends = np.cumsum(k)
        points = positions[np.arange(ends[-1]) + np.repeat(starts[block] - (ends - k), k)] % n
        inside = np.zeros((block.size, n), dtype=bool)
        inside[np.repeat(np.arange(block.size), k), points] = True
        sep, diam = (_first_held(pairs, inside) for pairs in extremes)
        ratios = k * (sep / diam) ** beta  # NaN where a list is missed
        for i in np.nonzero(~(ratios * _BOUND_MARGIN < best))[0].tolist():  # NaN passes
            idx = np.sort(points[ends[i] - k[i] : ends[i]])
            if np.isnan(ratios[i]):
                sub = m[idx][:, idx]
                diam_i = float(sub.max())
                np.fill_diagonal(sub, np.inf)
                ratio = _subset_ratio(beta, int(k[i]), diam_i, float(sub.min()))
            else:
                ratio = _subset_ratio(beta, int(k[i]), float(diam[i]), float(sep[i]))
            if ratio >= best:  # consider() ignores anything smaller
                consider(ratio, tuple(idx.tolist()))

    return DoublingReport(beta, float(best), witness, "sampled")


def bottleneck_matrix(space: FiniteMetricSpace) -> np.ndarray:
    """All-pairs minimax chain cost.

    Entry (x, y) is the minimum over chains x = z_1, ..., z_N = y of the
    maximum step d(z_i, z_{i+1}): the subdominant ultrametric, computed
    exactly as the single-linkage cophenetic matrix (the minimax-path
    property of minimum spanning trees); the values are original matrix
    entries, no arithmetic is performed on them.  A space with the
    exactness mark (:func:`metriclab.spaces._exact_ultrametric`) is its
    own subdominant ultrametric, bit for bit, so its matrix is copied
    instead.  The result is a fresh writable array either way.
    """
    if space._exact:
        return space.matrix.copy()
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

    Rows are sorted in fixed blocks of _BLOCK_ENTRIES // n, diagonal 0
    dropped.  A repeated distance a_k = a_{k+1} has an empty interval
    [max(a_k, r_min), min(a_{k+1}, diameter)), so the live intervals are
    those of the distinct distances, in order: the first minimum per row
    and the first row reaching the least give the per-point loop's witness.
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
    for start, stop in _blocks(space.n, space.n):
        dists = np.sort(space.matrix[start:stop], axis=1)[:, 1:]
        isolated = dists[:, 0] > r_min
        if isolated.any():
            # No distance at all in [r_min, dists[0]): annuli there are empty.
            return UPReport(0.0, r_min, (start + int(np.argmax(isolated)), r_min))
        hi = np.full_like(dists, diameter)
        np.minimum(dists[:, 1:], diameter, out=hi[:, :-1])
        live = np.maximum(dists, r_min) < hi
        bounds = np.divide(dists, hi, out=np.full_like(dists, np.inf), where=live)
        row_best = bounds.min(axis=1)
        x = int(np.argmin(row_best))
        if row_best[x] < best:
            best = float(row_best[x])
            witness = (start + x, float(hi[x, np.argmin(bounds[x])]))
    return UPReport(best, r_min, witness)


def up_report(space: FiniteMetricSpace, r_min: float) -> UPReport:
    """:func:`up_constant`, except that an empty scale window
    [r_min, diameter) (two-point and uniform spaces) gives c* = 0 with
    degenerate=True instead of raising.  A non-finite r_min raises
    BadScaleCutoff rather than counting as an empty window."""
    if not math.isfinite(r_min):
        raise BadScaleCutoff(f"r_min = {r_min!r} must be finite")
    if r_min >= space.diameter:
        return UPReport(0.0, r_min, (0, r_min), degenerate=True)
    return up_constant(space, r_min)


def classify(
    space: FiniteMetricSpace,
    thresholds: Thresholds | None = None,
    r_min: float | None = None,
    rng: int = 0,
) -> TypeVector:
    """Measure all three moduli and compare against thresholds.

    `rng` is the integer seed of the doubling search.  r_min defaults to
    the smallest positive distance.  When the scale window [r_min,
    diameter) is empty (two-point and uniform spaces), the perfectness
    constant is reported as 0 with degenerate=True rather than raising,
    so such spaces classify with u3 = 0.
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
        obj["bottleneck_matrix"] = report.bottleneck
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
