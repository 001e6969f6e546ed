"""Truncated binary-string (Cantor-style) spaces and type-targeted generators.

Points are the 2**depth binary strings of a fixed depth in numeric
order.  Two families of metrics live on them:

* sequential ultrametrics d(x, y) = s(v(x, y)), where v(x, y) is the
  index of the first differing character, driven by a strictly
  decreasing positive sequence s;
* the middle-third embedding metric d(x, y) = scale * |value(x) - value(y)|
  with value(x) = sum of 2*x(i)/3**(i+1).

``generate_type`` emits, for each bit vector (u1, u2, u3), a concrete
space whose measured moduli land on that type at the default
thresholds; every recipe is accepted only by re-measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailed, SequenceTooShort, ValueOutsideRangeSet
from .moduli import Thresholds, classify
from .rangesets import RangeSet, ShrinkingSequence, geometric_range_set, greatest_leq, ladder
from .spaces import (
    METRIC,
    ULTRAMETRIC,
    FiniteMetricSpace,
    _exact_ultrametric,
    _validate_built,
    validate,
)

# 2**depth points give a depth**2 * 4**depth footprint; 12 keeps the
# full distance matrix comfortably in memory.
MAX_DEPTH = 12


@dataclass(frozen=True)
class BinaryPointSet:
    """All binary strings of a fixed depth, in numeric order."""

    depth: int

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {self.depth}")

    @property
    def count(self) -> int:
        return 1 << self.depth

    def label(self, index: int) -> str:
        return format(index, f"0{self.depth}b")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.label(k) for k in range(self.count))

    def bits(self) -> np.ndarray:
        """(count, depth) 0/1 array; column i is character i of the string."""
        ids = np.arange(self.count, dtype=np.int64)
        shifts = np.arange(self.depth - 1, -1, -1, dtype=np.int64)
        return ((ids[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _valuation_matrix(depth: int) -> np.ndarray:
    """Pairwise v(x, y) over BinaryPointSet(depth), with depth on the diagonal.

    The value `depth` stands in for the infinite v(x, x) of equal
    strings so the matrix can index a length-(depth+1) lookup table.
    """
    ids = np.arange(1 << depth, dtype=np.int64)
    # frexp's exponent of k > 0 is its bit length (exact for k < 2**53); frexp(0) is (0, 0)
    return depth - np.frexp(ids[:, None] ^ ids[None, :])[1]


def _rung_matrix(rungs, count: int) -> np.ndarray:
    """d(x, y) = rungs[v(x, y)] over the first `count` strings of
    depth len(rungs), with 0 on the diagonal."""
    table = np.append(np.asarray(rungs, dtype=float), 0.0)
    return table[_valuation_matrix(len(rungs))[:count, :count]]


def _string_depth(count: int) -> int:
    """The fewest string levels, at least one, that hold `count` strings."""
    return max(1, math.ceil(math.log2(count)))


def _prefix_labels(count: int, depth: int) -> tuple[str, ...]:
    """The first `count` strings of `depth`, in numeric order."""
    return BinaryPointSet(depth).labels[:count]


def _ladder_space(rungs, labels) -> FiniteMetricSpace:
    """Validated ultrametric d(x, y) = rungs[v(x, y)] on the
    first len(labels) strings of depth len(rungs), named by `labels`:
    the space, or the error, of validate(..., flavor=ULTRAMETRIC).

    When the rungs are finite, > 0 and strictly decreasing (checked in
    O(depth)), the matrix is an exact ultrametric and
    :func:`metriclab.spaces._exact_ultrametric` builds and marks it after
    the entry checks: a common prefix of x, y and of y, z is one of x, z,
    so v(x, z) >= min(v(x, y), v(y, z)), hence d(x, z) <= max(d(x, y),
    d(y, z)), and every entry is a table lookup, so this holds bit for
    bit (v = depth, the 0 entry, on equal strings).  Other rungs go to
    :func:`metriclab.spaces.validate`.
    """
    table = np.asarray(rungs, dtype=float)
    matrix = _rung_matrix(table, len(labels))
    if np.isfinite(table).all() and (table > 0).all() and (table[:-1] > table[1:]).all():
        return _exact_ultrametric(labels, matrix)
    return validate(labels, matrix, flavor=ULTRAMETRIC)


def _s_ladder_space(labels, top: float, S: RangeSet) -> FiniteMetricSpace:
    """Sequential ultrametric on len(labels) strings whose rungs are
    consecutive elements of S (:func:`metriclab.rangesets.ladder`), the
    first being the greatest element of S <= top; a single point is
    the zero space.  Raises ValueOutsideRangeSet when S has no positive
    element <= top."""
    count = len(labels)
    if count == 1:
        return _exact_ultrametric(labels, np.zeros((1, 1)))
    first = greatest_leq(S, top)
    if first == 0.0:
        raise ValueOutsideRangeSet(f"no positive element of S lies below {top!r}")
    return _ladder_space(ladder(S, first, _string_depth(count)), tuple(labels))


def _gapped_rungs(depth: int, top: float = 1.0) -> list[float]:
    """Geometric rungs from `top` until the last level, which falls off a
    cliff: its ratio is 0.01, far below any annulus threshold."""
    return [top * 0.5 ** k for k in range(depth - 1)] + [0.01 * top * 0.5 ** max(0, depth - 2)]


def sequential_metric(s: ShrinkingSequence, depth: int) -> FiniteMetricSpace:
    """Ultrametric d(x, y) = s(v(x, y)) on all strings of `depth`."""
    points = BinaryPointSet(depth)
    if len(s) < depth:
        raise SequenceTooShort(
            f"need at least {depth} values, sequence has {len(s)}"
        )
    return _ladder_space(s.values[:depth], points.labels)


def cantor_numerators(depth: int) -> np.ndarray:
    """Integer numerators t(x) = sum of 2*x(i)*3**(depth-1-i), exact int64.

    value(x) = t(x)/3**depth, i.e. the base-3 number whose digits are the
    doubled bits of x.  Distances are assembled from differences of these
    integers so that equal gaps (such as every sibling pair's 2/3**depth)
    land on the identical float.
    """
    weights = np.array([2 * 3 ** (depth - 1 - i) for i in range(depth)], dtype=np.int64)
    return BinaryPointSet(depth).bits().astype(np.int64) @ weights


def cantor_prefix_metric(count: int, scale: float = 1.0, depth: int | None = None) -> FiniteMetricSpace:
    """First `count` strings of a common depth under the middle-third metric.

    The default depth is the smallest that holds `count` strings; a
    larger depth may be passed so that several prefixes share one scale
    ladder (their smallest positive distance is then the common
    2*scale/3**depth sibling gap, bit-identical across prefixes).

    Validated by construction (:func:`metriclab.spaces._validate_built`;
    only the O(n^2) entry checks run).  Proof, as for
    :func:`metriclab.build._max_norm_space`, with s the slack, M the max
    entry and u = 2**-53: the gaps g are exact integers below 3**12, so
    g(x, z) <= g(x, y) + g(y, z) exactly, and every entry is fl(c g) for
    the one rounded constant c = fl(scale / 3**depth).  With
    T = g(x, y) + g(y, z), D(x, z) <= c T (1 + u) while the scan's bound
    fl(fl(D(x, y) + D(y, z)) + s) is >= c T (1 - u)**3 + s (1 - u), and
    c T <= 2M / (1 - u); flagging needs 8.01uM > s (1 - u).  A product in
    the subnormal range is off by at most 2**-1075 <= us / 2 instead,
    which moves this by under 2us.  Both are impossible once s >= 8.1uM.
    An overflow or an underflow to 0 fails the entry checks, and
    :func:`metriclab.spaces.validate` raises their error.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not scale > 0:
        raise ValueError("scale must be positive")
    if depth is None:
        depth = _string_depth(count)
    if count > (1 << depth):
        raise ValueError(f"depth {depth} holds only {1 << depth} strings, need {count}")
    labels = _prefix_labels(count, depth)
    numerators = cantor_numerators(depth)[:count]
    gaps = np.abs(numerators[:, None] - numerators[None, :]).astype(float)
    return _validate_built(labels, (scale / 3.0**depth) * gaps)


def geometric_prefix_ultrametric(count: int, top: float) -> FiniteMetricSpace:
    """Sequential ultrametric of diameter `top` on the first `count` strings.

    Distances are top * 0.5**v(x, y): the S-valued ladder of
    S = geometric_range_set(0.5, top), the default replacement piece in
    the approximation pipelines.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not math.isfinite(top):
        raise ValueError("top must be positive and finite")
    if not top > 0:
        raise ValueError("top must be positive")
    labels = _prefix_labels(count, _string_depth(count))
    return _s_ladder_space(labels, top, geometric_range_set(0.5, top))


def _point_labels(n: int) -> tuple[str, ...]:
    width = len(str(n - 1))
    return tuple(f"p{k:0{width}d}" for k in range(n))


def _blow_up(base, sizes, gap: float) -> np.ndarray:
    """Point k of the base metric blown up into a block of sizes[k]
    points, pairwise `gap` apart and base[k, l] from each point of block
    l.  Every entry is a copy of a base entry, of `gap`, or 0."""
    matrix = np.repeat(np.repeat(base, sizes, axis=0), sizes, axis=1)
    bounds = np.cumsum([0, *sizes])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        matrix[lo:hi, lo:hi] = gap
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _two_cluster_matrix(n: int, inner: float) -> np.ndarray:
    """Two uniform clusters (sizes ~n/2 + 8 and the rest) at mutual distance 1."""
    big = min(n // 2 + 8, n - 2)
    return _blow_up(np.array([[0.0, 1.0], [1.0, 0.0]]), (big, n - big), inner)


def _ring_matrix(n: int, step: float) -> np.ndarray:
    """Cycle of n points, `step` apart: step * (hops the short way round)."""
    ids = np.arange(n)
    hops = np.abs(ids[:, None] - ids[None, :])
    return step * np.minimum(hops, n - hops)


def _budded_ring_matrix(n: int) -> np.ndarray:
    """A ring of n-1 points plus one bud hanging 0.01 steps off ring point 0."""
    h = 2.0 / (n - 1)
    ring = _ring_matrix(n - 1, h)
    matrix = np.zeros((n, n))
    matrix[: n - 1, : n - 1] = ring
    arm = ring[0] + 0.01 * h
    matrix[n - 1, : n - 1] = arm
    matrix[: n - 1, n - 1] = arm
    matrix[n - 1, n - 1] = 0.0
    return matrix


def _fat_ring_matrix(n: int, block_gap_steps: float) -> np.ndarray:
    """48 ring stations, station 0 replaced by a uniform block of n-47 points.

    Block points sit pairwise at block_gap_steps * h and at ring distance
    from every remaining station.  block_gap_steps = 1 keeps the block gap
    on the station spacing; 0.5 puts it strictly below (so stations see
    no point between h/2 and h).
    """
    stations = 48
    block = n - (stations - 1)
    if block < 34:
        raise GenerationFailed(
            f"fat-ring recipe needs >= {stations - 1 + 34} points, got {n}"
        )
    h = 2.0 / stations
    sizes = (block,) + (1,) * (stations - 1)
    return _blow_up(_ring_matrix(stations, h), sizes, block_gap_steps * h)


def _build_recipe(bits: tuple[int, int, int], depth: int):
    """Return (matrix, flavor, recipe name) for the target bits."""
    n = 1 << depth
    if bits == (1, 1, 1):
        return geometric_prefix_ultrametric(n, 1.0).matrix, ULTRAMETRIC, "geometric-ladder"
    if bits == (0, 1, 1):
        return _two_cluster_matrix(n, 0.125), ULTRAMETRIC, "two-cluster-wide"
    if bits == (1, 0, 1):
        return _ring_matrix(n, 2.0 / n), METRIC, "ring"
    if bits == (1, 1, 0):
        return _rung_matrix(_gapped_rungs(depth), n), ULTRAMETRIC, "gapped-ladder"
    if bits == (0, 1, 0):
        return _two_cluster_matrix(n, 0.005), ULTRAMETRIC, "two-cluster-tight"
    if bits == (1, 0, 0):
        return _budded_ring_matrix(n), METRIC, "budded-ring"
    if bits == (0, 0, 1):
        return _fat_ring_matrix(n, 1.0), METRIC, "fat-ring"
    if bits == (0, 0, 0):
        return _fat_ring_matrix(n, 0.5), METRIC, "fat-ring-offset"
    raise ValueError(f"not a type bit vector: {bits}")


def generate_type(
    target: tuple[int, int, int],
    depth: int,
    seed: int = 0,
    thresholds: Thresholds | None = None,
) -> tuple[FiniteMetricSpace, str]:
    """Emit a space that measures to the target type, with the name of
    its recipe, or fail honestly.

    The recipe output is shuffled by a seeded permutation (labels keep
    their canonical order, so the seed permutes structure only), then
    re-measured with ``classify``; a mismatch at this depth raises
    GenerationFailed rather than returning a mislabeled space.
    """
    bits = tuple(int(b) for b in target)
    if depth < 4:
        raise ValueError("generate_type needs depth >= 4")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth must be <= {MAX_DEPTH}")
    matrix, flavor, recipe = _build_recipe(bits, depth)
    n = matrix.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = matrix[np.ix_(perm, perm)]
    space = validate(_point_labels(n), shuffled, flavor=flavor)
    measured = classify(space, thresholds=thresholds)
    if measured.bits != bits:
        raise GenerationFailed(
            f"recipe {recipe} measured {measured.bits}, wanted {bits} at depth {depth}"
        )
    return space, recipe
