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

from .errors import GenerationFailed, SequenceTooShort
from .moduli import Thresholds, classify
from .rangesets import ShrinkingSequence
from .spaces import METRIC, ULTRAMETRIC, FiniteMetricSpace, validate

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
    count = 1 << depth
    bit_length = np.zeros(count, dtype=np.int64)
    for k in range(1, count):
        bit_length[k] = bit_length[k >> 1] + 1
    ids = np.arange(count, dtype=np.int64)
    xor = ids[:, None] ^ ids[None, :]
    return depth - bit_length[xor]


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
    first len(labels) strings of depth len(rungs), named by `labels`."""
    if len(labels) == 1:  # nothing to check; validate's fixed cost would dominate
        return FiniteMetricSpace(labels, np.zeros((1, 1)), flavor=ULTRAMETRIC)
    return validate(labels, _rung_matrix(rungs, len(labels)), flavor=ULTRAMETRIC)


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
    return validate(labels, (scale / 3.0**depth) * gaps, flavor=METRIC)


def geometric_prefix_ultrametric(
    count: int, top: float, ratio: float = 0.5
) -> FiniteMetricSpace:
    """Sequential ultrametric of diameter `top` on the first `count` strings.

    Distances are top * ratio**v(x, y), so the output is an
    ultrametric whose values form a geometric ladder; used as the
    default replacement piece in the approximation pipelines.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not top > 0 or not 0 < ratio < 1:
        raise ValueError("need top > 0 and ratio in (0, 1)")
    depth = _string_depth(count)
    return _ladder_space(top * ratio ** np.arange(depth, dtype=float), _prefix_labels(count, depth))


def _point_labels(n: int) -> tuple[str, ...]:
    width = len(str(n - 1))
    return tuple(f"p{k:0{width}d}" for k in range(n))


def _two_cluster_matrix(n: int, inner: float) -> np.ndarray:
    """Two uniform clusters (sizes ~n/2 + 8 and the rest) at mutual distance 1."""
    big = min(n // 2 + 8, n - 2)
    matrix = np.full((n, n), 1.0)
    matrix[:big, :big] = inner
    matrix[big:, big:] = inner
    np.fill_diagonal(matrix, 0.0)
    return matrix


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
    ring = _ring_matrix(stations, h)  # station 0 is the block's anchor
    matrix = np.zeros((n, n))
    matrix[:block, :block] = block_gap_steps * h
    matrix[:block, block:] = ring[0, 1:][None, :]
    matrix[block:, :block] = ring[1:, 0][:, None]
    matrix[block:, block:] = ring[1:, 1:]
    np.fill_diagonal(matrix, 0.0)
    return matrix


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
