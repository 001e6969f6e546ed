"""Constructions: amalgamation over a partition, max-norm embeddings,
and the three approximation pipelines.

The central device is amalgamation: given a host metric d, a partition
into pieces with basepoints, and a replacement metric on each piece,
glue the replacements with the host bridging distinct pieces,

* sum form      D(x, y) = e_i(x, p_i) + d(p_i, p_j) + e_j(p_j, y),
* max form      D(x, y) = e_i(x, p_i) v d(p_i, p_j) v e_j(p_j, y),

keeping intra-piece blocks bit-exact.  When host pieces and
replacements all have diameter <= eps, the sum form moves the metric by
at most 4 * eps in the sup distance and the max form by at most eps in
the range-set-valued ultrametric distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .cantor import _s_ladder_space, _string_depth, cantor_prefix_metric
from .errors import DegenerateSpace, PieceMismatch, TooFewPoints
from .moduli import UDReport, ud_modulus, up_report
from .rangesets import RangeSet, geometric_range_set
from .spaces import (
    ULTRAMETRIC,
    FiniteMetricSpace,
    _exact_ultrametric,
    _mark_exact,
    _require_s_valued,
    _triangle_holds,
    _validate_built,
    validate,
)


@dataclass(frozen=True)
class ClopenPartition:
    """Disjoint pieces covering all indices, with one basepoint per piece."""

    pieces: tuple[tuple[int, ...], ...]
    basepoints: tuple[int, ...]

    def __post_init__(self):
        pieces = tuple(tuple(sorted(int(i) for i in piece)) for piece in self.pieces)
        basepoints = tuple(int(b) for b in self.basepoints)
        if not pieces or any(not piece for piece in pieces):
            raise ValueError("pieces must be nonempty")
        if len(basepoints) != len(pieces):
            raise ValueError("one basepoint per piece required")
        seen: list[int] = []
        for piece in pieces:
            seen.extend(piece)
        if len(seen) != len(set(seen)):
            raise ValueError("pieces must be disjoint")
        if set(seen) != set(range(len(seen))):
            raise ValueError("pieces must cover indices 0..n-1 exactly")
        for piece, bp in zip(pieces, basepoints):
            if bp not in piece:
                raise ValueError(f"basepoint {bp} not in its piece {piece}")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "basepoints", basepoints)

    @property
    def n(self) -> int:
        return sum(len(piece) for piece in self.pieces)

    def piece_of(self) -> np.ndarray:
        """Index -> piece number, as an integer array."""
        owner = np.empty(self.n, dtype=np.int64)
        for k, piece in enumerate(self.pieces):
            owner[list(piece)] = k
        return owner

    @classmethod
    def from_json(cls, obj: dict) -> "ClopenPartition":
        try:
            return cls(
                tuple(tuple(int(i) for i in piece) for piece in obj["pieces"]),
                tuple(int(b) for b in obj["basepoints"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed partition object: {exc}") from exc


@dataclass(frozen=True)
class Embedding:
    """Per-point coordinate vectors, compared under the max norm."""

    coordinates: np.ndarray = field(repr=False)

    def __post_init__(self):
        coords = np.array(self.coordinates, dtype=float, copy=True)
        if coords.ndim != 2:
            raise ValueError("coordinates must be a 2-D array (points x axes)")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        coords.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)

    @property
    def dimension(self) -> int:
        return self.coordinates.shape[1]

    def pairwise_linf(self) -> np.ndarray:
        return pairwise_linf(self.coordinates)

    def to_json(self) -> dict:
        """The coordinates stay the ndarray, which :func:`jsontext.dumps` writes."""
        return {"dimension": self.dimension, "coordinates": self.coordinates}


def pairwise_linf(coords: np.ndarray) -> np.ndarray:
    """Max-norm distance matrix of finite row vectors.

    scipy's Chebyshev kernel uses subtraction, fabs and max only, so
    every entry is the bit-exact max over axes of |x_a - y_a|.  The
    input is read C-ordered: the kernel runs about three times slower
    on a Fortran-ordered array, such as a column gather.
    """
    coords = np.ascontiguousarray(coords, dtype=float)
    if coords.shape[0] < 2:
        return np.zeros((coords.shape[0], coords.shape[0]))
    return squareform(pdist(coords, "chebyshev"))


def _max_norm_space(labels, coords) -> FiniteMetricSpace:
    """The validated space of the max-norm distances of finite row
    vectors, certified by construction: only the O(n^2) entry checks run.

    Proof (see :func:`metriclab.spaces._validate_built` for the guard
    s >= 64uM, u = 2**-53, M the max entry, s the slack).  For finite
    x, z, fl(x - z) = (x - z)(1 + delta) with |delta| <= u (exact when
    subnormal; an overflow is an inf entry, which the entry checks send
    to :func:`validate`), and fabs and max are exact.  Per axis,
    |x_a - z_a| <= |x_a - y_a| + |y_a - z_a| <= T / (1 - u) with
    T = D(x, y) + D(y, z), so D(x, z) <= T (1 + u) / (1 - u).  The scan
    flags (x, z, y) only when D(x, z) > R = fl(fl(T) + s), which is inf
    (nothing flagged) or >= T (1 - u)**2 + s (1 - u).  Flagging would
    need T ((1 + u) / (1 - u) - (1 - u)**2) <= 4.01uT <= 8.02uM to
    exceed s (1 - u): impossible once s >= 8.1uM.
    """
    return _validate_built(labels, pairwise_linf(coords))


def _check_pieces(
    d: FiniteMetricSpace,
    partition: ClopenPartition,
    pieces_metrics,
) -> None:
    if partition.n != d.n:
        raise PieceMismatch(
            f"partition covers {partition.n} indices, space has {d.n} points"
        )
    if len(pieces_metrics) != len(partition.pieces):
        raise PieceMismatch(
            f"{len(partition.pieces)} pieces but {len(pieces_metrics)} piece metrics"
        )
    for k, (piece, metric) in enumerate(zip(partition.pieces, pieces_metrics)):
        expected = tuple(d.labels[i] for i in piece)
        if metric.labels != expected:
            raise PieceMismatch(
                f"piece {k} metric is on {metric.labels!r}, expected {expected!r}"
            )


def _assemble(
    d: FiniteMetricSpace,
    partition: ClopenPartition,
    pieces_metrics,
    combine,
) -> np.ndarray:
    owner = partition.piece_of()
    arm = np.empty(d.n)
    for piece, bp, metric in zip(partition.pieces, partition.basepoints, pieces_metrics):
        local_bp = piece.index(bp)
        arm[list(piece)] = metric.matrix[:, local_bp]
    bp_of = np.asarray(partition.basepoints, dtype=np.int64)[owner]
    bridge = d.matrix[np.ix_(bp_of, bp_of)]
    # an inf sum is kept: intra-piece ones are overwritten below, and a
    # cross-piece one fails the entry checks
    with np.errstate(over="ignore"):
        out = combine(arm[:, None], bridge, arm[None, :])
    for piece, metric in zip(partition.pieces, pieces_metrics):
        index = np.array(piece)
        out[index[:, None], index] = metric.matrix
    return out


def amalgamate_metric(
    d: FiniteMetricSpace,
    partition: ClopenPartition,
    pieces_metrics,
) -> FiniteMetricSpace:
    """Sum-form amalgam: intra-piece by the piece metric, across pieces
    e_i(x, p_i) + d(p_i, p_j) + e_j(p_j, y).  Intra-piece blocks are
    copied bit-exactly."""
    _check_pieces(d, partition, pieces_metrics)
    # (a + b) + m rather than a + m + b: float addition commutes, so this
    # grouping (with the exactly-symmetric bridge m) keeps the output
    # exactly symmetric.
    matrix = _assemble(d, partition, pieces_metrics, lambda a, m, b: (a + b) + m)
    return _validate_built(
        d.labels,
        matrix,
        lambda slack: _sum_form_certified(matrix, partition, pieces_metrics, slack),
    )


def _sum_form_certified(D: np.ndarray, partition, pieces_metrics, slack: float) -> bool:
    """True when the pieces and the basepoint block prove that the
    triangle scan of the sum-form amalgam D at `slack` flags no triple.

    Checks, at h = slack / 2: each distinct piece matrix (deduplicated
    by shape and bytes) but those with the exactness mark, and the k x k
    block of D on the basepoints, by
    :func:`metriclab.spaces._triangle_holds`.  A marked piece passes its
    check at every h >= 0 (d <= max(a, b) <= fl(a + b) for a, b >= 0), so
    it is skipped.  D's entry checks have
    passed, and they cover both, since piece blocks are copied into D
    bit-exactly and D(p, q) = fl(fl(0 + 0) + d(p, q)) = d(p, q) for
    basepoints p != q.  Cost O(k^3 + sum of distinct |P|^3), against
    O(n^3) for the scan.

    Proof.  Write s = slack, M = max D, u = 2**-53, and for x in the
    piece with basepoint p, a_x = D(x, p) (its arm).  Across pieces
    D(x, y) = fl(fl(a_x + a_y) + D(p, q)).  A sum of finite nonnegative
    floats is (x + y)(1 + delta), |delta| <= u, or overflows to inf.
    The scan flags (x, y, z) when D(x, y) > R = fl(fl(D(x, z) + D(z, y)) + s).
    Every sum below is monotone in its terms, so when a bound used
    overflows, R does too and nothing is flagged.

    * x, y, z in one piece: its check at h <= s.
    * x, y in piece P, z not: D(x, z) >= a_x and D(z, y) >= a_y, so
      R >= fl(fl(a_x + a_y) + h) >= D(x, y) by P's check on (x, y, p).
      No rounding margin is needed.
    * x, z in P, y in Q (or y, z in P: D and every sum are symmetric).
      Let T = D(x, z) + a_z + a_y + D(p, q).  P's check on (x, p, z)
      gives a_x <= fl(fl(D(x, z) + a_z) + h), so
      D(x, y) <= T (1 + u)**4 + h (1 + u)**3, while
      D(z, y) >= (a_z + a_y + D(p, q))(1 - u)**2 gives
      R >= T (1 - u)**4 + s (1 - u).
    * x, y, z in three pieces with basepoints p, q, r.  Let
      T = a_x + a_y + D(p, r) + D(r, q).  The block's check gives
      D(p, q) <= fl(fl(D(p, r) + D(r, q)) + h), so again
      D(x, y) <= T (1 + u)**4 + h (1 + u)**3; dropping 2 a_z >= 0 gives
      R >= T (1 - u)**4 + s (1 - u).

    In the last two cases T <= (D(x, z) + D(z, y)) / (1 - u)**2, which is
    at most 2.0001M, and flagging needs 8.01uT > s (1 - u) - h (1 + u)**3
    >= 0.4999s: impossible once s >= 32.1uM.  The guard of
    :func:`metriclab.spaces._validate_built` asks 64uM.  Checking the
    pieces at s instead of h leaves no room for the rounding of the
    cross-piece sums.
    """
    half = slack / 2
    basepoints = np.array(partition.basepoints)
    if not _triangle_holds(D[basepoints[:, None], basepoints], half):
        return False
    distinct = {
        (p.matrix.shape, p.matrix.tobytes()): p.matrix for p in pieces_metrics if not p._exact
    }
    return all(_triangle_holds(matrix, half) for matrix in distinct.values())


def amalgamate_ultrametric(
    d: FiniteMetricSpace,
    partition: ClopenPartition,
    pieces_metrics,
    S: RangeSet,
) -> FiniteMetricSpace:
    """Max-form amalgam over a range set S.

    The host and every piece must be S-valued ultrametrics by
    :func:`metriclab.spaces._require_s_valued`; the output takes maxima
    of existing values only, so it stays S-valued.

    When the host and every piece carry the exactness mark, the output is
    an exact ultrametric, built by :func:`metriclab.spaces._exact_ultrametric`
    (entry checks only); otherwise :func:`metriclab.spaces.validate`
    decides.  Proof, for x, y, z with arms a_x = D(x, p) to the basepoint
    p of x's piece; across pieces D(x, y) = max(a_x, d(p, q), a_y), and
    max is exact.
    * x, y in piece P, z not: D(x, y) <= max(a_x, a_y) by P through p,
      and D(x, z) >= a_x, D(z, y) >= a_y.
    * x, z in P, y in Q (y, z in Q is the mirror case): a_x <=
      max(D(x, z), a_z) by P, while D(z, y) = max(a_z, d(p, q), a_y)
      bounds a_z, d(p, q) and a_y.
    * x, y, z in pieces P, Q, R with basepoints p, q, r: d(p, q) <=
      max(d(p, r), d(r, q)) by the host, and D(x, z) bounds a_x and
      d(p, r), D(z, y) bounds a_y and d(r, q).
    Three points of one piece are that piece's case.
    """
    _check_pieces(d, partition, pieces_metrics)
    named = [("the host", d)] + [(f"piece {k}", m) for k, m in enumerate(pieces_metrics)]
    _require_s_valued(named, S)
    matrix = _assemble(
        d, partition, pieces_metrics, lambda a, m, b: np.maximum(np.maximum(a, m), b)
    )
    if d._exact and all(piece._exact for piece in pieces_metrics):
        return _exact_ultrametric(d.labels, matrix)
    return validate(d.labels, matrix, flavor=ULTRAMETRIC)


def greedy_net(space: FiniteMetricSpace, eps: float) -> list[int]:
    """Farthest-point net: eps-separated and an eps-cover.

    Starts at index 0 and keeps adding the point farthest from the net
    until everything lies strictly within eps of it; ties go to the
    lowest index.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    net = [0]
    dist = space.matrix[0].copy()
    while True:
        far = int(np.argmax(dist))
        if dist[far] < eps:
            return net
        net.append(far)
        np.minimum(dist, space.matrix[far], out=dist)


def carve_pieces(space: FiniteMetricSpace, eps: float) -> ClopenPartition:
    """Greedy ball carving: repeatedly take the lowest-index remaining
    point and its closed eps/2-ball among remaining points as a piece
    (so every piece has diameter <= eps), with the center as basepoint."""
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    remaining = np.ones(space.n, dtype=bool)
    pieces = []
    basepoints = []
    while remaining.any():
        center = int(np.argmax(remaining))
        ball = remaining & (space.matrix[center] <= eps / 2)
        pieces.append(tuple(np.nonzero(ball)[0].tolist()))
        basepoints.append(center)
        remaining &= ~ball
    return ClopenPartition(tuple(pieces), tuple(basepoints))


def merge_singletons(
    space: FiniteMetricSpace, partition: ClopenPartition
) -> ClopenPartition:
    """Fold each singleton piece into the piece of its nearest other
    point (lowest index on ties), until every piece has >= 2 points.

    Singletons fold in index order.  A fold only grows a piece, so the
    lowest singleton left is always the next original singleton that no
    earlier one chose as its home: one pass over them suffices.
    """
    if space.n < 2:
        raise TooFewPoints("cannot merge singletons with fewer than 2 points")
    owner = partition.piece_of()
    sizes = np.bincount(owner)
    for x in np.flatnonzero(sizes[owner] == 1).tolist():
        if sizes[owner[x]] == 1:
            row = space.matrix[x].copy()
            row[x] = np.inf
            home = owner[int(np.argmin(row))]
            sizes[owner[x]] -= 1
            sizes[home] += 1
            owner[x] = home
    kept = np.flatnonzero(sizes).tolist()
    pieces = tuple(tuple(np.flatnonzero(owner == k).tolist()) for k in kept)
    return ClopenPartition(pieces, tuple(partition.basepoints[k] for k in kept))


def _relabel(space: FiniteMetricSpace, labels) -> FiniteMetricSpace:
    """The same matrix under new labels, with the exactness mark kept."""
    out = FiniteMetricSpace(tuple(labels), space.matrix, flavor=space.flavor)
    return _mark_exact(out) if space._exact else out


def _replace_pieces(
    d: FiniteMetricSpace, partition: ClopenPartition, make, S: RangeSet | None = None
) -> tuple[FiniteMetricSpace, list[FiniteMetricSpace]]:
    """Replace each piece of d by make(labels) and glue the replacements:
    by the sum form, or by the max form over S when S is given.  Returns
    the amalgam and the distinct replacements.  make runs once per
    distinct piece size, on the first piece of that size, and its space
    is relabelled for every piece of that size."""
    built: dict[int, FiniteMetricSpace] = {}
    pieces = []
    for piece in partition.pieces:
        labels = [d.labels[i] for i in piece]
        if len(piece) not in built:
            built[len(piece)] = make(labels)
        pieces.append(_relabel(built[len(piece)], labels))
    if S is None:
        out = amalgamate_metric(d, partition, pieces)
    else:
        out = amalgamate_ultrametric(d, partition, pieces, S)
    return out, list(built.values())


def approximate_doubling(
    d: FiniteMetricSpace, eps: float
) -> tuple[FiniteMetricSpace, Embedding]:
    """Replace d by the max-norm metric of an explicit embedding, moving
    it by at most 4 * eps.

    The coordinates of x are its distances d(x, c) to the points c of a
    farthest-point net, in net order (the Frechet embedding of the net's
    distance columns), and one extra axis holding an injective map with
    image diameter < eps / 2.  The output metric IS the max-norm metric
    D of the returned coordinates, which certifies the doubling property
    analytically.

    Bound.  A validated d breaks the triangle inequality by at most its
    slack s (DEFAULT_TOL * diameter by default).  Upper side: each net
    axis is 1-Lipschitz, |d(x, c) - d(y, c)| <= d(x, y) + s, and aux
    differences are below eps / 2, so D(x, y) < d(x, y) + s + eps / 2.
    Lower side: take the net point c nearest to x; d(x, c) < eps since
    the net is an eps-cover, and |d(x, c) - d(y, c)| >= d(y, c) - d(x, c)
    >= d(x, y) - 2 * d(x, c) - s.  So |D - d| < 2 * eps + eps / 2 + s,
    up to one rounding (relative 2**-53) per coordinate difference,
    which is <= 4 * eps for every eps above about 1e-9 of the diameter.
    """
    net = greedy_net(d, eps)
    aux = np.arange(d.n, dtype=float) * (eps / (2 * d.n))
    embedding = Embedding(np.hstack([d.matrix[:, net], aux[:, None]]))
    return _max_norm_space(d.labels, embedding.coordinates), embedding


def approximate_ud(
    d: FiniteMetricSpace,
    eps: float,
    S: RangeSet | None = None,
) -> tuple[FiniteMetricSpace, UDReport]:
    """Replace d by a uniformly disconnected metric within 4 * eps.

    Pieces of diameter <= eps are carved greedily and replaced by
    sequential ultrametrics with rungs from a range set below eps
    (:func:`metriclab.cantor._s_ladder_space`): by default
    geometric_range_set(0.5, eps), glued by the sum form.  When a range
    set S is given the host must be an S-valued ultrametric; the pieces
    take their rungs from S and the max form is used instead, moving d
    by at most eps in the range-set ultrametric distance.  The measured
    disconnectedness modulus of the output ships with it.
    """
    if d.n < 2:
        raise DegenerateSpace("approximate_ud needs at least 2 points")
    partition = carve_pieces(d, eps)
    rungs_from = geometric_range_set(0.5, eps) if S is None else S
    out, _ = _replace_pieces(
        d, partition, lambda labels: _s_ladder_space(labels, eps, rungs_from), S
    )
    return out, ud_modulus(out)


@dataclass(frozen=True)
class UPApproximation:
    """Report for approximate_up: the measured perfectness constant of
    the output, the guaranteed floor, and the quantities feeding it."""

    c_star: float
    bound: float
    r_min: float
    eps: float
    eps_effective: float
    piece_c_min: float
    min_piece_diameter: float
    partition: ClopenPartition


def approximate_up(
    d: FiniteMetricSpace, eps: float
) -> tuple[FiniteMetricSpace, UPApproximation]:
    """Replace d by a uniformly perfect metric.

    Pieces are carved at diameter <= eps, singletons folded into their
    nearest piece (every piece must hold >= 2 points), and each piece
    replaced by an eps-scaled middle-third prefix metric at a common
    string depth, so all pieces share the same smallest positive
    distance r_min.  The sum-form amalgam then satisfies

        c_star(output) >= (1/2) * min(piece c_star floor, m / diameter)

    at r_min, where m is the smallest piece diameter; and it stays
    within 4 * eps_effective of d, where eps_effective = max(eps,
    largest piece diameter under d) accounts for merged pieces that
    outgrew eps.
    """
    if d.n < 2:
        raise TooFewPoints("approximate_up needs at least 2 points")
    partition = merge_singletons(d, carve_pieces(d, eps))
    depth = _string_depth(max(len(piece) for piece in partition.pieces))
    out, distinct = _replace_pieces(
        d, partition, lambda labels: cantor_prefix_metric(len(labels), scale=eps, depth=depth)
    )
    host_piece_diameter = max(
        float(d.matrix[index[:, None], index].max())
        for index in map(np.array, partition.pieces)
    )
    eps_effective = max(eps, host_piece_diameter)
    r_min = min(piece.separation for piece in distinct)
    piece_cs = [up_report(piece, r_min).c_star for piece in distinct]
    min_piece_diameter = min(piece.diameter for piece in distinct)
    c_star = up_report(out, r_min).c_star
    bound = 0.5 * min(min(piece_cs), min_piece_diameter / out.diameter)
    report = UPApproximation(
        c_star=c_star,
        bound=bound,
        r_min=r_min,
        eps=eps,
        eps_effective=eps_effective,
        piece_c_min=min(piece_cs),
        min_piece_diameter=min_piece_diameter,
        partition=partition,
    )
    return out, report
