"""Constructions: amalgamation over a partition, Lipschitz extension,
max-norm embeddings, and the three approximation pipelines.

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

from .cantor import _ladder_space, _string_depth, cantor_prefix_metric, geometric_prefix_ultrametric
from .errors import (
    NotLipschitzOnSubset,
    NotUltrametric,
    PieceMismatch,
    TooFewPoints,
    ValueOutsideRangeSet,
)
from .moduli import UDReport, ud_modulus, up_report
from .rangesets import RangeSet, contains, greatest_leq, ladder
from .spaces import (
    DEFAULT_TOL,
    METRIC,
    ULTRAMETRIC,
    FiniteMetricSpace,
    _rows_per_block,
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

    def to_json(self) -> dict:
        return {
            "pieces": [list(piece) for piece in self.pieces],
            "basepoints": list(self.basepoints),
        }

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
    def count(self) -> int:
        return self.coordinates.shape[0]

    @property
    def dimension(self) -> int:
        return self.coordinates.shape[1]

    def pairwise_linf(self) -> np.ndarray:
        return pairwise_linf(self.coordinates)

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "coordinates": self.coordinates.tolist()}


# Elements (8 MiB of floats) in one row block's temporary in the
# row-blocked kernels below.
_BLOCK_ELEMENTS = 1 << 20


def pairwise_linf(coords: np.ndarray) -> np.ndarray:
    """Max-norm distance matrix of row vectors (row blocks keep memory flat)."""
    coords = np.asarray(coords, dtype=float)
    return _linf_block(coords, coords)


def _linf_block(rows: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Max-norm distances from each of `rows` to each of `coords`."""
    out = np.empty((rows.shape[0], coords.shape[0]))
    step = _rows_per_block(coords.size, _BLOCK_ELEMENTS)
    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        diff = rows[block, None, :] - coords[None, :, :]
        out[block] = np.abs(diff, out=diff).max(axis=2)
    return out


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
    out = combine(arm[:, None], bridge, arm[None, :])
    for piece, metric in zip(partition.pieces, pieces_metrics):
        out[np.ix_(piece, piece)] = metric.matrix
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
    return validate(d.labels, matrix, flavor=METRIC)


def amalgamate_ultrametric(
    d: FiniteMetricSpace,
    partition: ClopenPartition,
    pieces_metrics,
    S: RangeSet,
) -> FiniteMetricSpace:
    """Max-form amalgam over a range set S.

    The host and every piece must be ultrametric with values in S; the
    output takes maxima of existing values only, so it stays S-valued.
    """
    if d.flavor != ULTRAMETRIC:
        raise NotUltrametric("the host of a max-form amalgam must be ultrametric")
    for k, metric in enumerate(pieces_metrics):
        if metric.flavor != ULTRAMETRIC:
            raise NotUltrametric(f"piece {k} is not ultrametric-flavored")
    _check_pieces(d, partition, pieces_metrics)
    slack = DEFAULT_TOL * max(1.0, float(d.matrix.max()))
    for matrix in [d.matrix] + [m.matrix for m in pieces_metrics]:
        for v in np.unique(matrix):
            if v > 0 and not contains(S, float(v), tol=slack):
                raise ValueOutsideRangeSet(f"value {v!r} is not in the range set")
    matrix = _assemble(
        d, partition, pieces_metrics, lambda a, m, b: np.maximum(np.maximum(a, m), b)
    )
    return validate(d.labels, matrix, flavor=ULTRAMETRIC)


def mcshane_extend(
    space: FiniteMetricSpace,
    subset,
    values,
    lip: float,
):
    """Extend an l-Lipschitz map on a subset to the whole space.

    `values` is a (k, components) array whose row a is the value at
    subset[a].  F(x) = min over a in subset of (values[a] + lip * d(x, a)),
    per component, at every x outside the subset; on the subset F is the
    input, bit-exactly.  The Lipschitz hypothesis is verified on the
    subset first (max norm over components).  Both steps run in row
    blocks, so beyond the (k, k) and (n, components) arrays memory holds
    one block.

    Returns the (n, components) extension, the sorted subset and the
    (k, k) max-norm matrix of its values (the Lipschitz check's left
    side), so a caller can reuse that block.
    """
    subset = [int(i) for i in subset]
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    f = np.array(values, dtype=float)
    if f.ndim != 2 or f.shape[0] != len(subset):
        raise ValueError(f"values must be a ({len(subset)}, components) array, got shape {f.shape}")
    # values stay paired with their subset indices under the sort
    order = np.argsort(np.asarray(subset, dtype=np.int64), kind="stable")
    subset = [subset[k] for k in order]
    f = f[order]
    if not lip >= 0:
        raise ValueError("the Lipschitz constant must be nonnegative")

    sub_d = space.matrix[np.ix_(subset, subset)]
    spread = pairwise_linf(f)
    slack = DEFAULT_TOL * max(1.0, float(np.abs(f).max()), lip * float(sub_d.max()))
    bad = spread > lip * sub_d + slack
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NotLipschitzOnSubset(
            f"|f({subset[i]}) - f({subset[j]})| = {float(spread[i, j])!r} exceeds "
            f"lip * d = {float(lip * sub_d[i, j])!r}"
        )

    extended = np.empty((space.n, f.shape[1]))
    extended[subset] = f
    rest = np.setdiff1d(np.arange(space.n), subset)
    step = _rows_per_block(f.size, _BLOCK_ELEMENTS)
    for start in range(0, rest.size, step):
        rows = rest[start : start + step]
        steps = lip * space.matrix[rows][:, subset]
        extended[rows] = (f[None, :, :] + steps[:, :, None]).min(axis=1)
    return extended, subset, spread


def greedy_net(space: FiniteMetricSpace, eps: float) -> list[int]:
    """Farthest-point net: eps-separated and an eps-cover.

    Starts at index 0 and keeps adding the point farthest from the net
    until everything lies strictly within eps of it; ties go to the
    lowest index.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
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
    if not eps > 0:
        raise ValueError("eps must be positive")
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
    return FiniteMetricSpace(tuple(labels), space.matrix, flavor=space.flavor)


def approximate_doubling(
    d: FiniteMetricSpace, eps: float
) -> tuple[FiniteMetricSpace, Embedding]:
    """Replace d by the max-norm metric of an explicit embedding, moving
    it by at most 4 * eps.

    A farthest-point net is embedded by its own distance rows
    (isometrically, into the max norm); each coordinate is extended
    1-Lipschitz to all points; one extra axis holds an injective map
    with image diameter < eps.  The output metric IS the max-norm
    metric of the returned coordinates, which certifies the doubling
    property analytically.
    """
    net = greedy_net(d, eps)
    lipschitz, net, spread = mcshane_extend(d, net, d.matrix[np.ix_(net, net)], 1.0)
    aux = np.arange(d.n, dtype=float) * (eps / (2 * d.n))
    embedding = Embedding(np.hstack([lipschitz, aux[:, None]]))
    # The max-norm matrix of the coordinates, with its net x net block
    # taken from the Lipschitz check: there the extended coordinates are
    # the net rows themselves, so that block is spread v |aux difference|.
    rest = np.setdiff1d(np.arange(d.n), net)
    matrix = np.empty((d.n, d.n))
    matrix[rest] = _linf_block(embedding.coordinates[rest], embedding.coordinates)
    matrix[np.ix_(net, rest)] = matrix[np.ix_(rest, net)].T
    matrix[np.ix_(net, net)] = np.maximum(spread, np.abs(aux[net, None] - aux[None, net]))
    return validate(d.labels, matrix, flavor=METRIC), embedding


def default_metric_piece(labels, target_diameter: float) -> FiniteMetricSpace:
    """Default replacement piece: geometric sequential ultrametric of
    diameter exactly `target_diameter` (or a single point)."""
    piece = geometric_prefix_ultrametric(len(labels), top=target_diameter)
    return _relabel(piece, labels)


def approximate_ud(
    d: FiniteMetricSpace,
    eps: float,
    S: RangeSet | None = None,
) -> tuple[FiniteMetricSpace, UDReport]:
    """Replace d by a uniformly disconnected metric within 4 * eps.

    Pieces of diameter <= eps are carved greedily and replaced by
    geometric sequential ultrametrics of diameter <= eps
    (:func:`default_metric_piece`), then glued by the sum form.  When a
    range set S is given the host must be an S-valued ultrametric; the
    pieces take their rungs from S and the max form is used instead,
    moving d by at most eps in the range-set ultrametric distance.  The
    measured disconnectedness modulus of the output ships with it.
    """
    partition = carve_pieces(d, eps)
    piece_labels = [tuple(d.labels[i] for i in piece) for piece in partition.pieces]
    if S is None:
        piece_spaces = [default_metric_piece(labels, eps) for labels in piece_labels]
        out = amalgamate_metric(d, partition, piece_spaces)
    else:
        piece_spaces = [_s_valued_piece(labels, eps, S) for labels in piece_labels]
        out = amalgamate_ultrametric(d, partition, piece_spaces, S)
    return out, ud_modulus(out)


def _s_valued_piece(labels, eps: float, S: RangeSet) -> FiniteMetricSpace:
    """Sequential ultrametric on len(labels) points with rungs from S,
    diameter = greatest element of S below eps."""
    count = len(labels)
    if count == 1:
        return FiniteMetricSpace(tuple(labels), np.zeros((1, 1)), flavor=ULTRAMETRIC)
    top = greatest_leq(S, eps)
    if top == 0.0:
        raise ValueOutsideRangeSet(f"no positive element of S lies below {eps!r}")
    return _ladder_space(ladder(S, top, _string_depth(count)), tuple(labels))


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
    piece_spaces = [
        _relabel(
            cantor_prefix_metric(len(piece), scale=eps, depth=depth),
            tuple(d.labels[i] for i in piece),
        )
        for piece in partition.pieces
    ]
    host_piece_diameter = max(
        float(d.matrix[np.ix_(piece, piece)].max()) for piece in partition.pieces
    )
    eps_effective = max(eps, host_piece_diameter)
    out = amalgamate_metric(d, partition, piece_spaces)

    r_min = min(piece.separation for piece in piece_spaces)
    piece_cs = [up_report(piece, r_min).c_star for piece in piece_spaces]
    min_piece_diameter = min(piece.diameter for piece in piece_spaces)
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
