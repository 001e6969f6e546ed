"""Finite metric and ultrametric spaces with validated distance matrices.

A space is a label list plus a square distance matrix plus a flavor
("metric" or "ultrametric").  :func:`validate` is the only sanctioned way
to build one from untrusted data; it checks the axioms in a fixed order
and reports the first violation with witnessing indices.  The two
distances between metrics on a common label list (:func:`sup_distance`
and :func:`ultra_distance`) and the shortest-path repair
(:func:`metric_closure`) live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import pdist, squareform

from .errors import (
    AsymmetricMatrix,
    LabelMismatch,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotUltrametric,
    SeparationUndefined,
    StrongTriangleViolation,
    TriangleViolation,
    ValueOutsideRangeSet,
    ZeroOffDiagonal,
)
from .rangesets import RangeSet, contains, least_geq

# Relative validation tolerance: triangle slack is DEFAULT_TOL * (max entry).
# Pass tol=0 for exact checks on rationally-constructed matrices; tol=0
# always takes the triangle scan (the Chebyshev certificate needs slack).
DEFAULT_TOL = 1e-9

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps

METRIC = "metric"
ULTRAMETRIC = "ultrametric"
FLAVORS = (METRIC, ULTRAMETRIC)


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite labeled point set with a distance matrix.

    Instances are immutable; the matrix is stored as a read-only float
    array.  Construction performs no axiom checking — use
    :func:`validate` for untrusted input.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray
    flavor: str = METRIC

    # The private exactness mark (a class attribute, not a field): set by
    # _mark_exact on spaces whose construction proves the matrix an exact
    # ultrametric (see _exact_ultrametric).
    _exact = False

    def __post_init__(self):
        labels = tuple(str(label) for label in self.labels)
        matrix = np.array(self.matrix, dtype=float, copy=True)
        matrix.setflags(write=False)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if matrix.shape[0] != len(labels):
            raise ValueError("matrix side must equal the number of labels")
        if len(labels) == 0:
            raise ValueError("a space needs at least one point")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return len(self.labels)

    # The matrix is read-only, so each statistic is computed once per space.
    @cached_property
    def diameter(self) -> float:
        return float(self.matrix.max())

    @cached_property
    def separation(self) -> float:
        """Smallest positive pairwise distance (needs >= 2 points)."""
        if self.n < 2:
            raise SeparationUndefined("separation needs at least 2 points")
        return float(np.min(self.matrix, initial=np.inf, where=~np.eye(self.n, dtype=bool)))


def _subdominant_ultrametric(matrix: np.ndarray) -> np.ndarray:
    """The largest ultrametric below a symmetric positive matrix.

    Entry (x, y) is the minimax chain cost: the least, over chains
    x = z_1, ..., z_N = y, of the largest step d(z_i, z_{i+1}).  It is
    the cophenetic matrix of the single-linkage hierarchy (Gower & Ross
    1969), so every value is an original matrix entry and no arithmetic
    is performed on them.  Only the upper triangle is read.
    """
    if matrix.shape[0] == 1:
        return np.zeros((1, 1))
    merge_tree = linkage(squareform(matrix, checks=False), method="single")
    return squareform(cophenet(merge_tree))


# Elements (512 KiB of floats) in one row block of the triangle scan, so
# its temporary stays within a core's L2 cache.
_SCAN_BLOCK_ELEMENTS = 1 << 16


# a bound that overflows to inf flags nothing, which is the right verdict
@np.errstate(over="ignore")
def _first_triangle_violation(matrix: np.ndarray, slack: float, strong: bool):
    """Lexicographically first (i, j, k) violating the (strong) triangle
    inequality, or None.

    The violated predicate is d(i, j) > b + slack with b = d(i, k) + d(k, j)
    (b = max(d(i, k), d(k, j)) when strong).  The matrix must be exactly
    symmetric, positive off the diagonal and zero on it, so swapping i and
    j leaves b unchanged and i = j never violates: the first violating
    triple has i < j.  Row i is therefore checked against the rows j > i
    only (d(k, j) = d(j, k)), by one min-reduce over k per row.  Since
    fl(b + slack) is monotone in b, d(i, j) exceeds min_k b + slack exactly
    when it exceeds some b + slack, and k is then the first such index in
    row j.  The rows j > i are walked in row blocks of at most
    _SCAN_BLOCK_ELEMENTS entries, combined into one preallocated buffer
    that stays in cache, and each block's minima land in one vector of
    row minima; the first bad j in it is the least one, so the witness is
    unchanged.  Memory stays at O(n^2).
    """
    n = matrix.shape[0]
    combine = np.maximum if strong else np.add
    step = max(1, _SCAN_BLOCK_ELEMENTS // max(1, n))
    buffer = np.empty((min(step, n), n))
    mins = np.empty(n)
    for i in range(n - 1):
        row = matrix[i]
        for start in range(i + 1, n, step):
            rows = matrix[start : start + step]
            combine(rows, row, out=buffer[: len(rows)]).min(axis=1, out=mins[start : start + step])
        bad = row[i + 1 :] > mins[i + 1 :] + slack
        if bad.any():
            j = i + 1 + int(np.argmax(bad))
            k = int(np.argmax(row[j] > combine(row, matrix[j]) + slack))
            return i, j, k
    return None


def _triangle_certified(m: np.ndarray, slack: float) -> bool:
    """True when the rows' Chebyshev distances prove that the triangle
    scan with this slack flags no triple; False when the certificate
    fails or does not apply (slack below 8 * eps * max entry, or not a
    normal float), and the scan must decide.

    The triangle inequality holds exactly when i -> d(i, .) is an
    isometry into the max norm (Frechet), i.e. when
    max_j |d(i, j) - d(k, j)| <= d(i, k) for every pair; pdist computes
    the left side with subtraction, fabs and max only.  The certificate
    is T(i, k) <= fl(d(i, k) + h), h = fl(s / 2), s = slack.

    Soundness, in the model fl(x +- y) = (x +- y)(1 + delta) with
    |delta| <= u = 2**-53 and results in the subnormal range exact
    (so h <= s/2 + u*s).  Let M be the max entry.  The computed guard
    gives s >= 16uM exactly: 8 * eps = 2**-49, so the product is exact
    unless subnormal, and then the normal s exceeds it.  Pass means
    |fl(d_ij - d_kj)| <= fl(d_ik + h) for every i, k, j (i < k from
    pdist, i = k trivially, i > k by symmetry).  Take a triple
    (i, j, k) with a = d_ik, b = d_kj.  The scan flags it only when
    d_ij > fl(fl(a + b) + s).  Rounding is monotone, so nothing is
    flagged when d_ij <= b, or when fl(a + h) overflows (the scan's
    bound is then >= fl(a + h) = inf).  Otherwise
    (d_ij - b)(1 - u) <= (a + h)(1 + u), so
    d_ij <= a + b + h + 2.1u(a + h) <= a + b + s/2 + 2.1uM + 2.1us,
    while fl(fl(a + b) + s) >= (a + b)(1 - 2u) + s(1 - u)
    >= a + b - 4uM + s - us.  The first is <= the second whenever
    s(1/2 - 3.1u) >= 6.1uM, which holds from s >= 13uM on (the guard
    asks for 16uM).  So a certified matrix has no triple the scan would
    flag, and the verdict is the scan's.
    """
    if not (_TINY <= slack < np.inf):
        return False
    if slack < 8 * _EPS * float(m.max()):
        return False
    bound = squareform(m, checks=False)
    bound += slack / 2
    return bool((pdist(m, "chebyshev") <= bound).all())


def _triangle_holds(m: np.ndarray, slack: float) -> bool:
    """True when the triangle scan at this slack flags no triple of m,
    a matrix that passes the entry checks: the Chebyshev certificate
    first, the scan when it declines."""
    return _triangle_certified(m, slack) or _first_triangle_violation(m, slack, strong=False) is None


def _validate_built(labels, m: np.ndarray, certificate=None) -> FiniteMetricSpace:
    """validate(labels, m) for a matrix whose construction proves the
    triangle inequality, without the cubic check where the proof applies.

    `certificate(slack)` is the construction's own check that the
    triangle scan at the output's slack flags no triple; None means the
    construction alone proves it.  The entry checks always run.  The
    certificate is used only under the guard below; otherwise, and when
    it fails, the unchanged :func:`validate` decides, so verdicts,
    witnesses and bytes are those of the scan.  Callers pass only
    matrices they computed themselves (never one handed in from outside).

    Guard.  With M the max entry and s = DEFAULT_TOL * M the slack of
    :func:`validate`, it asks s / 2 to be a normal float (so h = s / 2 is
    exact) and s >= 32 * eps * M = 64uM, u = 2**-53.  The proofs need
    32.1uM (the sum-form amalgam in :mod:`metriclab.build`), 8.1uM (the
    max-norm matrix there and :func:`metriclab.cantor.cantor_prefix_metric`)
    and 4.01(n + 1)uM (:func:`metric_closure`, whose certificate checks
    it).  At the default tolerance the guard holds unless s is subnormal
    (M below about 4.5e-299), when the scan runs.
    """
    if _entry_violation(labels, m) is None:
        top = float(m.max())
        slack = DEFAULT_TOL * top
        if (
            _TINY <= slack / 2
            and slack >= 32 * _EPS * top
            and (certificate is None or certificate(slack))
        ):
            return FiniteMetricSpace(tuple(labels), m, METRIC)
    return validate(labels, m, flavor=METRIC)


def _mark_exact(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Set the exactness mark of `space` (see :func:`_exact_ultrametric`)."""
    object.__setattr__(space, "_exact", True)
    return space


def _exact_ultrametric(labels, m: np.ndarray) -> FiniteMetricSpace:
    """validate(labels, m, flavor=ULTRAMETRIC) for a matrix whose
    construction proves the strong triangle inequality bit for bit, with
    the exactness mark set.

    The entry checks run; when one fails, :func:`validate` raises its
    error.  Otherwise validate would pass and return this space: a
    matrix with zero diagonal and positive off-diagonal entries that
    meets d(x, z) <= max(d(x, y), d(y, z)) exactly equals its
    :func:`_subdominant_ultrametric`, the certificate :func:`diagnose`
    tries first (every chain from x to z has a step >= d(x, z), by
    induction on its length, and the one-step chain attains it).  So the
    mark lets a reader use the matrix as its own subdominant
    (:func:`metriclab.moduli.bottleneck_matrix`) and as an exact
    ultrametric (the max-form amalgam and the sum-form certificate in
    :mod:`metriclab.build`).  Callers pass only matrices they computed
    themselves, with +0.0 on the diagonal as the subdominant has, never
    one handed in from outside; a relabelled space keeps the mark
    (:func:`metriclab.build._relabel`), and nothing else sets it.
    """
    if _entry_violation(labels, m) is not None:
        return validate(labels, m, flavor=ULTRAMETRIC)
    return _mark_exact(FiniteMetricSpace(tuple(labels), m, ULTRAMETRIC))


def _entry_violation(labels, m: np.ndarray):
    """Shape and finiteness (ValueError), then the entry-level axioms in
    order: zero diagonal (exact), symmetry (exact), positivity (strict).
    Returns the typed error of the first violated one, or None."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] != len(tuple(labels)):
        raise ValueError("matrix side must equal the number of labels")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    diag = np.diagonal(m)
    if (diag != 0).any():
        i = int(np.nonzero(diag != 0)[0][0])
        return NonzeroDiagonal(f"diagonal entry ({i},{i}) = {float(m[i, i])!r} != 0", (i, i))
    asym = m != m.T
    if asym.any():
        i, j = (int(v) for v in np.argwhere(asym)[0])
        return AsymmetricMatrix(
            f"entry ({i},{j}) = {float(m[i, j])!r} differs from ({j},{i}) = {float(m[j, i])!r}",
            (i, j),
        )
    nonpos = ~np.eye(m.shape[0], dtype=bool) & (m <= 0)
    if nonpos.any():
        i, j = (int(v) for v in np.argwhere(nonpos)[0])
        return NonpositiveOffDiagonal(
            f"off-diagonal entry ({i},{j}) = {float(m[i, j])!r} <= 0", (i, j)
        )
    return None


def diagnose(labels, matrix, flavor: str = METRIC, tol: float = DEFAULT_TOL):
    """Check the axioms in order; return the typed error of the first
    violated one (its `axiom`, message and witness `indices`), or None.

    Order: zero diagonal (exact), symmetry (exact), positivity (strict),
    triangle inequality within tol * max-entry, and additionally the
    strong triangle inequality for the ultrametric flavor.

    Two certificates stand in front of the cubic scans.  First, for the
    ultrametric flavor only: a matrix equal to its
    :func:`_subdominant_ultrametric` satisfies the strong triangle
    inequality exactly, hence also the triangle inequality
    (max(a, b) <= a + b for a, b >= 0), at any slack, and passes.
    Second, for the triangle inequality: when the rows' Chebyshev
    distances certify it (:func:`_triangle_certified`, which needs a
    slack, so never at tol=0) the triangle scan is skipped.  A certificate
    only ever stands in for a scan that would pass; when one fails, the
    scan it stands in for runs unchanged, so witnesses and tolerant
    passes are those of the scans.  The triangle scan checks i < j only
    (see :func:`_first_triangle_violation`).
    """
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    m = np.asarray(matrix, dtype=float)
    error = _entry_violation(labels, m)
    if error is not None:
        return error
    n = m.shape[0]
    if flavor == ULTRAMETRIC and np.array_equal(m, _subdominant_ultrametric(m)):
        return None
    slack = tol * float(m.max()) if n > 1 else 0.0
    if _triangle_certified(m, slack):
        hit = None
    else:
        hit = _first_triangle_violation(m, slack, strong=False)
    if hit is not None:
        i, j, k = hit
        return TriangleViolation(
            f"d({i},{j}) = {float(m[i, j])!r} > d({i},{k}) + d({k},{j}) = "
            f"{float(m[i, k] + m[k, j])!r} (slack {float(slack)!r})",
            (i, j, k),
        )
    if flavor == ULTRAMETRIC:
        hit = _first_triangle_violation(m, slack, strong=True)
        if hit is not None:
            i, j, k = hit
            return StrongTriangleViolation(
                f"d({i},{j}) = {float(m[i, j])!r} > max(d({i},{k}), d({k},{j})) = "
                f"{float(max(m[i, k], m[k, j]))!r} (slack {float(slack)!r})",
                (i, j, k),
            )
    return None


def validate(labels, matrix, flavor: str = METRIC, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Validate a candidate distance matrix and wrap it in a space.

    Raises the typed error for the first violated axiom; the error's
    `indices` attribute names the witnessing entries / triple.
    """
    error = diagnose(labels, matrix, flavor=flavor, tol=tol)
    if error is not None:
        raise error
    return FiniteMetricSpace(tuple(labels), matrix, flavor)


def _require_shared_labels(d: FiniteMetricSpace, e: FiniteMetricSpace):
    if d.labels != e.labels:
        raise LabelMismatch(
            "spaces must share the same label list in the same order"
        )


def sup_distance(d: FiniteMetricSpace, e: FiniteMetricSpace) -> float:
    """Largest absolute difference of distances over all pairs."""
    _require_shared_labels(d, e)
    return float(np.abs(d.matrix - e.matrix).max())


def _require_s_valued(named, S: RangeSet) -> None:
    """Raise unless every (name, space) in `named` is ultrametric-flavored
    with every entry in S within DEFAULT_TOL * (their largest entry).

    This is the one rule for "an S-valued ultrametric" that the distance
    over S and the max-form amalgam share.  Each matrix is read once, by
    np.unique, whose last value is its largest entry.
    """
    for name, space in named:
        if space.flavor != ULTRAMETRIC:
            raise NotUltrametric(f"{name} is not ultrametric-flavored")
    values = [(name, np.unique(space.matrix)) for name, space in named]
    slack = DEFAULT_TOL * max(float(unique[-1]) for _, unique in values)
    for name, unique in values:
        for value in unique.tolist():
            if not contains(S, value, slack):
                raise ValueOutsideRangeSet(f"{name} has value {value!r} outside S")


def ultra_distance(d: FiniteMetricSpace, e: FiniteMetricSpace, S: RangeSet) -> float:
    """Least element of S (or +inf) covering every differing pair.

    For S-valued ultrametrics d, e this equals the least epsilon in
    S u {inf} with d <= max(e, epsilon) and e <= max(d, epsilon)
    pairwise: epsilon must dominate M = max over differing pairs of
    max(d, e), and the answer is the least element of S >= M (0 when
    d = e).  Both inputs must pass :func:`_require_s_valued`.
    """
    _require_shared_labels(d, e)
    _require_s_valued((("the first space", d), ("the second space", e)), S)
    differ = d.matrix != e.matrix
    if not differ.any():
        return 0.0
    return least_geq(S, float(np.maximum(d.matrix, e.matrix)[differ].max()))


def metric_closure(labels, raw) -> FiniteMetricSpace:
    """Shortest-path repair of a symmetric positive dissimilarity matrix.

    The output is the float Floyd-Warshall k-outer recurrence
    d(i, j) <- min(d(i, j), fl(d(i, k) + d(k, j))) for k = 0, ..., n-1
    (Floyd 1962), bit for bit, and a metric within the validation slack.
    It is the all-pairs minimum path sum up to rounding, not always the
    largest metric below the raw matrix: a rounded sum can leave a triple
    that breaks the triangle inequality at slack 0 by an ulp.  The raw
    matrix must pass the entry-level checks of :func:`diagnose`; a zero
    off-diagonal entry anywhere raises ZeroOffDiagonal (it would merge
    points) ahead of a negative one.

    Step k updates only the rows it can change.  Let L be the least
    off-diagonal input entry (inf when n = 1) and R_i an upper bound on
    row i's maximum.  The matrix stays exactly symmetric, since
    fl(a + b) = fl(b + a), so d(i, k) is read from row k and row i's
    maximum from column i.  Every off-diagonal entry stays >= L at every
    step, because fl(a + b) >= a for b >= 0; and rows only shrink, so
    R_i stays a bound and is recomputed only for the rows just updated.
    Rounding is monotone, so when fl(d(i, k) + L) >= R_i, then
    fl(d(i, k) + d(k, j)) >= d(i, j) for every j != k (this covers an
    overflow to inf), and j = k adds 0: row i cannot change at step k.
    Step k therefore gathers the rows with fl(d(i, k) + L) < R_i and
    applies the recurrence to those alone.  When at least half the rows
    pass, it updates the whole matrix in place instead, which moves less
    data than the gather and scatter; the skipped rows then take the
    identity update.  Row k and column k do not change during step k,
    so the values are those of the full update.

    The output goes through :func:`_validate_built` with the rounding
    certificate :func:`_closure_certified` in place of the cubic check.
    """
    m = np.array(raw, dtype=float)
    error = _entry_violation(labels, m)
    if isinstance(error, NonpositiveOffDiagonal):
        zero = np.argwhere(~np.eye(len(m), dtype=bool) & (m == 0))
        if zero.size:
            i, j = (int(v) for v in zero[0])
            raise ZeroOffDiagonal(
                f"off-diagonal entry ({i},{j}) = {float(m[i, j])!r} would merge points"
            )
    if error is not None:
        raise error
    n = len(m)
    least = np.min(m, initial=np.inf, where=~np.eye(n, dtype=bool))
    bound = m.max(axis=1)
    # a sum that overflows to inf never lowers an entry; it only skips a row
    with np.errstate(over="ignore"):
        for k in range(n):
            row_k = m[k]
            live = np.flatnonzero(row_k + least < bound)
            if 2 * len(live) >= n:
                np.minimum(m, row_k[:, None] + row_k, out=m)
                m.max(axis=0, out=bound)
            else:
                rows = m.take(live, axis=0)
                np.minimum(rows, row_k.take(live)[:, None] + row_k, out=rows)
                m[live] = rows
                bound[live] = rows.max(axis=1)
    return _validate_built(labels, m, lambda slack: _closure_certified(n, float(m.max()), slack))


def _closure_certified(n: int, top: float, slack: float) -> bool:
    """True when rounding alone proves that the triangle scan at `slack`
    flags no triple of :func:`metric_closure`'s output on n points with
    largest entry `top`: when slack >= 4.01 (n + 1) u top, u = 2**-53.
    The caller passes normal floats with slack <= 1e-3 * top, as
    :func:`_validate_built` does (slack = DEFAULT_TOL * top).

    Proof.  Write W for the raw matrix, SP for its exact shortest-path
    distances, SP_k for those over paths with inner points in
    {0, ..., k}, and D_k for the matrix after step k (D_-1 = W), so
    D_k(i, j) = min(D_k-1(i, j), fl(D_k-1(i, k) + D_k-1(k, j))).  A sum
    of finite nonnegative floats is (a + b)(1 + delta) with |delta| <= u
    (exact when subnormal), or overflows to inf, and rounding is monotone.

    * D_k >= (1 - u)**(k+1) SP.  W >= SP, and a new entry is
      fl(D_k-1(i, k) + D_k-1(k, j)) >= (1 - u)**(k+1) (SP(i, k) + SP(k, j))
      >= (1 - u)**(k+1) SP(i, j).
    * D_k <= (1 + u)**(k+1) SP_k.  If a shortest path for SP_k(i, j)
      avoids k, then D_k(i, j) <= D_k-1(i, j) <= (1 + u)**k SP_k-1(i, j)
      and SP_k-1(i, j) = SP_k(i, j).  Otherwise it splits at k, so
      SP_k(i, j) = SP_k-1(i, k) + SP_k-1(k, j), and D_k(i, j) <=
      fl(D_k-1(i, k) + D_k-1(k, j)) <= (1 + u)**(k+1) SP_k(i, j); when
      that sum overflows, the right side exceeds every float already.

    With k = n - 1, SP_n-1 = SP and rho = ((1 + u) / (1 - u))**n, so for
    every triple D(i, j) <= (1 + u)**n (SP(i, k) + SP(k, j)) <= rho T,
    T = D(i, k) + D(k, j) <= 2M, M = top.  The scan flags (i, j, k) only
    when D(i, j) > fl(fl(T) + s) >= T (1 - u)**2 + s (1 - u) (or inf:
    nothing flagged), s = slack, which needs T (rho - (1 - u)**2) >
    s (1 - u).  Let x = n log((1 + u) / (1 - u)) <= 2nu / (1 - u).  A pass
    with s <= 1e-3 M gives (n + 1) u < 2.5e-4, so x < 1e-3, hence
    rho - 1 = e**x - 1 <= 1.001 x and rho - (1 - u)**2 <= 2.0021nu + 2u.
    Flagging thus needs s < 2M (2.0021nu + 2u) / (1 - u) <= 4.005 (n + 1) uM.
    Each side of the test below is off by at most u (the product by u is
    exact), so a pass means s >= 4.009 (n + 1) uM and rules that out.  At
    s = DEFAULT_TOL * M it passes for n up to about 2.2e6.
    """
    return 4.01 * (n + 1) * 2.0**-53 <= slack / top


def _space_payload(space: FiniteMetricSpace) -> dict:
    """{"labels": [...], "matrix": <the read-only ndarray>, "flavor": ...},
    the space file layout as :func:`jsontext.dumps` writes it."""
    return {"labels": list(space.labels), "matrix": space.matrix, "flavor": space.flavor}


def space_to_json(space: FiniteMetricSpace) -> dict:
    """JSON-ready object: {"labels": [...], "matrix": [[...]], "flavor": ...}."""
    return _space_payload(space) | {"matrix": space.matrix.tolist()}


def space_from_json(obj: dict, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Parse and re-validate a space from its JSON object form."""
    try:
        labels = obj["labels"]
        matrix = obj["matrix"]
        flavor = obj.get("flavor", METRIC)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed space object: {exc}") from exc
    strings = isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    if not strings or len(set(labels)) < len(labels):
        raise ValueError("malformed space object: labels must be a list of distinct strings")
    return validate(tuple(labels), np.asarray(matrix, dtype=float), flavor=flavor, tol=tol)
