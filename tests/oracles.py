"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions: exhaustive enumeration
over all simple paths / all subsets / all critical radii, on plain
matrices.  None of it calls into the package under test.  Frozen
expected values derived by hand live in FROZEN at the bottom.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# distances between metrics


def sup_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Definitional sup-metric: largest absolute entry difference."""
    worst = 0.0
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            worst = max(worst, abs(float(a[i, j]) - float(b[i, j])))
    return worst


def ultra_dist(a: np.ndarray, b: np.ndarray, s_values) -> float:
    """Definitional ultra-distance over an explicit value set.

    Scan the candidate levels of S in increasing order and return the
    first eps with a <= max(b, eps) and b <= max(a, eps) entrywise;
    math.inf when no level works.
    """
    n = a.shape[0]
    for eps in sorted(float(v) for v in s_values):
        ok = True
        for i in range(n):
            for j in range(n):
                if a[i, j] > max(b[i, j], eps) or b[i, j] > max(a[i, j], eps):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return eps
    return math.inf


# ---------------------------------------------------------------------------
# axioms


def first_triangle_violation_by_loops(matrix: np.ndarray, slack: float, strong: bool):
    """Lexicographically first (i, j, k) with d(i, j) > b + slack, where
    b = d(i, k) + d(k, j), or max(d(i, k), d(k, j)) when strong; None
    when no triple violates."""
    n = matrix.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left, right = float(matrix[i, k]), float(matrix[k, j])
                bound = max(left, right) if strong else left + right
                if float(matrix[i, j]) > bound + slack:
                    return i, j, k
    return None


# ---------------------------------------------------------------------------
# chains: every simple path between a pair, evaluated in bulk


def _all_paths_between(n: int, i: int, j: int):
    """Yield (paths, k) arrays: all simple i -> j paths with k interior
    vertices, one path per row.  Covers every simple path for k < n-1."""
    others = [v for v in range(n) if v not in (i, j)]
    yield np.array([[i, j]], dtype=np.intp), 0
    for k in range(1, len(others) + 1):
        interior = np.array(list(itertools.permutations(others, k)), dtype=np.intp)
        head = np.full((interior.shape[0], 1), i, dtype=np.intp)
        tail = np.full((interior.shape[0], 1), j, dtype=np.intp)
        yield np.hstack([head, interior, tail]), k


def bottleneck_by_paths(matrix: np.ndarray) -> np.ndarray:
    """Minimax chain value for every pair by enumerating all simple paths."""
    n = matrix.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            best = math.inf
            for paths, _ in _all_paths_between(n, i, j):
                steps = matrix[paths[:, :-1], paths[:, 1:]]
                best = min(best, float(steps.max(axis=1).min()))
            out[i, j] = out[j, i] = best
    return out


def ud_witness_by_loops(matrix: np.ndarray, bottleneck: np.ndarray):
    """(delta*, (i, j)): the first pair i < j, in lexicographic order,
    whose ratio bottleneck / d is strictly below every earlier one."""
    n = matrix.shape[0]
    best, witness = math.inf, None
    for i in range(n):
        for j in range(i + 1, n):
            ratio = float(bottleneck[i, j]) / float(matrix[i, j])
            if ratio < best:
                best, witness = ratio, (i, j)
    return best, witness


def closure_by_paths(matrix: np.ndarray) -> np.ndarray:
    """Shortest-path repair by enumerating all simple paths (tiny n only)."""
    n = matrix.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            best = math.inf
            for paths, _ in _all_paths_between(n, i, j):
                sums = matrix[paths[:, :-1], paths[:, 1:]].sum(axis=1)
                best = min(best, float(sums.min()))
            out[i, j] = out[j, i] = best
    return out


def closure_by_loops(matrix: np.ndarray) -> np.ndarray:
    """Floyd-Warshall as the k-outer recurrence, one entry at a time:
    d(i, j) <- min(d(i, j), d(i, k) + d(k, j)) for k = 0, 1, ..., n-1."""
    m = [[float(v) for v in row] for row in matrix]
    n = len(m)
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            row_i, via = m[i], m[i][k]
            for j in range(n):
                if via + row_k[j] < row_i[j]:
                    row_i[j] = via + row_k[j]
    return np.array(m)


def closure_by_full_steps(matrix: np.ndarray) -> np.ndarray:
    """The same recurrence with every step a numpy update of all n rows,
    skipping none: d <- min(d, d(., k) + d(k, .))."""
    m = np.array(matrix, dtype=float)
    for k in range(len(m)):
        np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
    return m


# ---------------------------------------------------------------------------
# moduli


def doubling_by_subsets(matrix: np.ndarray, beta: float) -> tuple[float, tuple[int, ...]]:
    """(max, argmax) over subsets with >= 2 points of card * (sep/diam)**beta.

    Ties go to the lexicographically least index tuple.
    """
    n = matrix.shape[0]
    best = -math.inf
    witness: tuple[int, ...] = ()
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            block = matrix[np.ix_(subset, subset)]
            vals = block[np.triu_indices(size, k=1)]
            diam = float(vals.max())
            sep = float(vals.min())
            ratio = size * (sep / diam) ** beta
            if ratio > best or (ratio == best and subset < witness):
                best = ratio
                witness = subset
    return best, witness


def doubling_sampled_by_full_scan(
    matrix: np.ndarray, beta: float, budget: int, seed
) -> tuple[float, tuple[int, ...]]:
    """The sampled doubling search (n > 15) with nothing skipped.

    Candidates, in order: the pair (0, 1), the full set, the best sorted
    ball prefix of every center, and `budget` random subsets drawn as
    integers(2, n + 1) then choice(n, k, replace=False) from
    default_rng(seed).  Every candidate is scored; ties go to the
    lexicographically least index tuple.
    """
    n = matrix.shape[0]
    generator = np.random.default_rng(seed)
    best = -math.inf
    witness: tuple[int, ...] = ()

    def consider(ratio, subset):
        nonlocal best, witness
        if ratio > best or (ratio == best and subset < witness):
            best = ratio
            witness = subset

    consider(2.0, (0, 1))
    off = ~np.eye(n, dtype=bool)
    consider(n * (float(matrix[off].min()) / float(matrix.max())) ** beta, tuple(range(n)))
    for center in range(n):
        order = np.argsort(matrix[center], kind="stable")
        sub = matrix[np.ix_(order, order)]
        tril = np.tril(np.ones((n, n), dtype=bool), k=-1)
        rowmax = np.where(tril, sub, -np.inf).max(axis=1)
        rowmin = np.where(tril, sub, np.inf).min(axis=1)
        diam = np.maximum.accumulate(rowmax)[1:]
        sep = np.minimum.accumulate(rowmin)[1:]
        ratios = np.arange(2, n + 1, dtype=float) * (sep / diam) ** beta
        k = int(np.argmax(ratios))
        consider(float(ratios[k]), tuple(sorted(int(i) for i in order[: k + 2])))
    for _ in range(budget):
        k = int(generator.integers(2, n + 1))
        idx = np.sort(generator.choice(n, size=k, replace=False))
        block = matrix[np.ix_(idx, idx)]
        vals = block[off[:k, :k]]
        consider(k * (float(vals.min()) / float(vals.max())) ** beta, tuple(idx.tolist()))
    return best, witness


def extreme_pairs_by_triu(matrix: np.ndarray):
    """The n smallest and n largest pairs i < j, read through the full
    ``np.triu_indices`` index arrays: (small, large), each (rows, cols,
    values), small ascending and large descending by stable sort of the
    argpartition picks."""
    n = matrix.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    values = matrix[rows, cols]
    count = min(n, values.size)
    small = np.argpartition(values, count - 1)[:count]
    small = small[np.argsort(values[small], kind="stable")]
    large = np.argpartition(values, values.size - count)[values.size - count :]
    large = large[np.argsort(values[large], kind="stable")[::-1]]
    return tuple((rows[t], cols[t], values[t]) for t in (small, large))


def up_constant_by_radii(matrix: np.ndarray, r_min: float, eta: float = 1e-9) -> float:
    """Annulus constant by a 2-D scan over (point, critical radius).

    For a point x and radius r in [r_min, diameter), the best admissible
    c is (largest distance from x that is <= r) / r, or 0 when no
    distance lies at or below r.  The infimum over r is approached just
    below each distance value and just below the diameter, so those
    radii (shrunk by a relative eta) plus r_min itself form the grid.
    eta bounds the oracle's resolution: the result sits within about
    eta of the true infimum (values never exceed 1).
    """
    n = matrix.shape[0]
    diam = float(matrix.max())
    worst = math.inf
    for x in range(n):
        dists = sorted(set(float(v) for v in matrix[x] if v > 0))
        radii = [r_min] + [v * (1 - eta) for v in dists] + [diam * (1 - eta)]
        for r in radii:
            if not r_min <= r < diam:
                continue
            below = [v for v in dists if v <= r]
            ratio = (max(below) / r) if below else 0.0
            worst = min(worst, ratio)
    return worst


def up_report_by_point_loop(matrix: np.ndarray, r_min: float):
    """(c*, (point, radius)) of the annulus constant, one point at a time.

    Per point x, the distinct positive distances a_0 < a_1 < ... give the
    intervals [max(a_k, r_min), min(a_{k+1}, diameter)); the first point
    whose a_0 exceeds r_min returns (0, (x, r_min)).  Otherwise each live
    interval scores a_k / its right end, and the witness is the first
    point, and within it the first interval, reaching the least score.
    """
    diameter = float(matrix.max())
    best = np.inf
    witness = (0, r_min)
    for x in range(matrix.shape[0]):
        row = matrix[x]
        dists = np.unique(row[row > 0])
        if dists[0] > r_min:
            return 0.0, (x, r_min)
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
    return best, witness


def up_obstruction_by_scan(s_values, c: float, n_max: int) -> int | None:
    """First interior window [c**(n+1), c**(n-1)] empty of the listed
    positive values, with some listed value above it."""
    positive = sorted(v for v in s_values if v > 0)
    for n in range(n_max + 1):
        lo, hi = c ** (n + 1), c ** (n - 1)
        inside = [v for v in positive if lo <= v <= hi]
        above = [v for v in positive if v > hi]
        if not inside and above:
            return n
    return None


def parametric_elements(
    kind: str, param: float, scale: float = 1.0, limit: int | None = None
) -> list[float]:
    """Positive elements of a geometric or double-exponential range set
    in exponent order: scale * ratio**n or base**(2**n) for n = 0, 1, ...,
    as floats, until the value underflows to 0 or `limit` are listed."""
    elements = []
    while True:
        n = len(elements)
        value = scale * param**n if kind == "geometric" else param ** (2**n)
        if value == 0.0 or n == limit:
            return elements
        elements.append(value)


def least_geq_by_scan(members: list[float], x: float) -> float:
    """Smallest member >= x, or inf; members sorted ascending, 0 first."""
    i = bisect.bisect_left(members, x)
    return members[i] if i < len(members) else math.inf


def greatest_leq_by_scan(members: list[float], x: float) -> float:
    """Largest member <= x; members sorted ascending, starting with 0."""
    return members[bisect.bisect_right(members, x) - 1]


def ladder_by_scan(elements: list[float], top: float, count: int) -> tuple[float, ...]:
    """`count` elements in exponent order from the first one <= top
    (underflowed elements read 0)."""
    start = next(n for n, value in enumerate(elements) if value <= top)
    padded = elements + [0.0] * count
    return tuple(padded[start : start + count])


def subset_ratio_extremes_by_scan(base: np.ndarray, perturbed: np.ndarray):
    """(min diam_e / diam_d, max sep_e / sep_d) over every subset of at
    least two points, enumerated by bit mask."""
    n = base.shape[0]
    min_diam, max_sep = math.inf, 0.0
    for mask in range(1, 1 << n):
        if not mask & (mask - 1):
            continue
        idx = [i for i in range(n) if (mask >> i) & 1]
        pairs = list(itertools.combinations(idx, 2))
        diam_e = max(float(perturbed[i, j]) for i, j in pairs)
        diam_d = max(float(base[i, j]) for i, j in pairs)
        sep_e = min(float(perturbed[i, j]) for i, j in pairs)
        sep_d = min(float(base[i, j]) for i, j in pairs)
        min_diam = min(min_diam, diam_e / diam_d)
        max_sep = max(max_sep, sep_e / sep_d)
    return min_diam, max_sep


def linf_by_loops(coords: np.ndarray) -> np.ndarray:
    n = coords.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = max(
                abs(float(a) - float(b)) for a, b in zip(coords[i], coords[j])
            )
    return out


def sum_form_by_loops(host: np.ndarray, pieces, basepoints, piece_matrices) -> np.ndarray:
    """D(x, y) = (a_x + a_y) + d(p, q) across pieces, piece entries within."""
    n = host.shape[0]
    owner, local = {}, {}
    for k, piece in enumerate(pieces):
        for position, x in enumerate(piece):
            owner[x], local[x] = k, position
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            kx, ky = owner[x], owner[y]
            if kx == ky:
                out[x, y] = piece_matrices[kx][local[x], local[y]]
            else:
                px, py = basepoints[kx], basepoints[ky]
                arm_x = piece_matrices[kx][local[x], local[px]]
                arm_y = piece_matrices[ky][local[y], local[py]]
                out[x, y] = (arm_x + arm_y) + host[px, py]
    return out


def doubling_embedding_by_two_passes(matrix: np.ndarray, eps: float):
    """(output matrix, coordinates) of the doubling pipeline, in two full
    passes.

    The net is farthest-point from index 0 (lowest index on ties) until
    every point lies within eps of it.  Every point's coordinates are
    F(x) = min over net points a of d(a, .) + d(x, a), with the net's
    columns in net order; the net rows are then overwritten by their own
    distance rows.  An aux axis holds i * eps / (2n).  The output is the
    max-norm matrix of all coordinates, over every pair.
    """
    n = matrix.shape[0]
    net = [0]
    while True:
        dist = matrix[net].min(axis=0)
        far = int(np.argmax(dist))
        if dist[far] < eps:
            break
        net.append(far)
    rows = matrix[np.ix_(net, net)]
    by_index = np.argsort(net)
    members, values = np.asarray(net)[by_index], rows[by_index]
    extended = (values[None, :, :] + matrix[:, members][:, :, None]).min(axis=1)
    extended[members] = values
    aux = np.arange(n) * (eps / (2 * n))
    coords = np.hstack([extended, aux[:, None]])
    return np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2), coords


def merge_singletons_by_rounds(matrix: np.ndarray, pieces, basepoints):
    """(pieces, basepoints) after folding singletons one round at a time.

    Each round rebuilds the list of singleton pieces, takes the one with
    the lowest point, and moves that point into the piece holding its
    nearest other point (lowest index on ties), until none is left.
    """
    pieces = [list(piece) for piece in pieces]
    basepoints = list(basepoints)
    while True:
        lone = [k for k, piece in enumerate(pieces) if len(piece) == 1]
        if not lone:
            break
        k = min(lone, key=lambda k: pieces[k][0])
        x = pieces[k][0]
        row = matrix[x].copy()
        row[x] = np.inf
        nearest = int(np.argmin(row))
        home = next(j for j, piece in enumerate(pieces) if nearest in piece)
        pieces[home] = sorted(pieces[home] + [x])
        del pieces[k]
        del basepoints[k]
    return tuple(tuple(p) for p in pieces), tuple(basepoints)


def valuation_by_scan(x: str, y: str) -> float:
    for i, (a, b) in enumerate(zip(x, y)):
        if a != b:
            return i
    return math.inf


def cantor_numerator_by_horner(bits) -> int:
    """Base-3 integer whose digits are the doubled bits, MSB first."""
    t = 0
    for b in bits:
        t = 3 * t + 2 * int(b)
    return t


# ---------------------------------------------------------------------------
# frozen values (derived by hand; the derivations live in the tests that
# consume them)

FROZEN = {
    # triangles (1,2,3) vs (2,3,5): entrywise gaps 1, 1, 2
    "sup_triangles": 2.0,
    # S = {0,1,4,8}; lone differing pair needs eps >= max(1, 3) = 3 -> 4
    "ultra_single_pair": 4.0,
    # uniform space: every subset scores card * 1**beta, best is all 8
    "doubling_uniform_n8_beta1": 8.0,
    # progression: pairs score 2; any m-subset has sep <= diam/(m-1),
    # so its score is at most m/(m-1) <= 2
    "doubling_progression_beta1": 2.0,
    # progression on 33 points: every bottleneck is 1 (unit hops), the
    # farthest pair sits at distance 32
    "ud_progression_n33": 1.0 / 32.0,
    # geometric ladder: every consecutive quotient is exactly 0.5
    "up_geometric_halving": 0.5,
    # S = {0} u {2**(-2**n)}: first interior window miss per c
    # (exponent arithmetic: the window [c**(n+1), c**(n-1)] holds some
    # 2**(-2**k) iff a power of two lies in [log2(1/c)*(n-1), *(n+1)])
    "up_obstruction_03": 6,
    "up_obstruction_05": 6,
    "up_obstruction_07": 5,
}
