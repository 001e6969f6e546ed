"""Validation, the two distances between metrics, and the closure repair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from metriclab import spaces
from metriclab import (
    AsymmetricMatrix,
    FiniteMetricSpace,
    LabelMismatch,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotUltrametric,
    SeparationUndefined,
    StrongTriangleViolation,
    TriangleViolation,
    ValueOutsideRangeSet,
    ZeroOffDiagonal,
    bottleneck_matrix,
    diagnose,
    explicit_range_set,
    geometric_range_set,
    metric_closure,
    random_space,
    space_from_json,
    space_to_json,
    sup_distance,
    trial_rng,
    ultra_distance,
    validate,
)
from metriclab.lab import random_s_ultrametric

VALIDATION_TOL = 1e-9  # relative triangle slack pinned by the acceptance table


def _labels(n):
    return tuple(f"p{k}" for k in range(n))


def _symmetric_raw(rng, n, lo=0.5, hi=2.0):
    raw = rng.uniform(lo, hi, size=(n, n))
    raw = np.triu(raw, k=1)
    return raw + raw.T


# ---------------------------------------------------------------------------
# construction and basic record behavior


def test_space_properties():
    matrix = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    space = validate(_labels(3), matrix)
    assert space.n == 3
    assert space.diameter == 3.0
    assert space.separation == 1.0
    assert space.flavor == "metric"
    assert not space.matrix.flags.writeable


def test_space_shape_guards():
    with pytest.raises(ValueError):
        FiniteMetricSpace(("a",), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        FiniteMetricSpace(("a", "b"), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        FiniteMetricSpace((), np.zeros((0, 0)))
    with pytest.raises(ValueError):
        FiniteMetricSpace(("a",), np.zeros((1, 1)), flavor="fuzzy")


def test_separation_needs_two_points():
    lone = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    with pytest.raises(SeparationUndefined):
        _ = lone.separation
    with pytest.raises(SeparationUndefined):  # a failed read caches nothing
        _ = lone.separation


@pytest.mark.parametrize("n", [2, 3, 17, 64])
def test_diameter_and_separation_are_the_gathered_formulas(n):
    rng = trial_rng(12, n)
    hosts = [
        random_space("closure", n, rng),
        random_space("points_linf", n, rng),
        random_s_ultrametric(n, geometric_range_set(0.5), rng),
    ]
    for space in hosts:
        off = ~np.eye(n, dtype=bool)
        for name, value in (
            ("diameter", float(space.matrix.max())),
            ("separation", float(space.matrix[off].min())),
        ):
            got = getattr(space, name)
            assert type(got) is float and got == value
            assert getattr(space, name) is got  # computed once per space


# ---------------------------------------------------------------------------
# diagnose: axiom order and typed errors


def test_diagnose_accepts_valid_metric():
    rng = trial_rng(11, 0)
    space = random_space("closure", 12, rng)
    assert diagnose(space.labels, space.matrix) is None


def test_diagnose_zero_diagonal_first():
    matrix = np.array([[0.5, 1.0], [2.0, 0.0]])  # also asymmetric
    violation = diagnose(_labels(2), matrix)
    assert violation.axiom == "zero_diagonal"
    assert violation.indices == (0, 0)
    with pytest.raises(NonzeroDiagonal):
        validate(_labels(2), matrix)


def test_diagnose_symmetry():
    matrix = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    violation = diagnose(_labels(3), matrix)
    assert violation.axiom == "symmetry"
    i, j = violation.indices
    assert matrix[i, j] != matrix[j, i]
    with pytest.raises(AsymmetricMatrix) as info:
        validate(_labels(3), matrix)
    assert info.value.indices == violation.indices


def test_diagnose_positivity():
    matrix = np.array([[0.0, 0.0], [0.0, 0.0]])
    violation = diagnose(_labels(2), matrix)
    assert violation.axiom == "positivity"
    assert violation.indices == (0, 1)
    with pytest.raises(NonpositiveOffDiagonal):
        validate(_labels(2), matrix)


def test_diagnose_triangle_with_witness():
    matrix = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    violation = diagnose(_labels(3), matrix)
    assert violation.axiom == "triangle"
    i, j, k = violation.indices
    slack = VALIDATION_TOL * matrix.max()
    assert matrix[i, j] > matrix[i, k] + matrix[k, j] + slack
    with pytest.raises(TriangleViolation):
        validate(_labels(3), matrix)


def test_diagnose_strong_triangle_for_ultrametric_flavor():
    # valid as a metric (1.5 <= 1 + 1) but not as an ultrametric
    matrix = np.array([[0.0, 1.5, 1.0], [1.5, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert diagnose(_labels(3), matrix, flavor="metric") is None
    violation = diagnose(_labels(3), matrix, flavor="ultrametric")
    assert violation.axiom == "strong_triangle"
    i, j, k = violation.indices
    assert matrix[i, j] > max(matrix[i, k], matrix[k, j])
    with pytest.raises(StrongTriangleViolation):
        validate(_labels(3), matrix, flavor="ultrametric")


def test_diagnose_rejects_a_nan_tolerance():
    # a NaN slack would make every triangle comparison False
    matrix = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        diagnose(_labels(3), matrix, tol=float("nan"))
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        validate(_labels(3), matrix, tol=float("nan"))


def test_diagnose_rejects_bad_arguments():
    with pytest.raises(ValueError):
        diagnose(_labels(2), np.zeros((2, 2)), tol=-1.0)
    with pytest.raises(ValueError):
        diagnose(_labels(2), np.zeros((2, 2)), flavor="fuzzy")
    with pytest.raises(ValueError):
        diagnose(_labels(3), np.zeros((2, 2)))
    bad = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValueError):
        diagnose(_labels(2), bad)


def test_triangle_slack_is_relative():
    # a violation of size 5e-10 * max sits inside the default slack
    matrix = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    matrix[0, 2] = matrix[2, 0] = 2.0 + 5e-10 * 2.0
    assert diagnose(_labels(3), matrix) is None
    assert diagnose(_labels(3), matrix, tol=0.0).axiom == "triangle"


def _planted_matrix(rng, n, shape):
    """A symmetric positive matrix with a zero diagonal: an ultrametric or
    a metric with ties, either one with a few entries rescaled so that
    (strong) triangle violations appear, or a loose random matrix."""
    if shape.startswith("ultrametric"):
        depth = 4  # 16 distinct strings cover n <= 12 distinct points
        codes = rng.choice(1 << depth, size=n, replace=False)
        bits = (codes[:, None] >> np.arange(depth - 1, -1, -1)) & 1
        differ = bits[:, None, :] != bits[None, :, :]
        first = np.where(differ.any(axis=2), differ.argmax(axis=2), depth)
        rungs = np.sort(rng.choice([0.25, 0.5, 1.0, 2.0], size=depth))[::-1]
        matrix = np.append(rungs, 0.0)[first]
    elif shape.startswith("metric"):
        raw = np.triu(rng.integers(4, 8, size=(n, n)) / 4.0, k=1)
        matrix = raw + raw.T
    else:
        raw = np.triu(rng.uniform(0.1, 3.0, size=(n, n)), k=1)
        matrix = raw + raw.T
    if shape.endswith("bumped") and n >= 2:
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.choice(n, size=2, replace=False)
            factor = rng.choice([0.5, 1 + 1e-12, 1 + 1e-6, 1.001, 2.5])
            matrix[i, j] = matrix[j, i] = matrix[i, j] * factor
    return matrix


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(range(1, 13)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(
        ["ultrametric", "ultrametric_bumped", "metric", "metric_bumped", "loose"]
    ),
    st.sampled_from([1e-300, 1.0, 1e300]),
    st.sampled_from([0.0, 1e-9, 1e-3]),
    st.sampled_from(["metric", "ultrametric"]),
)
def test_diagnose_witness_matches_loop_oracle(n, seed, shape, scale, tol, flavor):
    matrix = _planted_matrix(np.random.default_rng(seed), n, shape) * scale
    slack = tol * float(matrix.max()) if n > 1 else 0.0
    expected = None
    hit = orc.first_triangle_violation_by_loops(matrix, slack, strong=False)
    if hit is not None:
        expected = ("triangle", hit)
    elif flavor == "ultrametric":
        hit = orc.first_triangle_violation_by_loops(matrix, slack, strong=True)
        if hit is not None:
            expected = ("strong_triangle", hit)
    violation = diagnose(_labels(n), matrix, flavor=flavor, tol=tol)
    got = None if violation is None else (violation.axiom, violation.indices)
    assert got == expected


@pytest.mark.parametrize("block_rows", [1, 3])
def test_triangle_scan_witness_is_kept_across_row_blocks(block_rows, monkeypatch):
    # the rows j > i are walked in blocks of block_rows rows, so the first
    # violation sits in a later block in most of these matrices
    rng = np.random.default_rng(block_rows)
    later_blocks = 0
    for trial in range(150):
        n = int(rng.integers(3, 13))
        monkeypatch.setattr(spaces, "_SCAN_BLOCK_ELEMENTS", block_rows * n)
        shape = ("ultrametric_bumped", "metric_bumped", "loose")[trial % 3]
        matrix = _planted_matrix(rng, n, shape)
        for strong in (False, True):
            expected = orc.first_triangle_violation_by_loops(matrix, 0.0, strong)
            assert spaces._first_triangle_violation(matrix, 0.0, strong) == expected
            if expected is not None and expected[1] - expected[0] > block_rows:
                later_blocks += 1
    assert later_blocks >= 20


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.0]],
        [[0.0, 2.0], [2.0, 0.0]],
        [[0.0, 1.0, 3.0], [1.0, 0.0, 3.0], [3.0, 3.0, 0.0]],
    ],
)
def test_exact_ultrametric_is_certified_without_scanning(matrix, monkeypatch):
    matrix = np.array(matrix)

    def scan(*args, **kwargs):
        raise AssertionError("the triangle scans ran")

    monkeypatch.setattr(spaces, "_first_triangle_violation", scan)
    for tol in (0.0, VALIDATION_TOL):
        assert diagnose(_labels(len(matrix)), matrix, flavor="ultrametric", tol=tol) is None


def _integer_grid_metric(n, seed):
    # max-norm distances between distinct integer points: every sum is
    # exact, so the triangle inequality holds even at tol = 0
    rng = np.random.default_rng(seed)
    points = np.unique(rng.integers(0, 1000, size=(2 * n, 2)), axis=0)[:n]
    return np.abs(points[:, None, :] - points[None, :, :]).max(axis=2).astype(float)


def test_valid_metric_is_certified_without_the_triangle_scan(monkeypatch):
    matrix = _integer_grid_metric(40, 0)
    assert orc.first_triangle_violation_by_loops(matrix, 0.0, strong=False) is None
    calls = []
    scan = spaces._first_triangle_violation

    def spy(matrix, slack, strong):
        calls.append((slack, strong))
        return scan(matrix, slack, strong)

    monkeypatch.setattr(spaces, "_first_triangle_violation", spy)
    assert diagnose(_labels(40), matrix, tol=spaces.DEFAULT_TOL) is None
    assert calls == []
    assert diagnose(_labels(40), matrix, tol=0.0) is None
    assert calls == [(0.0, False)]


def _ulp_steps(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("tol", [0.0, 1e-15, VALIDATION_TOL])
def test_triangle_planted_at_the_scan_boundary_matches_the_loop_oracle(scale, tol):
    # d(0, 2) sits at the scan's own boundary fl(fl(a + b) + slack) with
    # a = d(0, 1), b = d(1, 2), moved by -4..+4 ulps, by +-slack and by
    # -slack/2; point 3 pins the max entry, hence the slack
    rng = np.random.default_rng(7)
    top = 2.0 * scale
    slack = tol * top
    certified = 0
    for a, b in rng.uniform(0.1, 0.45, size=(5, 2)) * scale:
        boundary = float((a + b) + slack)
        planted = [_ulp_steps(boundary, k) for k in range(-4, 5)]
        planted += [boundary - slack, boundary - slack / 2, boundary + slack]
        for c in planted:
            matrix = np.array(
                [[0.0, a, c, top], [a, 0.0, b, top], [c, b, 0.0, top], [top, top, top, 0.0]]
            )
            expected = orc.first_triangle_violation_by_loops(matrix, slack, strong=False)
            violation = diagnose(_labels(4), matrix, tol=tol)
            got = None if violation is None else violation.indices
            assert got == expected, (a, b, c)
            assert (expected is None) == (c <= boundary)
            certified += spaces._triangle_certified(matrix, slack)
    # the certificate decides some cases only where the slack is a normal
    # float of at least 8 * eps * max entry
    assert (certified > 0) == (tol == VALIDATION_TOL and scale >= 1.0)


def test_ultrametric_within_tol_falls_back_to_the_tolerant_scan():
    # d(1, 2) sits 1e-12 above max(d(1, 0), d(0, 2)): the subdominant
    # ultrametric reads 1.0 there, so only the tolerant scan can accept it
    matrix = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0 + 1e-12], [1.0, 1.0 + 1e-12, 0.0]])
    assert bottleneck_matrix(FiniteMetricSpace(_labels(3), matrix))[1, 2] == 1.0
    assert diagnose(_labels(3), matrix, flavor="ultrametric") is None
    violation = diagnose(_labels(3), matrix, flavor="ultrametric", tol=0.0)
    assert (violation.axiom, violation.indices) == ("strong_triangle", (1, 2, 0))


def test_metric_that_is_not_ultrametric_keeps_its_strong_witness():
    space = random_space("closure", 9, trial_rng(20, 0))
    violation = diagnose(space.labels, space.matrix, flavor="ultrametric")
    slack = VALIDATION_TOL * space.diameter
    expected = orc.first_triangle_violation_by_loops(space.matrix, slack, strong=True)
    assert (violation.axiom, violation.indices) == ("strong_triangle", (0, 2, 1))
    assert violation.indices == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
def test_closure_output_always_validates(n, seed):
    rng = np.random.default_rng(seed)
    space = metric_closure(_labels(n), _symmetric_raw(rng, n))
    assert diagnose(space.labels, space.matrix, tol=VALIDATION_TOL) is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1.5, max_value=50.0),
)
def test_fuzzed_triangle_bump_is_always_caught(n, seed, factor):
    rng = np.random.default_rng(seed)
    space = metric_closure(_labels(n), _symmetric_raw(rng, n))
    i, j = sorted(rng.choice(n, size=2, replace=False))
    broken = space.matrix.copy()
    broken[i, j] = broken[j, i] = space.diameter * 2.0 * factor
    violation = diagnose(_labels(n), broken)
    assert violation is not None and violation.axiom == "triangle"
    a, b, c = violation.indices
    assert broken[a, b] > broken[a, c] + broken[c, b]


# ---------------------------------------------------------------------------
# sup distance


def test_sup_distance_frozen_triangles():
    d = validate(_labels(3), np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], float))
    e = validate(_labels(3), np.array([[0, 2, 5], [2, 0, 3], [5, 3, 0]], float))
    got = sup_distance(d, e)
    assert got == orc.FROZEN["sup_triangles"] == orc.sup_dist(d.matrix, e.matrix)


def test_sup_distance_is_a_metric_on_random_triples():
    rng = trial_rng(12, 0)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        d = random_space("closure", n, rng)
        e = random_space("closure", n, rng)
        f = random_space("closure", n, rng)
        assert sup_distance(d, d) == 0.0
        assert sup_distance(d, e) == sup_distance(e, d)
        assert (
            sup_distance(d, f)
            <= sup_distance(d, e) + sup_distance(e, f)
        )


def test_sup_distance_requires_shared_labels():
    d = validate(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    e = validate(("b", "a"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(LabelMismatch):
        sup_distance(d, e)


def test_sup_distance_matches_oracle_on_random_pairs():
    rng = trial_rng(13, 0)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        d = random_space("closure", n, rng)
        e = random_space("points_linf", n, rng)
        assert sup_distance(d, e) == orc.sup_dist(d.matrix, e.matrix)


# ---------------------------------------------------------------------------
# ultra distance over a range set


def test_ultra_distance_zero_on_equal_inputs():
    S = geometric_range_set(0.5)
    d = random_s_ultrametric(8, S, trial_rng(14, 0))
    assert ultra_distance(d, d, S) == 0.0


def test_ultra_distance_frozen_pair_2_3_rounds_up_to_4():
    # values 2 and 3 sit outside S = {0, 1, 4, 8}, so the library rejects
    # them; the definitional scan rounds M = 3 up to the least S element
    # 4 (eps = 1 fails the pairwise envelope inequalities, eps = 4
    # satisfies them).
    S = explicit_range_set([0.0, 1.0, 4.0, 8.0])
    d = validate(("a", "b"), np.array([[0.0, 2.0], [2.0, 0.0]]), flavor="ultrametric")
    e = validate(("a", "b"), np.array([[0.0, 3.0], [3.0, 0.0]]), flavor="ultrametric")
    with pytest.raises(ValueOutsideRangeSet):
        ultra_distance(d, e, S)
    got = orc.ultra_dist(d.matrix, e.matrix, [0.0, 1.0, 4.0, 8.0])
    assert got == orc.FROZEN["ultra_single_pair"]


def test_ultra_distance_is_infinite_past_the_top_of_s():
    # 8 + 4e-9 lies within the validation slack of 8 = max S, so it is
    # admitted, yet no element of S covers it
    S = explicit_range_set([0.0, 1.0, 4.0, 8.0])
    d = validate(("a", "b"), np.array([[0.0, 8.0], [8.0, 0.0]]), flavor="ultrametric")
    top = 8.0 * (1 + spaces.DEFAULT_TOL / 2)
    e = validate(("a", "b"), np.array([[0.0, top], [top, 0.0]]), flavor="ultrametric")
    assert ultra_distance(d, e, S) == np.inf
    assert orc.ultra_dist(d.matrix, e.matrix, [0.0, 1.0, 4.0, 8.0]) == np.inf


def _random_explicit_ultrametric(values, depth, rng):
    from metriclab.cantor import _valuation_matrix, BinaryPointSet

    positive = sorted(v for v in values if v > 0)
    rungs = sorted(rng.choice(positive, size=depth, replace=False), reverse=True)
    table = np.append(np.asarray(rungs, dtype=float), 0.0)
    matrix = table[_valuation_matrix(depth)]
    return validate(BinaryPointSet(depth).labels, matrix, flavor="ultrametric")


def test_ultra_distance_closed_form_equals_brute_scan():
    values = [0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0]
    S = explicit_range_set(values)
    rng = trial_rng(15, 0)
    for _ in range(40):
        d = _random_explicit_ultrametric(values, 3, rng)
        e = _random_explicit_ultrametric(values, 3, rng)
        assert ultra_distance(d, e, S) == orc.ultra_dist(d.matrix, e.matrix, values)


def test_ultra_distance_strong_triangle_on_random_triples():
    values = [0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0]
    S = explicit_range_set(values)
    rng = trial_rng(16, 0)
    for _ in range(25):
        d = _random_explicit_ultrametric(values, 3, rng)
        e = _random_explicit_ultrametric(values, 3, rng)
        f = _random_explicit_ultrametric(values, 3, rng)
        df = ultra_distance(d, f, S)
        de = ultra_distance(d, e, S)
        ef = ultra_distance(e, f, S)
        assert df <= max(de, ef)


def test_ultra_distance_requires_ultrametric_flavor():
    S = explicit_range_set([0.0, 1.0])
    d = validate(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    e = validate(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), flavor="ultrametric")
    with pytest.raises(NotUltrametric):
        ultra_distance(d, e, S)


def test_ultra_distance_rejects_off_s_values():
    S = explicit_range_set([0.0, 1.0])
    d = validate(("a", "b"), np.array([[0.0, 0.7], [0.7, 0.0]]), flavor="ultrametric")
    e = validate(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), flavor="ultrametric")
    with pytest.raises(ValueOutsideRangeSet):
        ultra_distance(d, e, S)


# ---------------------------------------------------------------------------
# shortest-path closure


def test_closure_shortcuts_a_long_edge():
    raw = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    repaired = metric_closure(_labels(3), raw)
    assert repaired.matrix[0, 2] == 2.0


def test_closure_is_identity_on_metrics():
    rng = trial_rng(17, 0)
    for _ in range(10):
        space = random_space("closure", 8, rng)
        again = metric_closure(space.labels, space.matrix)
        assert np.array_equal(again.matrix, space.matrix)


def test_closure_matches_all_paths_oracle():
    rng = trial_rng(18, 0)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        raw = _symmetric_raw(rng, n)
        repaired = metric_closure(_labels(n), raw)
        brute = orc.closure_by_paths(raw)
        scale = raw.max()
        assert np.abs(repaired.matrix - brute).max() <= 1e-12 * scale
        assert (repaired.matrix <= raw + 1e-12 * scale).all()


def test_closure_is_the_k_outer_recurrence_bit_for_bit():
    # pins the in-place k-outer loop: a C shortest-path routine need not
    # agree (scipy's dense floyd_warshall reads 1e-300 entries as missing
    # edges and returns inf)
    rng = trial_rng(70, 0)
    for n in (2, 5, 12, 24):
        spread = _symmetric_raw(rng, n, lo=0.1, hi=10.0)
        tied = rng.integers(1, 4, (n, n)).astype(float)
        tied = tied + tied.T
        np.fill_diagonal(tied, 0.0)
        for raw in (spread, tied):
            for scale in (1.0, 1e300, 1e-300):
                repaired = metric_closure(_labels(n), raw * scale)
                assert repaired.matrix.tobytes() == orc.closure_by_loops(raw * scale).tobytes()
    # closure hosts' raw entries: at these sizes some steps update the whole
    # matrix in place, the others gather the live rows, and about half of
    # the (row, k) updates are skipped
    for n in (64, 128):
        raw = _symmetric_raw(rng, n)
        repaired = metric_closure(_labels(n), raw)
        assert repaired.matrix.tobytes() == orc.closure_by_loops(raw).tobytes()
    raw = _symmetric_raw(rng, 300)
    repaired = metric_closure(_labels(300), raw)
    assert repaired.matrix.tobytes() == orc.closure_by_full_steps(raw).tobytes()


def test_closure_keeps_a_one_ulp_shortcut_through_the_least_entry():
    # d(1, 2) = 0.5 is the least entry and d(0, 2) exceeds d(0, 1) + d(1, 2)
    # by one ulp, so step 1 must shorten d(0, 2) (and d(2, 0)), and nothing
    # else ever changes.  Points 3-7 sit at 1.25 from everything, so step 1
    # gathers rows 0-2 only; fl(d(0, 1) + L) = 1.5 < R_0 keeps row 0 among
    # them, where L = 1.0, the second-least entry, would skip it.
    top = np.nextafter(1.5, np.inf)
    raw = np.full((8, 8), 1.25)
    raw[:3, :3] = [[0.0, 1.0, top], [1.0, 0.0, 0.5], [top, 0.5, 0.0]]
    np.fill_diagonal(raw, 0.0)
    repaired = metric_closure(_labels(8), raw)
    assert repaired.matrix.tobytes() == orc.closure_by_loops(raw).tobytes()
    assert np.argwhere(repaired.matrix != raw).tolist() == [[0, 2], [2, 0]]
    assert repaired.matrix[0, 2] == 1.5


def test_closure_returns_a_narrow_metric_unchanged():
    # entries in [1, 1.5]: fl(d(i, k) + L) >= 2 > R_i, so step k skips every
    # row but row k itself, whose update is the identity
    rng = trial_rng(71, 0)
    raw = _symmetric_raw(rng, 40, lo=1.0, hi=1.5)
    repaired = metric_closure(_labels(40), raw)
    assert repaired.matrix.tobytes() == raw.tobytes()


def test_closure_edge_sizes_and_overflowing_sums():
    assert metric_closure(_labels(1), [[0.0]]).matrix.tobytes() == np.zeros((1, 1)).tobytes()
    # near the top of the float range, d(i, k) + L overflows to inf for the
    # larger entries while the shortcuts between smaller ones stay finite
    rng = trial_rng(71, 1)
    raw = _symmetric_raw(rng, 24, lo=0.3, hi=1.7) * 1e308
    assert float(raw.max()) + float(raw[raw > 0].min()) == np.inf
    repaired = metric_closure(_labels(24), raw)
    assert (repaired.matrix < raw).any()
    assert repaired.matrix.tobytes() == orc.closure_by_loops(raw).tobytes()


def test_closure_output_can_break_the_triangle_by_an_ulp():
    # the rounded recurrence leaves d(39, 61) one ulp above
    # fl(d(39, 2) + d(2, 61)): a metric within the validation slack only
    space = random_space("closure", 64, trial_rng(7, 64))
    m = space.matrix
    assert m[39, 61] == 1.5861219745809483
    assert m[39, 2] + m[2, 61] == 1.586121974580948
    violation = diagnose(space.labels, m, tol=0.0)
    assert (violation.axiom, violation.indices) == ("triangle", (39, 61, 2))
    assert diagnose(space.labels, m, tol=spaces.DEFAULT_TOL) is None


def test_closure_input_guards():
    with pytest.raises(NonzeroDiagonal):
        metric_closure(_labels(2), np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(AsymmetricMatrix):
        metric_closure(_labels(2), np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ZeroOffDiagonal):
        metric_closure(_labels(2), np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(NonpositiveOffDiagonal):
        metric_closure(_labels(2), np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        metric_closure(_labels(2), np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_closure_names_a_zero_entry_before_an_earlier_negative_one():
    raw = np.array([[0.0, -1.0, 2.0], [-1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ZeroOffDiagonal, match=r"\(1,2\) = 0.0"):
        metric_closure(_labels(3), raw)
    raw[1, 2] = raw[2, 1] = 3.0
    with pytest.raises(NonpositiveOffDiagonal, match=r"\(0,1\) = -1.0 <= 0") as info:
        metric_closure(_labels(3), raw)
    assert info.value.indices == (0, 1)
    assert metric_closure(_labels(2), [[0.0, 1.0], [1.0, 0.0]]).matrix[0, 1] == 1.0


# ---------------------------------------------------------------------------
# JSON forms


def test_space_json_round_trip_is_bit_exact():
    rng = trial_rng(19, 0)
    for mode, flavor in (("closure", "metric"), ("sequential", "ultrametric")):
        space = random_space(mode, 7, rng)
        back = space_from_json(space_to_json(space))
        assert back.labels == space.labels
        assert back.flavor == flavor
        assert np.array_equal(back.matrix, space.matrix)


def test_space_from_json_rejects_malformed_objects():
    with pytest.raises(ValueError):
        space_from_json({"matrix": [[0.0]]})
    with pytest.raises(ValueError):
        space_from_json({"labels": ["a"], "matrix": "nope"})
