"""Outputs certified by their construction.

The sum-form amalgam, the max-norm matrices, the middle-third prefix
metric and the shortest-path closure skip the cubic triangle check when
the construction proves it; rung ladders and max-form amalgams of them
are marked exact ultrametrics, so their bottleneck is their own matrix.
These tests plant the faults a wrong certificate would let through, and
pin that every certified output is what the full validation returns.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import (
    ClopenPartition,
    DegenerateSpace,
    MetricLabError,
    StrongTriangleViolation,
    TooFewPoints,
    TriangleViolation,
    amalgamate_metric,
    amalgamate_ultrametric,
    approximate_doubling,
    approximate_ud,
    approximate_up,
    bottleneck_matrix,
    cantor_prefix_metric,
    carve_pieces,
    geometric_prefix_ultrametric,
    geometric_range_set,
    greedy_net,
    metric_closure,
    random_s_ultrametric,
    random_space,
    space_to_json,
    trial_rng,
    validate,
)
from metriclab import build, spaces
from metriclab.build import _relabel
from metriclab.cantor import (
    _ladder_space,
    _prefix_labels,
    _rung_matrix,
    _s_ladder_space,
    _string_depth,
    cantor_numerators,
)
from metriclab.cli import main
from metriclab.spaces import (
    DEFAULT_TOL,
    METRIC,
    ULTRAMETRIC,
    FiniteMetricSpace,
    _closure_certified,
    _subdominant_ultrametric,
    diagnose,
)

import oracles as orc


def _amalgam_case(host: np.ndarray, pieces, basepoints, piece_matrices):
    """Unvalidated host and pieces, and the diagnosis of their amalgam."""
    labels = tuple(f"x{k}" for k in range(host.shape[0]))
    d = FiniteMetricSpace(labels, host)
    partition = ClopenPartition(pieces, basepoints)
    metrics = [
        FiniteMetricSpace(tuple(labels[i] for i in piece), matrix)
        for piece, matrix in zip(partition.pieces, piece_matrices)
    ]
    assembled = orc.sum_form_by_loops(host, partition.pieces, partition.basepoints, piece_matrices)
    return d, partition, metrics, diagnose(labels, assembled)


def _line(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    return np.abs(pos[:, None] - pos[None, :])


def _assert_scan_verdict(d, partition, metrics, expected):
    assert isinstance(expected, TriangleViolation)
    with pytest.raises(TriangleViolation) as caught:
        amalgamate_metric(d, partition, metrics)
    assert caught.value.indices == expected.indices
    assert str(caught.value) == str(expected)


def test_a_piece_that_breaks_its_triangle_inequality_is_rejected():
    host = _line(np.arange(9) * 10.0)
    bad = _line([0.0, 1.0, 2.0])
    bad[0, 2] = bad[2, 0] = 5.0
    pieces = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    case = _amalgam_case(host, pieces, (0, 3, 6), [_line([0, 1, 2]), bad, _line([0, 1, 2])])
    _assert_scan_verdict(*case)


def test_only_the_second_of_three_same_size_pieces_is_broken():
    # same size, same first rows: a check keyed on the size alone reads
    # the first or the last piece of that size, both good
    host = _line(np.arange(12) * 10.0)
    good = _line([0.0, 1.0, 2.0, 3.0])
    bad = good.copy()
    bad[1, 3] = bad[3, 1] = 2.5
    bad[0, 3] = bad[3, 0] = 3.5
    assert diagnose(tuple("abcd"), bad) is not None
    pieces = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
    case = _amalgam_case(host, pieces, (0, 4, 8), [good, bad, good])
    _assert_scan_verdict(*case)


def test_a_lowered_basepoint_entry_is_rejected():
    # the pieces are valid; only the host's block on the basepoints is not
    host = _line(np.arange(9) * 10.0)
    host[0, 3] = host[3, 0] = 2.0  # d(0, 6) = 60 > 2 + 30, far past the slack
    pieces = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    case = _amalgam_case(host, pieces, (0, 3, 6), [_line([0, 1, 2])] * 3)
    _assert_scan_verdict(*case)


def test_a_piece_short_by_the_full_slack_is_rejected():
    # The arm x -> p misses the piece's triangle inequality by exactly the
    # amalgam's slack s, which the scan at s lets through within the
    # piece; across pieces the rounding of the sums pushes triple (1, 3, 2)
    # past s.  Checking pieces at s / 2 catches it, checking them at s
    # does not.  The three numbers come from a seeded search.
    c, e, b = 0.3305350192851031, 0.1653925137834889, 1008.9457104484876
    slack = DEFAULT_TOL * 3000.0  # the amalgam's max entry is d(q, w) = 3000
    arm = (c + e) + slack
    piece = np.array([[0.0, arm, e], [arm, 0.0, c], [e, c, 0.0]])
    assert spaces._first_triangle_violation(piece, slack, strong=False) is None
    host = np.full((5, 5), 1.0)
    host[0, 3] = host[3, 0] = b
    host[0, 4] = host[4, 0] = 2000.0
    host[3, 4] = host[4, 3] = 3000.0
    np.fill_diagonal(host, 0.0)
    pieces = ((0, 1, 2), (3,), (4,))
    case = _amalgam_case(host, pieces, (0, 3, 4), [piece, np.zeros((1, 1)), np.zeros((1, 1))])
    assert case[-1].indices == (1, 3, 2)
    _assert_scan_verdict(*case)


@pytest.mark.parametrize("seed", range(12))
def test_amalgam_verdicts_match_the_scan_on_planted_faults(seed):
    # one piece entry or one basepoint entry of the host is scaled by a
    # factor around 1 + the slack; the amalgam must pass or fail exactly
    # as diagnose does on the assembled matrix, with its witness
    rng = np.random.default_rng(seed)
    host = random_space(("closure", "points_linf")[seed % 2], 30, seed).matrix.copy()
    d = FiniteMetricSpace(tuple(f"x{k}" for k in range(30)), host)
    partition = carve_pieces(d, float(host.max()) / 3)
    matrices = [_line(rng.uniform(0.0, 0.2, size=len(piece))) for piece in partition.pieces]
    for _ in range(8):
        factor = 1 + float(rng.choice([-1, 1])) * float(rng.choice([1e-10, 1e-9, 1e-6, 0.5]))
        big = [k for k, piece in enumerate(partition.pieces) if len(piece) >= 3]
        if big and rng.random() < 0.5:
            m = matrices[int(rng.choice(big))]
            i, j = rng.choice(len(m), size=2, replace=False)
            m[i, j] = m[j, i] = m[i, j] * factor
        else:
            p, q = rng.choice(partition.basepoints, size=2, replace=False)
            host[p, q] = host[q, p] = host[p, q] * factor
        d, part, metrics, expected = _amalgam_case(
            host, partition.pieces, partition.basepoints, matrices
        )
        if expected is None:
            out = amalgamate_metric(d, part, metrics)
            assembled = orc.sum_form_by_loops(host, part.pieces, part.basepoints, matrices)
            assert out.matrix.tobytes() == assembled.tobytes()
        else:
            _assert_scan_verdict(d, part, metrics, expected)


@pytest.fixture
def cubic_calls(monkeypatch):
    """Shapes of the matrices handed to the Chebyshev certificate and to
    the triangle scan."""
    shapes = []
    pdist, scan = spaces.pdist, spaces._first_triangle_violation

    def spy_pdist(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return pdist(m, *args, **kwargs)

    def spy_scan(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return scan(m, *args, **kwargs)

    monkeypatch.setattr(spaces, "pdist", spy_pdist)
    monkeypatch.setattr(spaces, "_first_triangle_violation", spy_scan)
    return shapes


def test_max_norm_outputs_make_no_full_size_check(cubic_calls):
    n = 48
    host = random_space("points_linf", n, 3)
    out, _ = approximate_doubling(host, host.diameter / 8)
    approximate_up(host, host.diameter / 8)
    assert (n, n) not in cubic_calls
    validate(out.labels, out.matrix)
    assert cubic_calls.count((n, n)) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pipelines_at_edge_sizes_and_scales_return_what_validate_returns(n, scale, monkeypatch):
    host_matrix = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 2.0], [1.5, 2.0, 0.0]])[:n, :n] * scale
    host = validate(tuple(f"h{k}" for k in range(n)), host_matrix)
    fallbacks = []
    full_validate = spaces.validate

    def spy_validate(labels, matrix, *args, **kwargs):
        fallbacks.append(np.shape(matrix))
        return full_validate(labels, matrix, *args, **kwargs)

    monkeypatch.setattr(spaces, "validate", spy_validate)
    for fraction in (0.1, 0.6, 3.0):
        eps = fraction * scale
        outputs = [approximate_doubling(host, eps)[0]]
        if n < 2:  # the UD modulus and the UP pipeline need two points
            with pytest.raises(DegenerateSpace):
                approximate_ud(host, eps)
            with pytest.raises(TooFewPoints):
                approximate_up(host, eps)
        else:
            outputs += [approximate_ud(host, eps)[0], approximate_up(host, eps)[0]]
        for out in outputs:
            again = full_validate(out.labels, out.matrix)
            assert out.labels == again.labels == host.labels
            assert out.flavor == again.flavor
            assert out.matrix.tobytes() == again.matrix.tobytes()
    if scale == 1e-300 and n > 1:
        # the slack is subnormal: the guard declines and the scan decides
        assert (n, n) in fallbacks


@pytest.mark.parametrize("eps", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_a_non_finite_or_nonpositive_eps_is_rejected(eps):
    host = random_space("points_linf", 8, 0)
    for fn in (greedy_net, carve_pieces, approximate_ud, approximate_up, approximate_doubling):
        with pytest.raises(ValueError, match="^eps must be positive and finite$"):
            fn(host, eps)


@pytest.mark.parametrize("prop", ["doubling", "ud", "up"])
@pytest.mark.parametrize("flags", [["inf"], ["nan"], ["inf", "--fraction"]])
def test_cli_approximate_names_a_non_finite_epsilon(tmp_path, capsys, prop, flags):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json(random_space("points_linf", 8, 0))), encoding="utf-8")
    assert main(["approximate", str(path), "--property", prop, "--epsilon", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eps must be positive and finite\n"


# ---------------------------------------------------------------------------
# exact ultrametrics and the closure certificate


def _outcome(build_space):
    """What building a space gives: its labels, flavor and bytes, or the
    type, message and witness of the error it raises."""
    try:
        space = build_space()
    except (ValueError, MetricLabError) as exc:
        return type(exc), str(exc), getattr(exc, "indices", None)
    return space.labels, space.flavor, space.matrix.tobytes()


def _assert_bottleneck_is_the_subdominant(space):
    bottleneck = bottleneck_matrix(space)
    assert bottleneck.tobytes() == _subdominant_ultrametric(space.matrix).tobytes()
    assert bottleneck.flags.writeable
    assert not np.shares_memory(bottleneck, space.matrix)


@st.composite
def rung_cases(draw):
    """Rungs of 1-5 levels at one of three scales: strictly decreasing,
    with a tie, increasing, or with one 0, inf or NaN; and a count."""
    depth = draw(st.integers(min_value=1, max_value=5))
    scale = draw(st.sampled_from([1e-300, 1.0, 1e300]))
    unit = st.floats(min_value=0.01, max_value=1.0)
    rungs = [scale * r for r in draw(st.lists(unit, min_size=depth, max_size=depth, unique=True))]
    rungs.sort(reverse=True)
    kind = draw(st.sampled_from(["decreasing", "tied", "increasing", "0", "inf", "nan"]))
    if kind == "tied" and depth > 1:
        k = draw(st.integers(min_value=1, max_value=depth - 1))
        rungs[k] = rungs[k - 1]
    elif kind == "increasing":
        rungs.reverse()
    elif kind in ("0", "inf", "nan"):
        rungs[draw(st.integers(min_value=0, max_value=depth - 1))] = float(kind)
    return rungs, draw(st.integers(min_value=1, max_value=1 << depth))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rung_cases())
def test_a_rung_ladder_is_what_validate_returns(case):
    rungs, count = case
    labels = _prefix_labels(count, len(rungs))
    full = _outcome(lambda: validate(labels, _rung_matrix(rungs, count), flavor=ULTRAMETRIC))
    assert _outcome(lambda: _ladder_space(rungs, labels)) == full
    decreasing = all(a > b for a, b in zip(rungs, rungs[1:]))
    if decreasing and all(0 < r < math.inf for r in rungs):
        space = _ladder_space(rungs, labels)
        assert space._exact
        _assert_bottleneck_is_the_subdominant(space)


def test_increasing_rungs_raise_the_strong_triangle_witness():
    labels = _prefix_labels(4, 2)
    expected = diagnose(labels, _rung_matrix([0.25, 0.5], 4), flavor=ULTRAMETRIC)
    assert isinstance(expected, StrongTriangleViolation)
    with pytest.raises(StrongTriangleViolation) as caught:
        _ladder_space([0.25, 0.5], labels)
    assert (str(caught.value), caught.value.indices) == (str(expected), expected.indices)


def _marked_spaces():
    S = geometric_range_set(0.5)
    host = random_s_ultrametric(40, S, trial_rng(5, 0))
    yield host
    yield random_space("sequential", 23, trial_rng(5, 1))
    yield geometric_prefix_ultrametric(13, 1e-300)
    yield geometric_prefix_ultrametric(9, 1e300)
    yield _s_ladder_space(("x",), 1.0, S)
    yield _relabel(host, [f"y{k}" for k in range(host.n)])
    for eps in (2.0 ** -12, 0.125, 2.0):
        yield approximate_ud(host, eps, S=S)[0]


def test_every_marked_space_has_its_subdominant_as_bottleneck():
    for space in _marked_spaces():
        assert space._exact and space.flavor == ULTRAMETRIC
        again = validate(space.labels, space.matrix, flavor=ULTRAMETRIC)
        assert again.matrix.tobytes() == space.matrix.tobytes()
        _assert_bottleneck_is_the_subdominant(space)


def _tolerant_ultrametric():
    """An S-valued ultrametric but for one diameter pair raised by 1e-12:
    validate passes it within the slack, leaving it unmarked, and it is
    not its own subdominant."""
    exact = random_s_ultrametric(16, geometric_range_set(0.5), trial_rng(9, 0))
    m = exact.matrix.copy()
    m[0, 15] = m[15, 0] = m[0, 15] * (1 + 1e-12)
    space = validate(exact.labels, m, flavor=ULTRAMETRIC)
    assert not space._exact
    assert not np.array_equal(_subdominant_ultrametric(m), m)
    return space


def test_relabelling_keeps_the_mark_and_adds_none():
    space = _tolerant_ultrametric()
    relabelled = _relabel(space, [f"y{k}" for k in range(space.n)])
    assert not relabelled._exact
    _assert_bottleneck_is_the_subdominant(relabelled)
    marked = random_s_ultrametric(16, geometric_range_set(0.5), trial_rng(9, 0))
    assert _relabel(marked, marked.labels)._exact


def _singleton_pieces(host, S):
    partition = ClopenPartition(tuple((k,) for k in range(host.n)), tuple(range(host.n)))
    return partition, [_s_ladder_space((label,), 1.0, S) for label in host.labels]


def test_a_marked_max_form_amalgam_is_what_validate_returns(monkeypatch):
    S = geometric_range_set(0.5)
    host = random_s_ultrametric(32, S, trial_rng(3, 0))
    partition = carve_pieces(host, 0.3)
    pieces = [_s_ladder_space([host.labels[i] for i in p], 0.125, S) for p in partition.pieces]
    assert host._exact and all(piece._exact for piece in pieces)
    calls = []
    monkeypatch.setattr(build, "validate", lambda *args, **kwargs: calls.append(args))
    out = amalgamate_ultrametric(host, partition, pieces, S)
    assert calls == [] and out._exact
    again = validate(out.labels, out.matrix, flavor=ULTRAMETRIC)
    assert (out.labels, out.flavor, out.matrix.tobytes()) == (
        again.labels, again.flavor, again.matrix.tobytes()
    )


def test_an_unmarked_host_still_takes_validate(monkeypatch):
    S = geometric_range_set(0.5)
    host = _tolerant_ultrametric()
    partition, pieces = _singleton_pieces(host, S)
    calls = []
    full = build.validate

    def spy(labels, matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return full(labels, matrix, *args, **kwargs)

    monkeypatch.setattr(build, "validate", spy)
    out = amalgamate_ultrametric(host, partition, pieces, S)
    assert calls == [(host.n, host.n)] and not out._exact
    _assert_bottleneck_is_the_subdominant(out)


def test_an_unmarked_host_that_breaks_the_strong_triangle_is_rejected():
    # S-valued and a metric, but d(0, 1) = 0.5 > max(d(0, 2), d(2, 1)) = 0.25,
    # built without validation: only validate can catch it
    S = geometric_range_set(0.5)
    m = np.array([[0.0, 0.5, 0.25], [0.5, 0.0, 0.25], [0.25, 0.25, 0.0]])
    host = FiniteMetricSpace(("a", "b", "c"), m, ULTRAMETRIC)
    partition, pieces = _singleton_pieces(host, S)
    expected = diagnose(host.labels, m, flavor=ULTRAMETRIC)
    with pytest.raises(StrongTriangleViolation) as caught:
        amalgamate_ultrametric(host, partition, pieces, S)
    assert (str(caught.value), caught.value.indices) == (str(expected), expected.indices)


def test_marked_pieces_skip_the_sum_form_check(monkeypatch):
    # the UD pieces are marked ladders: only the basepoint block is checked
    host = random_space("points_linf", 64, trial_rng(4, 0))
    checked = []
    holds = build._triangle_holds
    monkeypatch.setattr(
        build, "_triangle_holds", lambda m, slack: checked.append(m.shape) or holds(m, slack)
    )
    out, _ = approximate_ud(host, host.diameter / 4)
    assert out.matrix.tobytes() == validate(out.labels, out.matrix).matrix.tobytes()
    partition = carve_pieces(host, host.diameter / 4)
    assert max(len(piece) for piece in partition.pieces) > 2
    assert checked == [(len(partition.pieces),) * 2]


@pytest.mark.parametrize(
    "scale", [1e-320, 1e-310, 1e-300, 4.5e-299, 1.0, 1e300, np.finfo(float).max]
)
@pytest.mark.parametrize("count, depth", [(1, None), (2, None), (5, None), (16, None), (6, 12)])
def test_cantor_prefix_metric_at_extreme_scales_is_what_validate_returns(count, depth, scale):
    built = _outcome(lambda: cantor_prefix_metric(count, scale=scale, depth=depth))
    depth = depth or _string_depth(count)
    labels = _prefix_labels(count, depth)
    t = cantor_numerators(depth)[:count]
    matrix = (scale / 3.0**depth) * np.abs(t[:, None] - t[None, :]).astype(float)
    assert built == _outcome(lambda: validate(labels, matrix, flavor=METRIC))


def test_the_closure_certificate_refuses_below_its_bound():
    u = 2.0**-53
    for top in (1.0, 1e-290, 1e300):
        slack = DEFAULT_TOL * top
        largest = math.floor(slack / top / (4.01 * u)) - 1
        assert _closure_certified(largest - 10, top, slack)
        assert not _closure_certified(largest + 10, top, slack)
        assert not _closure_certified(3_000_000, top, slack)
    for n in (2, 10, 1000):  # a slack just below 4.01 (n + 1) u top fails at every n
        need = 4.01 * (n + 1) * u
        assert _closure_certified(n, 1.0, need * (1 + 1e-9))
        assert not _closure_certified(n, 1.0, need * (1 - 1e-9))


@pytest.mark.parametrize("scale", [1e-290, 1.0, 1e290])
@pytest.mark.parametrize("n", [2, 24, 96])
def test_no_closure_output_breaks_the_bound_its_certificate_proves(n, scale, cubic_calls):
    # the proof's claim itself: the scan at 4.01 (n + 1) u M, far below the
    # validation slack, flags no triple of the rounded recurrence, and the
    # certified output is what validate returns without a cubic check there
    for seed in range(4):
        raw = np.triu(trial_rng(seed, n).uniform(0.5, 2.0, size=(n, n)), k=1) * scale
        raw = raw + raw.T
        labels = tuple(f"p{k}" for k in range(n))
        cubic_calls.clear()
        out = metric_closure(labels, raw)
        assert cubic_calls == []
        top = float(out.matrix.max())
        assert spaces._first_triangle_violation(out.matrix, 4.01 * (n + 1) * 2.0**-53 * top, False) is None
        assert out.matrix.tobytes() == validate(labels, out.matrix).matrix.tobytes()
