"""Pipeline outputs certified by their construction.

The sum-form amalgam and the max-norm matrices skip the cubic triangle
check when the construction proves it.  These tests plant the faults a
wrong certificate would let through, and pin that every certified
output is what the full validation returns.
"""

import json

import numpy as np
import pytest

from metriclab import (
    ClopenPartition,
    DegenerateSpace,
    TooFewPoints,
    TriangleViolation,
    amalgamate_metric,
    approximate_doubling,
    approximate_ud,
    approximate_up,
    carve_pieces,
    greedy_net,
    random_space,
    space_to_json,
    validate,
)
from metriclab import spaces
from metriclab.cli import main
from metriclab.spaces import DEFAULT_TOL, FiniteMetricSpace, diagnose

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
