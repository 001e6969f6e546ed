"""The three moduli (doubling, disconnectedness, perfectness) and classify."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from metriclab import moduli
from metriclab import (
    BadScaleCutoff,
    DegenerateSpace,
    FiniteMetricSpace,
    Thresholds,
    bottleneck_matrix,
    classify,
    doubling_constant,
    geometric_range_set,
    random_s_ultrametric,
    random_space,
    trial_rng,
    ud_modulus,
    up_constant,
    validate,
)
from metriclab.cantor import geometric_prefix_ultrametric, sequential_metric
from metriclab.lab import _progression_space, _uniform_space
from metriclab.moduli import (
    EXHAUSTIVE_LIMIT,
    doubling_report_to_json,
    type_vector_to_json,
    ud_report_to_json,
    up_report,
    up_report_to_json,
)
from metriclab.rangesets import ShrinkingSequence

UP_ORACLE_TOL = 1e-6  # pinned by the acceptance table


# ---------------------------------------------------------------------------
# doubling constant


def test_doubling_exhaustive_matches_brute_force_exactly():
    rng = trial_rng(30, 0)
    for _ in range(20):
        n = int(rng.integers(3, 11))
        mode = "closure" if rng.integers(2) else "points_linf"
        space = random_space(mode, n, rng)
        for beta in (1.0, 2.0):
            report = doubling_constant(space, beta)
            brute_constant, brute_witness = orc.doubling_by_subsets(space.matrix, beta)
            assert report.mode == "exhaustive"
            assert report.constant == brute_constant
            assert report.witness == brute_witness


def test_doubling_frozen_values():
    uniform = _uniform_space(8)
    assert doubling_constant(uniform, 1.0).constant == orc.FROZEN[
        "doubling_uniform_n8_beta1"
    ]
    progression = _progression_space(9)
    assert doubling_constant(progression, 1.0).constant == orc.FROZEN[
        "doubling_progression_beta1"
    ]


def _doubling_ratio(space, witness, beta):
    """card(A) * (sep(A) / diam(A))**beta, gathered from the witness block."""
    block = space.matrix[np.ix_(witness, witness)]
    off = block[~np.eye(len(witness), dtype=bool)]
    return len(witness) * (float(off.min()) / float(off.max())) ** beta


def test_doubling_witness_identity_round_trips():
    rng = trial_rng(31, 0)
    for _ in range(10):
        space = random_space("closure", 9, rng)
        for beta in (1.0, 2.0):
            report = doubling_constant(space, beta)
            assert _doubling_ratio(space, list(report.witness), beta) == report.constant


def test_doubling_sampled_mode():
    rng = trial_rng(32, 0)
    space = random_space("closure", EXHAUSTIVE_LIMIT + 5, rng)
    report = doubling_constant(space, 2.0, budget=500, rng=7)
    again = doubling_constant(space, 2.0, budget=500, rng=7)
    assert report.mode == "sampled"
    assert report.constant >= 2.0  # every pair realizes exactly 2
    assert (report.constant, report.witness) == (again.constant, again.witness)
    # the sampled search still realizes its own witness
    assert _doubling_ratio(space, list(report.witness), 2.0) == report.constant


def test_doubling_guards():
    lone = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    with pytest.raises(DegenerateSpace):
        doubling_constant(lone, 2.0)
    pair = validate(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        doubling_constant(pair, 0.0)


# ---------------------------------------------------------------------------
# bottleneck matrix and the disconnectedness modulus


def test_bottleneck_matches_chain_oracle_exactly():
    rng = trial_rng(33, 0)
    for k in range(40):
        n = int(rng.integers(2, 9))
        mode = "closure" if k % 2 else "points_linf"
        space = random_space(mode, n, rng)
        assert np.array_equal(bottleneck_matrix(space), orc.bottleneck_by_paths(space.matrix))


def test_bottleneck_values_come_from_the_matrix():
    rng = trial_rng(34, 0)
    space = random_space("closure", 10, rng)
    bottleneck = bottleneck_matrix(space)
    entries = set(space.matrix.ravel().tolist())
    assert set(bottleneck.ravel().tolist()) <= entries


def test_bottleneck_is_identity_on_ultrametrics():
    # under the strong triangle inequality no chain beats the direct edge
    rng = trial_rng(35, 0)
    space = random_space("sequential", 16, rng)
    assert np.array_equal(bottleneck_matrix(space), space.matrix)


def test_bottleneck_single_point():
    lone = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    assert np.array_equal(bottleneck_matrix(lone), np.zeros((1, 1)))


def test_ud_modulus_progression_is_one_over_n_minus_one():
    for n in (8, 33):
        report = ud_modulus(_progression_space(n))
        assert report.delta_star == 1.0 / (n - 1)
        assert report.witness_pair == (0, n - 1)


def test_ud_modulus_is_one_exactly_on_ultrametrics():
    rng = trial_rng(36, 0)
    space = random_space("sequential", 12, rng)
    assert ud_modulus(space).delta_star == 1.0


def test_ud_modulus_witness_identity():
    rng = trial_rng(37, 0)
    for _ in range(10):
        space = random_space("closure", 9, rng)
        report = ud_modulus(space)
        i, j = report.witness_pair
        assert report.bottleneck[i, j] / space.matrix[i, j] == report.delta_star
        assert report.delta_star <= 1.0
    lone = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    with pytest.raises(DegenerateSpace):
        ud_modulus(lone)


def test_ud_modulus_witness_is_the_first_strict_minimum():
    rng = trial_rng(39, 0)
    cases = [random_space("closure", int(rng.integers(2, 8)), rng) for _ in range(12)]
    cases += [_progression_space(n) for n in (2, 3, 5, 7)]
    cases.append(validate(("a", "b"), np.array([[0.0, 0.3], [0.3, 0.0]])))
    for space in cases:
        report = ud_modulus(space)
        expected = orc.ud_witness_by_loops(space.matrix, orc.bottleneck_by_paths(space.matrix))
        assert (report.delta_star, report.witness_pair) == expected
    # every pair of an ultrametric ties at ratio 1: its bottleneck is itself
    ultra = random_space("sequential", 16, rng)
    report = ud_modulus(ultra)
    assert orc.ud_witness_by_loops(ultra.matrix, ultra.matrix) == (1.0, (0, 1))
    assert (report.delta_star, report.witness_pair) == (1.0, (0, 1))


@pytest.mark.parametrize(
    "mode, seed, beta, constant, witness",
    [
        ("points_linf", 38, 1.0, 2.5015410387747417, (11, 24, 38)),
        ("points_linf", 38, 2.0, 2.0859025228914048, (11, 24, 38)),
        ("closure", 40, 2.0, 3.5865021257340635, (16, 19, 26, 27, 37)),
    ],
)
def test_doubling_sampled_report_is_pinned(mode, seed, beta, constant, witness):
    # each witness comes from the random subsets: budget=0 scores less
    space = random_space(mode, 40, trial_rng(seed, 0))
    report = doubling_constant(space, beta, rng=5)
    assert (report.constant, report.witness, report.mode) == (constant, witness, "sampled")
    assert doubling_constant(space, beta, budget=0, rng=5).constant < constant


def _doubling_host(kind: str, n: int, seed: int) -> FiniteMetricSpace:
    if kind == "uniform":
        return _uniform_space(n)
    if kind == "s_ultrametric":  # few distinct values: many tied ratios
        return random_s_ultrametric(n, geometric_range_set(0.5), trial_rng(seed, 0))
    return random_space(kind, n, trial_rng(seed, 0))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(["closure", "points_linf", "sequential", "s_ultrametric", "uniform"]),
    st.integers(min_value=EXHAUSTIVE_LIMIT + 1, max_value=64),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**16),
)
def test_doubling_sampled_matches_the_unpruned_search(kind, n, beta, budget, seed):
    # the pruned search skips only candidates strictly below the running
    # best, so constant, witness and mode equal those of the full scan
    space = _doubling_host(kind, n, seed)
    report = doubling_constant(space, beta, budget=budget, rng=seed)
    expected = orc.doubling_sampled_by_full_scan(space.matrix, beta, budget, seed)
    assert (report.constant, report.witness, report.mode) == (*expected, "sampled")


@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    st.integers(min_value=200, max_value=256),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**16),
)
def test_doubling_sampled_matches_the_unpruned_search_on_large_closure_hosts(
    n, beta, budget, seed
):
    # here every center is live: each gathers its prefixes before r0 and
    # reads the later ones from the extreme-pair lists
    space = random_space("closure", n, trial_rng(seed, 0))
    report = doubling_constant(space, beta, budget=budget, rng=seed)
    expected = orc.doubling_sampled_by_full_scan(space.matrix, beta, budget, seed)
    assert (report.constant, report.witness, report.mode) == (*expected, "sampled")


def _count_fill_diagonal(monkeypatch) -> list:
    fill_diagonal = np.fill_diagonal
    calls = []

    def spy(a, val, wrap=False):
        calls.append(a.shape[0])
        fill_diagonal(a, val, wrap)

    monkeypatch.setattr(moduli.np, "fill_diagonal", spy)
    return calls


def test_doubling_fallback_gather_scores_subsets_outside_both_lists(monkeypatch):
    # the pinned points_linf witness (11, 24, 38) holds no pair of either
    # extreme-pair list, so only the fallback gather can have scored it
    space = random_space("points_linf", 40, trial_rng(38, 0))
    calls = _count_fill_diagonal(monkeypatch)
    report = doubling_constant(space, 1.0, rng=5)
    assert report.witness == (11, 24, 38)
    inside = np.isin(np.arange(space.n), report.witness)
    for pairs in moduli._extreme_pairs(space.matrix):
        assert moduli._first_held(pairs, inside) is None
    assert calls
    expected = orc.doubling_sampled_by_full_scan(space.matrix, 1.0, 2000, 5)
    assert (report.constant, report.witness) == expected


def test_doubling_sampled_search_when_the_lists_hold_every_pair(monkeypatch):
    # with n <= 3 the n-pair lists hold all n(n-1)/2 pairs, so every
    # candidate reads both statistics from them and no sample falls back
    # to the O(k^2) gather
    monkeypatch.setattr(moduli, "EXHAUSTIVE_LIMIT", 1)
    calls = _count_fill_diagonal(monkeypatch)
    rng = trial_rng(42, 0)
    for n in (2, 3):
        for mode in ("closure", "points_linf"):
            space = random_space(mode, n, rng)
            for _, _, values in moduli._extreme_pairs(space.matrix):
                assert values.size == n * (n - 1) // 2
            for beta in (0.5, 2.0):
                report = doubling_constant(space, beta, budget=30, rng=n)
                expected = orc.doubling_sampled_by_full_scan(space.matrix, beta, 30, n)
                assert (report.constant, report.witness, report.mode) == (*expected, "sampled")
    assert calls == []


def test_ball_prefixes_gather_far_fewer_than_n_cubed_entries():
    # every center of a closure host is live, so a gather of each whole
    # live block reads about n**3 entries; gathering only the prefixes
    # before r0 reads a small share of that
    class CountingMatrix(np.ndarray):
        reads = []

        def __getitem__(self, key):
            out = super().__getitem__(key)
            if isinstance(out, np.ndarray):
                self.reads.append(out.size)
                out = out.view(np.ndarray)
            return out

    n = 256
    space = random_space("closure", n, trial_rng(43, 0))
    counted = SimpleNamespace(n=n, matrix=space.matrix.view(CountingMatrix))
    report = doubling_constant(counted, 2.0, budget=0)
    assert report == doubling_constant(space, 2.0, budget=0)
    assert sum(CountingMatrix.reads) < n**3 / 16


def test_doubling_sampled_scores_subsets_that_tie_the_best():
    # eight pairs at 0.25, everything else at 1: only the 2**8 one-per-pair
    # transversals reach 8, and the ball prefixes (each holding a pair)
    # find none.  With rng=1 three transversals are drawn, each scoring
    # exactly 8 with an arm bound of exactly 8, and each later one is
    # lexicographically smaller: skipping a tie would keep the first.
    pair_of = np.arange(16) // 2
    matrix = np.where(pair_of[:, None] == pair_of[None, :], 0.25, 1.0)
    np.fill_diagonal(matrix, 0.0)
    space = validate([f"p{i}" for i in range(16)], matrix, flavor="ultrametric")
    report = doubling_constant(space, 1.0, budget=2000, rng=1)
    expected = orc.doubling_sampled_by_full_scan(matrix, 1.0, 2000, 1)
    assert (report.constant, report.witness) == expected
    assert expected == (8.0, (1, 2, 5, 7, 8, 11, 13, 14))


def test_doubling_bounds_skip_most_random_subsets(monkeypatch):
    # only a sample whose arm bound reaches the best is scored, and only
    # the fallback gather of a scored sample missing one of the extreme
    # pair lists calls fill_diagonal
    space = random_space("points_linf", 200, trial_rng(41, 0))
    calls = _count_fill_diagonal(monkeypatch)
    report = doubling_constant(space, 2.0, budget=2000, rng=0)
    assert report.mode == "sampled"
    assert len(calls) < 200


# ---------------------------------------------------------------------------
# uniform perfectness


def test_up_constant_matches_radius_scan_oracle():
    rng = trial_rng(38, 0)
    modes = ("closure", "points_linf", "sequential")
    for k in range(30):
        n = int(rng.integers(4, 33))
        space = random_space(modes[k % 3], n, rng)
        if k % 2:
            r_min = space.separation
        else:
            dists = np.unique(space.matrix[space.matrix > 0])
            r_min = float(np.median(dists))
            if not 0 < r_min < space.diameter:
                r_min = space.separation
        report = up_constant(space, r_min)
        assert abs(report.c_star - orc.up_constant_by_radii(space.matrix, r_min)) <= UP_ORACLE_TOL


def test_up_constant_geometric_ladder_is_exact():
    space = geometric_prefix_ultrametric(64, top=1.0, ratio=0.5)
    report = up_constant(space, space.separation)
    assert report.c_star == 0.5


def test_up_constant_zero_when_a_point_is_isolated():
    matrix = np.array(
        [
            [0.0, 0.1, 0.1, 10.0],
            [0.1, 0.0, 0.1, 10.0],
            [0.1, 0.1, 0.0, 10.0],
            [10.0, 10.0, 10.0, 0.0],
        ]
    )
    space = validate(tuple("abcd"), matrix)
    report = up_constant(space, 0.1)
    assert report.c_star == 0.0
    assert report.witness == (3, 0.1)  # the isolated point, at radius r_min


def test_up_constant_witness_identity():
    rng = trial_rng(39, 0)
    for _ in range(10):
        space = random_space("points_linf", 12, rng)
        r_min = space.separation
        report = up_constant(space, r_min)
        x, radius = report.witness
        row = space.matrix[x]
        dists = np.unique(row[row > 0])
        if report.c_star == 0.0:
            # the witness point's nearest neighbor sits beyond r_min, so
            # the annulus at the witness radius is genuinely empty
            assert radius == r_min and dists[0] > r_min
        else:
            # the binding ratio is (some distance from x) / radius
            matches = [a for a in dists if a / radius == report.c_star]
            assert matches, "witness radius does not reproduce c_star"


def test_up_constant_guards():
    rng = trial_rng(40, 0)
    space = random_space("closure", 6, rng)
    with pytest.raises(BadScaleCutoff):
        up_constant(space, 0.0)
    with pytest.raises(BadScaleCutoff):
        up_constant(space, space.diameter)
    lone = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    with pytest.raises(DegenerateSpace):
        up_constant(lone, 0.5)


# ---------------------------------------------------------------------------
# classification


def test_classify_geometric_ladder_hits_all_ones():
    space = geometric_prefix_ultrametric(64, top=1.0, ratio=0.5)
    tv = classify(space)
    assert tv.bits == (1, 1, 1)
    assert tv.reports["up"].c_star == 0.5
    assert tv.reports["ud"].delta_star == 1.0


def test_up_report_is_degenerate_on_an_empty_scale_window():
    space = random_space("points_linf", 16, trial_rng(41, 0))
    for r_min in (space.diameter, 2 * space.diameter):
        report = up_report(space, r_min)
        assert report.degenerate
        assert report.c_star == 0.0
        assert report.r_min == r_min
    for r_min in (space.separation, space.diameter / 2, np.nextafter(space.diameter, 0)):
        assert up_report(space, r_min) == up_constant(space, r_min)
        assert not up_report(space, r_min).degenerate


def test_classify_uniform_space_is_degenerate_in_the_scale_window():
    tv = classify(_uniform_space(6))
    assert tv.u3 == 0
    assert tv.reports["up"].degenerate
    assert tv.reports["up"].c_star == 0.0


def test_classify_honors_explicit_r_min():
    rungs = ShrinkingSequence((1.0, 0.5, 0.25, 0.125))
    space = sequential_metric(rungs, 4)
    low = classify(space, r_min=space.separation)
    high = classify(space, r_min=space.diameter * 2.0)
    assert low.reports["up"].c_star == 0.5
    assert high.reports["up"].degenerate


def test_classify_threshold_flips():
    space = geometric_prefix_ultrametric(32, top=1.0, ratio=0.5)
    strict = classify(space, thresholds=Thresholds(c_min=0.9))
    assert strict.u3 == 0
    loose = classify(space, thresholds=Thresholds(c_max=1.0))
    assert loose.u1 == 0


def test_thresholds_json_round_trip():
    t = Thresholds(beta0=1.5, c_max=16.0, delta_min=0.1, c_min=0.2)
    assert Thresholds.from_json(t.to_json()) == t
    assert Thresholds.from_json({}) == Thresholds()


def test_report_json_helpers():
    rng = trial_rng(41, 0)
    space = random_space("closure", 8, rng)
    tv = classify(space)
    obj = type_vector_to_json(tv)
    assert (obj["u1"], obj["u2"], obj["u3"]) == tv.bits
    assert "bottleneck_matrix" not in obj["reports"]["ud"]
    full = type_vector_to_json(tv, include_matrix=True)
    matrix = np.asarray(full["reports"]["ud"]["bottleneck_matrix"])
    assert np.array_equal(matrix, tv.reports["ud"].bottleneck)
    d = doubling_report_to_json(tv.reports["doubling"])
    assert d["constant"] == tv.reports["doubling"].constant
    u = ud_report_to_json(tv.reports["ud"], include_matrix=False)
    assert u["delta_star"] == tv.reports["ud"].delta_star
    p = up_report_to_json(tv.reports["up"])
    assert p["witness"]["point"] == tv.reports["up"].witness[0]
