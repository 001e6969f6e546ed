"""The three moduli (doubling, disconnectedness, perfectness) and classify."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles as orc
from metriclab import lab, moduli
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
from metriclab.cantor import _build_recipe, geometric_prefix_ultrametric, sequential_metric
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


@pytest.mark.parametrize("budget", [-3, -1, 2.5, 2.0, "10", None, True])
@pytest.mark.parametrize("n", [8, 20])
def test_doubling_rejects_a_budget_that_is_not_a_nonnegative_integer(n, budget):
    # checked at entry, before the exhaustive branch ignores the budget
    space = random_space("closure", n, trial_rng(45, 0))
    with pytest.raises(ValueError, match="budget must be a nonnegative integer"):
        doubling_constant(space, 2.0, budget=budget)
    assert doubling_constant(space, 2.0, budget=np.int64(30)) == doubling_constant(
        space, 2.0, budget=30
    )


@pytest.mark.parametrize("beta", [np.inf, -np.inf, np.nan, True, False, 0.0, -1.0, "2"])
@pytest.mark.parametrize("n", [8, 20])
def test_doubling_rejects_a_beta_that_is_not_positive_and_finite(n, beta):
    # inf scored every subset as (sep/diam)**inf = 0 and reported 2.0, and
    # a bool ran as 1; both are refused at entry now
    space = random_space("closure", n, trial_rng(48, 0))
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        doubling_constant(space, beta)
    assert doubling_constant(space, np.float64(1.5)) == doubling_constant(space, 1.5)


def test_classify_rejects_a_non_finite_beta0():
    space = random_space("points_linf", 20, trial_rng(48, 1))
    for beta0 in (np.inf, np.nan):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            classify(space, Thresholds(beta0=beta0))


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


# Under this block budget, this many random subsets fill at least three
# blocks of the arm bounds at every sampled n (a block holds
# _BLOCK_ENTRIES // n subsets).
_SEVERAL_CHUNKS_BUDGET = 1 << 12
_SEVERAL_CHUNKS = 3 * (_SEVERAL_CHUNKS_BUDGET // (EXHAUSTIVE_LIMIT + 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(["closure", "points_linf", "sequential", "s_ultrametric", "uniform"]),
    st.integers(min_value=EXHAUSTIVE_LIMIT + 1, max_value=64),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.integers(min_value=0, max_value=40)
    | st.integers(min_value=_SEVERAL_CHUNKS, max_value=_SEVERAL_CHUNKS + 200),
    st.integers(min_value=0, max_value=2**16),
)
def test_doubling_sampled_matches_the_unpruned_search(kind, n, beta, budget, seed):
    # the pruned search skips only candidates strictly below the running
    # best, so constant, witness and mode equal those of the full scan;
    # the larger budgets bound their subsets over several blocks
    space = _doubling_host(kind, n, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moduli, "_BLOCK_ENTRIES", _SEVERAL_CHUNKS_BUDGET)
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


# Every type recipe at depths 5 and 6; the fat rings need 81 points, so depth 7.
_RECIPE_CASES = [
    (bits, depth)
    for bits in [(a, b, c) for a in (1, 0) for b in (1, 0) for c in (1, 0)]
    for depth in ((7,) if bits[:2] == (0, 0) else (5, 6))
]


@pytest.mark.parametrize("bits, depth", _RECIPE_CASES)
def test_doubling_sampled_matches_the_unpruned_search_on_the_type_recipes(bits, depth):
    # the fat rings and two-cluster hosts tie whole blocks of centers at
    # the best ratio, and each block yields one candidate: the least tied
    # tuple; shuffled, as generate_type does, so ties break off index order
    matrix = _build_recipe(bits, depth)[0]
    perm = trial_rng(depth, 0).permutation(len(matrix))
    space = FiniteMetricSpace(tuple(map(str, perm)), matrix[np.ix_(perm, perm)])
    for beta in (0.5, 1.0, 2.0, 3.0):
        report = doubling_constant(space, beta, budget=60, rng=depth)
        expected = orc.doubling_sampled_by_full_scan(space.matrix, beta, 60, depth)
        assert (report.constant, report.witness, report.mode) == (*expected, "sampled")


def test_doubling_sampled_matches_the_unpruned_search_on_the_type_grid_amalgams(monkeypatch):
    # the amalgams that the type grid classifies: two pieces glued at one
    # cross distance, so many centers tie
    amalgams = []

    def spy(space, **kwargs):
        amalgams.append(space)
        return classify(space, **kwargs)

    monkeypatch.setattr(lab, "classify", spy)
    report = lab.run_experiment(lab.ExperimentConfig("type_grid", depth=6, seed=9))
    # at depth 6 the two fat-ring targets stop before their amalgam
    assert len(amalgams) == sum(row["amalgam"] is not None for row in report["rows"]) == 6
    for index, space in enumerate(amalgams):
        beta = (0.5, 1.0, 2.0, 3.0)[index % 4]
        report = doubling_constant(space, beta, budget=60, rng=index)
        expected = orc.doubling_sampled_by_full_scan(space.matrix, beta, 60, index)
        assert (report.constant, report.witness, report.mode) == (*expected, "sampled")


def test_doubling_draw_tables_follow_the_seed_n_and_budget():
    # the random subsets hang on (seed, n, budget) alone: interleaved
    # calls that repeat a key, change n or shrink the budget under the
    # same seed each give the unpruned search's report, and a seed that
    # is not an integer is refused, on small spaces too
    host = random_space("points_linf", 40, trial_rng(46, 0))
    other = random_space("closure", 40, trial_rng(46, 1))
    smaller = random_space("sequential", 24, trial_rng(46, 2))
    for space, budget in ((host, 300), (other, 300), (smaller, 300), (host, 300), (host, 120)):
        report = doubling_constant(space, 2.0, budget=budget, rng=7)
        expected = orc.doubling_sampled_by_full_scan(space.matrix, 2.0, budget, 7)
        assert (report.constant, report.witness, report.mode) == (*expected, "sampled")
    assert doubling_constant(host, 2.0, budget=300, rng=np.int64(7)) == report
    tiny = random_space("closure", 4, trial_rng(46, 3))
    for rng in (np.random.default_rng(7), np.random.SeedSequence(7), None, 1.5, True):
        for space in (host, tiny):
            with pytest.raises(ValueError, match="rng must be an integer seed"):
                doubling_constant(space, 2.0, budget=300, rng=rng)


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
        assert np.isnan(moduli._first_held(pairs, inside[None])).all()
    assert calls
    expected = orc.doubling_sampled_by_full_scan(space.matrix, 1.0, 2000, 5)
    assert (report.constant, report.witness) == expected


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_extreme_pairs_match_the_triu_index_formula(n):
    # same pairs, values, order and dtypes as reading them through the
    # full triu index arrays; the equilateral and S-valued hosts are all ties
    rng = trial_rng(50, n)
    hosts = [
        random_space("closure", n, rng),
        random_space("points_linf", n, rng),
        random_s_ultrametric(n, geometric_range_set(0.5), rng),
        _uniform_space(n),
    ]
    for space in hosts:
        got = moduli._extreme_pairs(space.matrix)
        expected = orc.extreme_pairs_by_triu(space.matrix)
        for got_arrays, expected_arrays in zip(got, expected):
            for a, b in zip(got_arrays, expected_arrays):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


def test_extreme_pairs_keep_no_index_array_over_all_pairs():
    # the condensed values and one argpartition over them: 2 x 8 bytes per
    # pair, where the triu index arrays added 16 more
    space = random_space("points_linf", 512, trial_rng(49, 0))
    pairs = 512 * 511 // 2
    tracemalloc.start()
    try:
        moduli._extreme_pairs(space.matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * pairs + 2**16, peak


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
    # before r0 reads a small share of that.  Every read counts: an
    # index or slice of the matrix and a take from it or its raveled view
    class CountingMatrix(np.ndarray):
        reads = []

        def _counted(self, out):
            if isinstance(out, np.ndarray):
                self.reads.append(out.size)
                out = out.view(np.ndarray)
            return out

        def __getitem__(self, key):
            return self._counted(super().__getitem__(key))

        def take(self, *args, **kwargs):
            return self._counted(super().take(*args, **kwargs))

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


# The smallest block budget: one center per ball-prefix block, one
# center per gathered head chunk, one subset per arm-bound and walk block.
_SMALLEST_BLOCKS = {"_BLOCK_ENTRIES": 1}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["closure", "points_linf", "s_ultrametric", "uniform"]),
    st.integers(min_value=EXHAUSTIVE_LIMIT + 1, max_value=64),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**16),
)
def test_doubling_with_the_smallest_blocks_matches_the_unpruned_search(
    kind, n, beta, budget, seed
):
    # every block boundary falls between two centers, two head chunks or
    # two subsets; the floor is read at each, and the report must not move
    space = _doubling_host(kind, n, seed)
    expected = orc.doubling_sampled_by_full_scan(space.matrix, beta, budget, seed)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in _SMALLEST_BLOCKS.items():
            patch.setattr(moduli, name, value)
        report = doubling_constant(space, beta, budget=budget, rng=seed)
    assert (report.constant, report.witness, report.mode) == (*expected, "sampled")


@pytest.mark.parametrize("smallest", [False, True])
@pytest.mark.parametrize("kind, n, beta", [("sequential", 24, 1.0), ("s_ultrametric", 17, 0.5)])
def test_doubling_gathers_the_prefix_just_before_r0(kind, n, beta, smallest):
    # on these hosts the search's best is a ball prefix P_r with r = r0 - 1,
    # the last one gathered: a head one point short reports less
    space = _doubling_host(kind, n, 2)
    expected = orc.doubling_sampled_by_full_scan(space.matrix, beta, 0, 2)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in _SMALLEST_BLOCKS.items() if smallest else ():
            patch.setattr(moduli, name, value)
        report = doubling_constant(space, beta, budget=0, rng=2)
    assert (report.constant, report.witness) == expected


def test_doubling_block_with_heads_of_two_size_classes(monkeypatch):
    # a block whose heads span more than a factor 2 gathers them in
    # separate chunks, each padded to its own largest head
    head_prefixes = moduli._head_prefixes
    blocks = []  # per block: (smallest head, width) of each chunk

    def spy(matrix, beta, cards, order, sizes):
        blocks.append([])
        for group, ratios in head_prefixes(matrix, beta, cards, order, sizes):
            blocks[-1].append((int(sizes[group].min()), ratios.shape[1] + 2))
            yield group, ratios

    monkeypatch.setattr(moduli, "_head_prefixes", spy)
    space = random_space("closure", 32, trial_rng(47, 0))
    report = doubling_constant(space, 2.0, budget=0, rng=3)
    expected = orc.doubling_sampled_by_full_scan(space.matrix, 2.0, 0, 3)
    assert (report.constant, report.witness) == expected
    assert all(2 * smallest > width for chunks in blocks for smallest, width in chunks)
    widths = [[width for _, width in chunks] for chunks in blocks if chunks]
    assert any(max(w) > 2 * min(w) for w in widths)


def test_doubling_memory_stays_near_the_extreme_pair_lists():
    # at n = 512 _extreme_pairs peaks at 2.0 MiB (4.0 MiB while it built
    # the triu index arrays); the bound is that old peak plus 1 MiB for
    # the block temporaries
    for kind, beta in (("closure", 2.0), ("points_linf", 1.0)):
        space = random_space(kind, 512, trial_rng(49, 0))
        moduli._draw_subsets(0, 512, 2000)  # the cached draws are not counted
        tracemalloc.start()
        try:
            doubling_constant(space, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20, (kind, beta, peak)


def test_draw_table_build_holds_no_second_copy_of_the_table():
    # the draws go straight into the table, which grows by an eighth when
    # one overflows it, and a_0 * n is added in blocks: a list of the
    # draws with their concatenation, or a whole-table repeat of the
    # heads, would each add at least half a table more
    n, budget = 512, 2000
    tracemalloc.start()
    try:
        sizes, positions = moduli._draw_subsets.__wrapped__(0, n, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert positions.dtype == np.uint32 and positions.size == sizes.sum()
    assert peak <= 1.25 * positions.nbytes, (peak, positions.nbytes)


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
    space = geometric_prefix_ultrametric(64, top=1.0)
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


def _up_host(kind: str, n: int, seed: int) -> FiniteMetricSpace:
    if kind == "progression":
        return _progression_space(n)
    if kind == "s_ultrametric":
        return random_s_ultrametric(n, geometric_range_set(0.5), trial_rng(seed, 0))
    return random_space(kind, n, trial_rng(seed, 0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(["closure", "points_linf", "sequential", "s_ultrametric", "progression"]),
    st.integers(min_value=2, max_value=64),
    st.sampled_from(["separation", "middle", "below_diameter"]),
    st.sampled_from([None, 1, 3]),
    st.integers(min_value=0, max_value=2**16),
)
def test_up_constant_matches_the_point_loop_exactly(kind, n, where, rows, seed):
    # c* and the witness (point, radius) equal the one-point-at-a-time
    # loop's, also when a row block holds 1 or 3 rows
    space = _up_host(kind, n, seed)
    distances = np.unique(space.matrix[space.matrix > 0])
    r_min = {
        "separation": float(distances[0]),
        "middle": float(distances[distances.size // 2]),
        "below_diameter": float(np.nextafter(distances[-1], 0.0)),
    }[where]
    assume(0 < r_min < space.diameter)
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(moduli, "_BLOCK_ENTRIES", rows * n)
        report = up_constant(space, r_min)
    assert (report.c_star, report.witness) == orc.up_report_by_point_loop(space.matrix, r_min)


def test_up_constant_memory_stays_within_a_few_row_blocks():
    # the loop's peak is one row (4 KiB); five block temporaries of
    # _BLOCK_ENTRIES floats are 640 KiB, within 1 MiB.  Both hosts scan
    # every row: no point is isolated at the separation
    for space in (
        random_space("sequential", 512, trial_rng(49, 1)),
        random_s_ultrametric(512, geometric_range_set(0.5), trial_rng(49, 2)),
    ):
        r_min = space.separation
        assert up_constant(space, r_min).c_star > 0
        tracemalloc.start()
        try:
            up_constant(space, r_min)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak


# ---------------------------------------------------------------------------
# classification


def test_classify_geometric_ladder_hits_all_ones():
    space = geometric_prefix_ultrametric(64, top=1.0)
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


@pytest.mark.parametrize("r_min", [np.inf, -np.inf, np.nan])
def test_up_report_rejects_a_non_finite_r_min(r_min):
    # r_min = inf used to count as an empty window: c* = 0 with radius inf
    space = random_space("points_linf", 16, trial_rng(41, 0))
    with pytest.raises(BadScaleCutoff, match="must be finite"):
        up_report(space, r_min)


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
    space = geometric_prefix_ultrametric(32, top=1.0)
    strict = classify(space, thresholds=Thresholds(c_min=0.9))
    assert strict.u3 == 0
    loose = classify(space, thresholds=Thresholds(c_max=1.0))
    assert loose.u1 == 0


@pytest.mark.parametrize(
    "field", [{"c_max": float("nan")}, {"delta_min": float("inf")}, {"c_min": True}]
)
def test_thresholds_are_checked_where_they_are_built(field):
    # direct construction and dataclasses.replace check as from_json does,
    # so no NaN reaches a type vector or its JSON
    with pytest.raises(ValueError, match="must be finite|must be a number"):
        Thresholds(**field)
    with pytest.raises(ValueError, match="must be finite|must be a number"):
        dataclasses.replace(Thresholds(), **field)


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
