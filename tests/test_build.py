"""Partitions, amalgams, extensions, nets, and the three approximators."""

import tracemalloc

import numpy as np
import pytest

import oracles as orc
from metriclab import build
from metriclab import (
    ClopenPartition,
    Embedding,
    FiniteMetricSpace,
    NotLipschitzOnSubset,
    NotUltrametric,
    PieceMismatch,
    TooFewPoints,
    ValueOutsideRangeSet,
    approximate_doubling,
    approximate_ud,
    approximate_up,
    amalgamate_metric,
    amalgamate_ultrametric,
    carve_pieces,
    contains,
    default_metric_piece,
    diagnose,
    geometric_range_set,
    greedy_net,
    mcshane_extend,
    merge_singletons,
    metric_closure,
    pairwise_linf,
    random_space,
    sup_distance,
    trial_rng,
    ud_modulus,
    ultra_distance,
    up_constant,
    validate,
)
from metriclab.cantor import cantor_prefix_metric
from metriclab.lab import grid_host, random_s_ultrametric


def _labels(n):
    return tuple(f"p{k}" for k in range(n))


def _line_space(positions):
    pts = np.asarray(positions, dtype=float)
    return validate(_labels(len(pts)), np.abs(pts[:, None] - pts[None, :]))


# ---------------------------------------------------------------------------
# ClopenPartition and Embedding records


def test_partition_accepts_and_normalizes():
    part = ClopenPartition(((2, 0), (1, 3)), (0, 3))
    assert part.pieces == ((0, 2), (1, 3))
    assert part.n == 4
    assert part.piece_of().tolist() == [0, 1, 0, 1]


def test_partition_guards():
    with pytest.raises(ValueError):
        ClopenPartition((), ())
    with pytest.raises(ValueError):
        ClopenPartition(((0,), ()), (0, 0))
    with pytest.raises(ValueError):
        ClopenPartition(((0, 1),), (0, 1))  # two basepoints, one piece
    with pytest.raises(ValueError):
        ClopenPartition(((0, 1), (1, 2)), (0, 2))  # overlap
    with pytest.raises(ValueError):
        ClopenPartition(((0, 1), (3,)), (0, 3))  # gap at 2
    with pytest.raises(ValueError):
        ClopenPartition(((0, 1),), (2,))  # basepoint outside


def test_partition_json_round_trip():
    part = ClopenPartition(((0, 1), (2,)), (1, 2))
    back = ClopenPartition.from_json(part.to_json())
    assert back == part
    with pytest.raises(ValueError):
        ClopenPartition.from_json({"pieces": [[0]]})


def test_embedding_basics_and_guards():
    emb = Embedding(np.array([[0.0, 1.0], [2.0, 0.5]]))
    assert emb.count == 2 and emb.dimension == 2
    assert not emb.coordinates.flags.writeable
    with pytest.raises(ValueError):
        Embedding(np.zeros(3))
    with pytest.raises(ValueError):
        Embedding(np.array([[np.inf, 0.0]]))


def test_pairwise_linf_matches_loop_oracle():
    rng = trial_rng(50, 0)
    coords = rng.uniform(-1.0, 1.0, size=(9, 4))
    assert np.array_equal(pairwise_linf(coords), orc.linf_by_loops(coords))


def test_pairwise_linf_blocked_path():
    # 1500 points x 2 axes forces more than one row block; with the
    # second axis constant the answer is the plain |x - y| table
    rng = trial_rng(51, 0)
    x = rng.uniform(0.0, 1.0, size=1500)
    coords = np.stack([x, np.zeros_like(x)], axis=1)
    assert np.array_equal(pairwise_linf(coords), np.abs(x[:, None] - x[None, :]))


# ---------------------------------------------------------------------------
# sum-form amalgamation


def _two_cluster_fixture():
    host = _line_space([0.0, 0.3, 10.0, 10.2, 10.4])
    partition = ClopenPartition(((0, 1), (2, 3, 4)), (0, 3))
    piece0 = validate(_labels(5)[0:2], np.array([[0.0, 0.2], [0.2, 0.0]]))
    inner = np.array([[0.0, 0.15, 0.1], [0.15, 0.0, 0.12], [0.1, 0.12, 0.0]])
    piece1 = validate(_labels(5)[2:5], inner)
    return host, partition, (piece0, piece1)


def test_amalgamate_metric_formula_and_blocks():
    host, partition, pieces = _two_cluster_fixture()
    out = amalgamate_metric(host, partition, pieces)
    assert out.labels == host.labels
    # intra-piece blocks are copied bit-exactly
    assert np.array_equal(out.matrix[np.ix_([0, 1], [0, 1])], pieces[0].matrix)
    assert np.array_equal(out.matrix[np.ix_([2, 3, 4], [2, 3, 4])], pieces[1].matrix)
    # cross distances: (arm_x + arm_y) + bridge, grouped exactly that way
    bridge = host.matrix[0, 3]
    for x in (0, 1):
        for y in (2, 3, 4):
            arm_x = pieces[0].matrix[x, 0]
            arm_y = pieces[1].matrix[y - 2, 1]  # basepoint 3 is local index 1
            assert out.matrix[x, y] == (arm_x + arm_y) + bridge
            assert out.matrix[x, y] == pytest.approx(arm_x + bridge + arm_y, rel=1e-15)
    assert np.array_equal(out.matrix, out.matrix.T)
    assert diagnose(out.labels, out.matrix) is None


def test_amalgamate_metric_is_exactly_symmetric_on_random_hosts():
    rng = trial_rng(52, 0)
    for _ in range(5):
        host = grid_host(14, rng)
        eps = host.diameter / 8
        partition = carve_pieces(host, eps)
        pieces = [
            default_metric_piece(tuple(host.labels[i] for i in piece), eps)
            for piece in partition.pieces
        ]
        out = amalgamate_metric(host, partition, pieces)
        assert np.array_equal(out.matrix, out.matrix.T)
        assert sup_distance(out, host).value <= 4 * eps


def test_amalgamate_metric_piece_mismatch():
    host, partition, pieces = _two_cluster_fixture()
    with pytest.raises(PieceMismatch):
        amalgamate_metric(host, partition, pieces[:1])
    wrong_labels = validate(("x", "y"), pieces[0].matrix)
    with pytest.raises(PieceMismatch):
        amalgamate_metric(host, partition, (wrong_labels, pieces[1]))
    small = ClopenPartition(((0, 1), (2,)), (0, 2))
    with pytest.raises(PieceMismatch):
        amalgamate_metric(host, small, pieces)


# ---------------------------------------------------------------------------
# max-form amalgamation over a range set


def _ultra_fixture():
    S = geometric_range_set(0.5)
    table = np.array([1.0, 0.5, 0.0])  # common-prefix length -> distance
    val = np.array([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]])
    host = validate(_labels(4), table[val], flavor="ultrametric")
    partition = ClopenPartition(((0, 1), (2, 3)), (0, 2))
    piece = np.array([[0.0, 0.125], [0.125, 0.0]])
    piece0 = validate(_labels(4)[0:2], piece, flavor="ultrametric")
    piece1 = validate(_labels(4)[2:4], piece, flavor="ultrametric")
    return S, host, partition, (piece0, piece1)


def test_amalgamate_ultrametric_max_form():
    S, host, partition, pieces = _ultra_fixture()
    out = amalgamate_ultrametric(host, partition, pieces, S)
    assert np.array_equal(out.matrix[np.ix_([0, 1], [0, 1])], pieces[0].matrix)
    for x in (0, 1):
        for y in (2, 3):
            arm_x = pieces[0].matrix[x, 0]
            arm_y = pieces[1].matrix[y - 2, 0]
            bridge = host.matrix[0, 2]
            assert out.matrix[x, y] == max(arm_x, arm_y, bridge)
    assert diagnose(out.labels, out.matrix, flavor="ultrametric", tol=0.0) is None
    for v in np.unique(out.matrix):
        assert v == 0.0 or contains(S, float(v))


def test_amalgamate_ultrametric_flavor_guards():
    S, host, partition, pieces = _ultra_fixture()
    metric_host = validate(host.labels, host.matrix)  # metric flavor
    with pytest.raises(NotUltrametric):
        amalgamate_ultrametric(metric_host, partition, pieces, S)
    metric_piece = validate(pieces[0].labels, pieces[0].matrix)
    with pytest.raises(NotUltrametric):
        amalgamate_ultrametric(host, partition, (metric_piece, pieces[1]), S)


def test_amalgamate_ultrametric_rejects_off_s_values():
    S, host, partition, pieces = _ultra_fixture()
    off = validate(
        pieces[0].labels, np.array([[0.0, 0.3], [0.3, 0.0]]), flavor="ultrametric"
    )
    with pytest.raises(ValueOutsideRangeSet):
        amalgamate_ultrametric(host, partition, (off, pieces[1]), S)


# ---------------------------------------------------------------------------
# Lipschitz extension


def test_mcshane_matches_loop_oracle_off_subset():
    rng = trial_rng(53, 0)
    space = random_space("closure", 11, rng)
    subset = [7, 2, 9, 0]
    values = np.array([1.0, 1.4, 0.8, 1.1])
    lip = 2.0
    got, _, _ = mcshane_extend(space, subset, values[:, None], lip)
    expected = orc.mcshane_by_loops(space.matrix, subset, values, lip)
    for x in range(space.n):
        if x in subset:
            assert got[x, 0] == values[subset.index(x)]
        else:
            assert got[x, 0] == expected[x]


def test_mcshane_subset_order_is_irrelevant():
    rng = trial_rng(54, 0)
    space = random_space("closure", 10, rng)
    shuffled = [6, 1, 8, 3]
    values = np.array([0.5, 0.9, 0.7, 0.6])
    order = np.argsort(shuffled)
    direct = mcshane_extend(space, shuffled, values[:, None], 1.5)
    canonical = mcshane_extend(
        space, [shuffled[k] for k in order], values[order, None], 1.5
    )
    assert np.array_equal(direct[0], canonical[0])
    assert direct[1] == canonical[1] == sorted(shuffled)
    assert np.array_equal(direct[2], canonical[2])


def test_mcshane_output_is_lipschitz():
    rng = trial_rng(55, 0)
    space = random_space("points_linf", 14, rng)
    subset = [0, 5, 9]
    values = space.matrix[np.ix_(subset, subset)]  # rows are 1-Lipschitz
    got, ordered, subset_spread = mcshane_extend(space, subset, values, 1.0)
    spread = np.abs(got[:, None, :] - got[None, :, :]).max(axis=2)
    slack = 1e-12 * space.diameter
    assert (spread <= space.matrix + slack).all()
    assert np.array_equal(got[subset], values)
    # the returned block is the subset's own max-norm matrix
    assert ordered == subset
    assert np.array_equal(subset_spread, spread[np.ix_(subset, subset)])


def test_mcshane_vector_equals_per_column_scalars():
    rng = trial_rng(56, 0)
    space = random_space("closure", 9, rng)
    subset = [1, 4, 7]
    values = rng.uniform(0.0, 1.0, size=(3, 2)) * 0.1
    vector, _, _ = mcshane_extend(space, subset, values, 1.0)
    for col in range(2):
        scalar, _, _ = mcshane_extend(space, subset, values[:, col : col + 1], 1.0)
        assert np.array_equal(vector[:, col], scalar[:, 0])


def _integer_linf_space(n, seed):
    """n distinct integer points in a cube under the max norm: every
    distance, and every sum below, is an exact small integer."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(64**3, size=n, replace=False)
    points = np.stack([codes // 64**2, (codes // 64) % 64, codes % 64], axis=1)
    matrix = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2).astype(float)
    return FiniteMetricSpace(tuple(f"q{i}" for i in range(n)), matrix)


def test_mcshane_memory_stays_flat_and_matches_oracle():
    # Kuratowski coordinates on 256 landmarks are 1-Lipschitz; the
    # unblocked kernel allocated two (k, k, 256) and (n, k, 256) arrays
    space = _integer_linf_space(256, 0)
    rng = np.random.default_rng(1)
    landmarks = rng.permutation(256)
    for k in (256, 128):
        subset = [int(i) for i in rng.permutation(256)[:k]]
        values = space.matrix[np.ix_(subset, landmarks)]
        tracemalloc.start()
        try:
            got, _, _ = mcshane_extend(space, subset, values, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert np.array_equal(got[subset], values)
        for col in range(0, 256, 17):
            expected = orc.mcshane_by_loops(space.matrix, subset, values[:, col], 1.0)
            assert np.array_equal(got[:, col], expected)


def test_mcshane_names_the_first_bad_pair_past_the_first_block():
    # rows of the (256, 256) spread are checked 16 at a time; pairs
    # (100, 180) and (100, 200) become violations when their distance
    # shrinks below the coordinate gap, and the first in row-major
    # order over the sorted subset is named
    space = _integer_linf_space(256, 2)
    values = space.matrix.copy()
    matrix = space.matrix.copy()
    for j in (200, 180):
        matrix[100, j] = matrix[j, 100] = 0.5
    broken = FiniteMetricSpace(space.labels, matrix)
    subset = list(range(255, -1, -1))
    with pytest.raises(NotLipschitzOnSubset, match=r"\|f\(100\) - f\(180\)\| = "):
        mcshane_extend(broken, subset, values[::-1], 1.0)


def test_mcshane_guards():
    rng = trial_rng(57, 0)
    space = random_space("closure", 8, rng)
    with pytest.raises(ValueError, match="subset must be nonempty"):
        mcshane_extend(space, [], np.zeros((0, 1)), 1.0)
    with pytest.raises(ValueError, match="distinct"):
        mcshane_extend(space, [1, 1], np.zeros((2, 1)), 1.0)
    with pytest.raises(ValueError, match=r"\(2, components\) array, got shape \(1, 1\)"):
        mcshane_extend(space, [0, 1], np.zeros((1, 1)), 1.0)
    with pytest.raises(ValueError, match=r"got shape \(2,\)"):
        mcshane_extend(space, [0, 1], np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        mcshane_extend(space, [0, 1], np.zeros((2, 1)), -1.0)
    with pytest.raises(NotLipschitzOnSubset):
        mcshane_extend(space, [0, 1], np.array([[0.0], [100.0]]), 0.5)


# ---------------------------------------------------------------------------
# nets, carving, merging


def test_greedy_net_properties():
    rng = trial_rng(60, 0)
    for _ in range(5):
        space = random_space("points_linf", 20, rng)
        eps = space.diameter / 4
        net = greedy_net(space, eps)
        assert net[0] == 0
        block = space.matrix[np.ix_(net, net)]
        off = block[~np.eye(len(net), dtype=bool)]
        assert (off >= eps).all()  # eps-separated
        assert space.matrix[:, net].min(axis=1).max() < eps  # eps-cover
    assert greedy_net(space, space.diameter * 1.01) == [0]
    with pytest.raises(ValueError):
        greedy_net(space, 0.0)


def test_carve_pieces_diameter_and_basepoints():
    rng = trial_rng(61, 0)
    for _ in range(5):
        space = random_space("points_linf", 18, rng)
        eps = space.diameter / 3
        partition = carve_pieces(space, eps)
        assert partition.n == space.n
        for piece, bp in zip(partition.pieces, partition.basepoints):
            block = space.matrix[np.ix_(piece, piece)]
            assert block.max() <= eps
            assert bp == min(piece)  # center is the lowest remaining index
            assert (space.matrix[bp, list(piece)] <= eps / 2).all()
    with pytest.raises(ValueError):
        carve_pieces(space, -1.0)


def test_merge_singletons_line_fixture():
    space = _line_space([0.0, 0.1, 5.0])
    carved = carve_pieces(space, 1.0)
    assert carved.pieces == ((0, 1), (2,))
    merged = merge_singletons(space, carved)
    # point 2's nearest other point is 1 (4.9 beats 5.0)
    assert merged.pieces == ((0, 1, 2),)
    assert merged.basepoints == (0,)


def test_merge_singletons_leaves_no_lonely_pieces():
    rng = trial_rng(62, 0)
    for _ in range(5):
        space = random_space("closure", 16, rng)
        merged = merge_singletons(space, carve_pieces(space, space.diameter / 8))
        assert all(len(piece) >= 2 for piece in merged.pieces)
        assert merged.n == space.n


@pytest.mark.parametrize("mode", ["closure", "points_linf", "sequential"])
def test_merge_singletons_matches_the_round_by_round_oracle(mode):
    # Small eps leave every piece a singleton and larger ones a mix, so
    # singletons fold into later singletons as well as into big pieces.
    rng = trial_rng(63, 0)
    for n in (2, 3, 5, 8, 17, 40, 64):
        space = random_space(mode, n, rng)
        for fraction in (1e-3, 0.05, 0.1, 0.2, 0.4, 1.0):
            carved = carve_pieces(space, fraction * space.diameter)
            merged = merge_singletons(space, carved)
            expected = orc.merge_singletons_by_rounds(
                space.matrix, carved.pieces, carved.basepoints
            )
            assert (merged.pieces, merged.basepoints) == expected, (n, fraction)


def test_merge_singletons_needs_two_points():
    lone = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    with pytest.raises(TooFewPoints):
        merge_singletons(lone, ClopenPartition(((0,),), (0,)))


# ---------------------------------------------------------------------------
# the three approximators


def test_approximate_doubling_certificate():
    rng = trial_rng(63, 0)
    for _ in range(5):
        host = random_space("closure", 16, rng)
        eps = host.diameter / 8
        out, emb = approximate_doubling(host, eps)
        assert sup_distance(out, host).value <= 4 * eps
        # the output metric IS the max-norm metric of the coordinates
        assert np.array_equal(out.matrix, emb.pairwise_linf())
        net = greedy_net(host, eps)
        assert emb.dimension == len(net) + 1
        # net coordinates restrict to the original net rows
        assert np.array_equal(
            emb.coordinates[np.ix_(net, range(len(net)))],
            host.matrix[np.ix_(net, net)],
        )
        # the auxiliary axis is injective
        aux = emb.coordinates[:, -1]
        assert len(np.unique(aux)) == host.n
    with pytest.raises(ValueError):
        approximate_doubling(host, 0.0)


def test_approximate_doubling_matches_the_two_pass_oracle():
    # the net x net block comes from the Lipschitz check and only the rows
    # outside the net are extended: the bytes equal extending every row
    # and taking the max-norm matrix of all coordinates
    rng = trial_rng(69, 0)
    for mode in ("closure", "points_linf"):
        for n in (17, 40):
            host = random_space(mode, n, rng)
            every, one = host.separation / 2, 2 * host.diameter
            assert (len(greedy_net(host, every)), len(greedy_net(host, one))) == (n, 1)
            for eps in (every, host.diameter / 8, host.diameter / 3, one):
                out, emb = approximate_doubling(host, eps)
                matrix, coords = orc.doubling_embedding_by_two_passes(host.matrix, eps)
                assert out.matrix.tobytes() == matrix.tobytes()
                assert emb.coordinates.tobytes() == coords.tobytes()


def test_approximate_doubling_extends_the_net_through_mcshane_extend(monkeypatch):
    # the pipeline reaches the extension through the module attribute, so
    # a wrapper bound there (a spy, or a tracer) sees every call
    calls = []
    extend = build.mcshane_extend

    def spy(space, subset, values, lip):
        calls.append((list(subset), lip))
        return extend(space, subset, values, lip)

    monkeypatch.setattr(build, "mcshane_extend", spy)
    host = random_space("points_linf", 24, trial_rng(66, 0))
    eps = host.diameter / 4
    approximate_doubling(host, eps)
    assert calls == [(greedy_net(host, eps), 1.0)]


def test_approximate_ud_metric_path():
    rng = trial_rng(64, 0)
    for _ in range(5):
        host = grid_host(20, rng)
        eps = host.diameter / 8
        out, report = approximate_ud(host, eps)
        assert sup_distance(out, host).value <= 4 * eps
        assert report.delta_star == ud_modulus(out).delta_star
        assert report.delta_star > 0
        # carved pieces carry the default replacement piece bit-exactly
        partition = carve_pieces(host, eps)
        for piece in partition.pieces:
            labels = tuple(host.labels[i] for i in piece)
            rebuilt = default_metric_piece(labels, eps)
            assert np.array_equal(out.matrix[np.ix_(piece, piece)], rebuilt.matrix)


def test_approximate_ud_rangeset_path():
    rng = trial_rng(65, 0)
    S = geometric_range_set(0.5)
    for _ in range(5):
        host = random_s_ultrametric(16, S, rng)
        eps = 0.125  # an element of S
        out, report = approximate_ud(host, eps, S=S)
        assert ultra_distance(out, host, S).value <= eps
        assert diagnose(out.labels, out.matrix, flavor="ultrametric", tol=0.0) is None
        assert report.delta_star == 1.0  # the output is an ultrametric
        for v in np.unique(out.matrix):
            assert v == 0.0 or contains(S, float(v))


def test_approximate_up_even_pieces_meet_the_bound():
    host = _line_space([0.0, 0.01, 0.02, 0.03, 5.0, 5.01, 5.02, 5.03])
    eps = 1.0
    out, report = approximate_up(host, eps)
    assert report.partition.pieces == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert report.piece_c_min > 0
    assert report.bound > 0
    assert report.c_star >= report.bound
    assert sup_distance(out, host).value <= 4 * report.eps_effective
    assert report.r_min == cantor_prefix_metric(4, scale=eps, depth=2).separation


def test_approximate_up_odd_piece_reports_vacuous_bound():
    # a 3-string prefix leaves one string without a sibling, so the
    # piece floor is honestly zero and the bound degenerates
    host = _line_space([0.0, 0.01, 0.02, 5.0, 5.01, 5.02, 5.03])
    out, report = approximate_up(host, 1.0)
    assert report.piece_c_min == 0.0
    assert report.bound == 0.0
    assert report.c_star >= 0.0
    assert diagnose(out.labels, out.matrix) is None


def test_approximate_up_single_piece_is_the_prefix_metric():
    host = _line_space([0.0, 0.01, 0.02, 0.03])
    eps = 1.0  # host diameter 0.03 <= eps/2, so one piece survives
    out, report = approximate_up(host, eps)
    assert len(report.partition.pieces) == 1
    rebuilt = cantor_prefix_metric(4, scale=eps, depth=2)
    assert np.array_equal(out.matrix, rebuilt.matrix)
    assert report.eps_effective == eps
    assert report.r_min == rebuilt.separation


def test_approximate_up_guards():
    lone = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    with pytest.raises(TooFewPoints):
        approximate_up(lone, 1.0)
    pair = _line_space([0.0, 1.0])
    with pytest.raises(ValueError):
        approximate_up(pair, 0.0)


def test_default_metric_piece():
    piece = default_metric_piece(("a", "b", "c"), 0.75)
    assert piece.labels == ("a", "b", "c")
    assert piece.diameter == 0.75
    assert piece.flavor == "ultrametric"
    lone = default_metric_piece(("a",), 0.75)
    assert lone.n == 1 and lone.matrix[0, 0] == 0.0
