"""Partitions, amalgams, embeddings, nets, and the three approximators."""

import numpy as np
import pytest

import oracles as orc
from metriclab import (
    ClopenPartition,
    Embedding,
    FiniteMetricSpace,
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
    diagnose,
    geometric_prefix_ultrametric,
    geometric_range_set,
    greedy_net,
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
from metriclab.build import _relabel
from metriclab.cantor import _s_ladder_space, cantor_prefix_metric
from metriclab.lab import _grid_piece, grid_host, random_s_ultrametric


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


def test_partition_reads_from_json():
    part = ClopenPartition.from_json({"pieces": [[0, 1], [2]], "basepoints": [1, 2]})
    assert part == ClopenPartition(((0, 1), (2,)), (1, 2))
    with pytest.raises(ValueError):
        ClopenPartition.from_json({"pieces": [[0]]})


def test_embedding_basics_and_guards():
    emb = Embedding(np.array([[0.0, 1.0], [2.0, 0.5]]))
    assert emb.coordinates.shape[0] == 2 and emb.dimension == 2
    assert not emb.coordinates.flags.writeable
    with pytest.raises(ValueError):
        Embedding(np.zeros(3))
    with pytest.raises(ValueError):
        Embedding(np.array([[np.inf, 0.0]]))


def test_pairwise_linf_matches_loop_oracle():
    rng = trial_rng(50, 0)
    coords = rng.uniform(-1.0, 1.0, size=(9, 4))
    assert np.array_equal(pairwise_linf(coords), orc.linf_by_loops(coords))


def _linf_by_broadcast(coords):
    # reference: max over axes of |x - y| through an (n, n, k) broadcast
    return np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)


@pytest.mark.parametrize("shape", [(1, 4), (7, 1), (9, 4), (0, 3)], ids=str)
@pytest.mark.parametrize("scale", [1.0, 1e300], ids=["unit", "1e300"])
def test_pairwise_linf_is_bit_equal_to_the_loops_and_the_broadcast(shape, scale):
    # at 1e300 the coordinates lie near +-1e300 and their differences
    # near 2e300, still finite
    coords = trial_rng(52, 0).uniform(-1.0, 1.0, size=shape) * scale
    out = pairwise_linf(coords)
    assert out.shape == (shape[0], shape[0])
    assert out.tobytes() == orc.linf_by_loops(coords).tobytes()
    assert out.tobytes() == _linf_by_broadcast(coords).tobytes()
    # a Fortran-ordered input, as a column gather gives, reads the same
    assert pairwise_linf(np.asfortranarray(coords)).tobytes() == out.tobytes()


def test_pairwise_linf_blocked_path():
    # 1500 points x 2 axes: a large input for the distance kernel; with
    # the second axis constant the answer is the plain |x - y| table
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
            _relabel(
                geometric_prefix_ultrametric(len(piece), top=eps),
                [host.labels[i] for i in piece],
            )
            for piece in partition.pieces
        ]
        out = amalgamate_metric(host, partition, pieces)
        assert np.array_equal(out.matrix, out.matrix.T)
        assert sup_distance(out, host) <= 4 * eps


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


def _scaled_ultra_fixture(k, planted):
    """Host with entries 2**k across and 2**(k - 1) within its pieces
    (0, 1) and (2, 3); the pieces at `planted` and 2**(k - 2); and the
    max-form amalgam they make, built by hand."""
    top = 2.0**k
    host = np.full((4, 4), top)
    host[:2, :2] = host[2:, 2:] = top / 2
    np.fill_diagonal(host, 0.0)
    amalgam = host.copy()
    amalgam[0, 1] = amalgam[1, 0] = planted
    amalgam[2, 3] = amalgam[3, 2] = top / 4
    pieces = tuple(
        validate(_labels(4)[lo : lo + 2], amalgam[lo : lo + 2, lo : lo + 2], flavor="ultrametric")
        for lo in (0, 2)
    )
    return (
        validate(_labels(4), host, flavor="ultrametric"),
        ClopenPartition(((0, 1), (2, 3)), (0, 2)),
        pieces,
        validate(_labels(4), amalgam, flavor="ultrametric"),
    )


def test_amalgamate_ultrametric_slack_is_relative_to_the_largest_entry():
    # 3e-13 lies between 2**-42 and 2**-41, 7.3e-14 from the nearest element
    # of S: far outside 1e-9 of the 2**-40 host's scale.
    S = geometric_range_set(0.5)
    host, partition, pieces, amalgam = _scaled_ultra_fixture(-40, 3e-13)
    with pytest.raises(ValueOutsideRangeSet, match="^piece 0 has value 3e-13 outside S$"):
        amalgamate_ultrametric(host, partition, pieces, S)
    with pytest.raises(ValueOutsideRangeSet):
        ultra_distance(amalgam, host, S)


def test_amalgamate_ultrametric_accepts_what_ultra_distance_accepts():
    S = geometric_range_set(0.5)
    verdicts = set()
    for k in range(-60, 21):
        for delta in (0.0, 1e-12, -1e-12, 3e-9, -3e-9, 5e-9, -5e-9, 1e-6, -1e-6, 0.25):
            planted = 2.0 ** (k - 2) * (1 + delta)
            host, partition, pieces, amalgam = _scaled_ultra_fixture(k, planted)
            try:
                ultra_distance(amalgam, host, S)
                accepted = True
            except ValueOutsideRangeSet:
                accepted = False
            verdicts.add(accepted)
            if accepted:
                out = amalgamate_ultrametric(host, partition, pieces, S)
                assert out.matrix.tobytes() == amalgam.matrix.tobytes()
            else:
                with pytest.raises(ValueOutsideRangeSet):
                    amalgamate_ultrametric(host, partition, pieces, S)
    assert verdicts == {True, False}


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
        assert sup_distance(out, host) <= 4 * eps
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
    # these hosts meet the triangle inequality at slack 0, so the net's
    # own distance columns equal extending the net rows to every point by
    # McShane's formula, and the output is the max-norm matrix of all
    # coordinates, byte for byte
    rng = trial_rng(69, 0)
    hosts = [random_space(mode, n, rng) for mode in ("closure", "points_linf") for n in (17, 40)]
    hosts += [random_space(mode, 128, rng) for mode in ("closure", "points_linf")]
    hosts += [random_space("sequential", n, rng) for n in (17, 40, 128)]
    for host in hosts:
        n = host.n
        every, one = host.separation / 2, 2 * host.diameter
        assert (len(greedy_net(host, every)), len(greedy_net(host, one))) == (n, 1)
        for eps in (every, host.diameter / 8, host.diameter / 3, one):
            out, emb = approximate_doubling(host, eps)
            matrix, coords = orc.doubling_embedding_by_two_passes(host.matrix, eps)
            assert out.matrix.tobytes() == matrix.tobytes()
            assert emb.coordinates.tobytes() == coords.tobytes()


def test_approximate_doubling_embeds_a_slack_only_host_by_its_own_columns():
    # d(0, 2) sits 2 ulps above the path through point 1, which only the
    # validation slack allows: McShane's formula would give point 2 the
    # coordinate 0.52 on axis 0, below the host's own entry
    matrix = _line_space([0.0, 0.5, 0.52, 1.0]).matrix.copy()
    matrix[0, 2] = matrix[2, 0] = np.nextafter(np.nextafter(0.52, 1.0), 1.0)
    host = validate(_labels(4), matrix)
    eps = 0.1
    net = greedy_net(host, eps)
    assert net == [0, 3, 1]
    _, mcshane = orc.doubling_embedding_by_two_passes(host.matrix, eps)
    assert mcshane[2, 0] == 0.52 < host.matrix[2, 0]
    out, emb = approximate_doubling(host, eps)
    assert emb.coordinates[:, :-1].tobytes() == host.matrix[:, net].tobytes()
    assert out.matrix.tobytes() == orc.linf_by_loops(emb.coordinates).tobytes()
    assert sup_distance(out, host) <= 4 * eps


def test_approximate_ud_metric_path():
    rng = trial_rng(64, 0)
    for _ in range(5):
        host = grid_host(20, rng)
        eps = host.diameter / 8
        out, report = approximate_ud(host, eps)
        assert sup_distance(out, host) <= 4 * eps
        assert report.delta_star == ud_modulus(out).delta_star
        assert report.delta_star > 0
        # carved pieces carry the default replacement piece bit-exactly
        partition = carve_pieces(host, eps)
        for piece in partition.pieces:
            rebuilt = geometric_prefix_ultrametric(len(piece), top=eps)
            assert np.array_equal(out.matrix[np.ix_(piece, piece)], rebuilt.matrix)


def _ud_floor(space, eps):
    return min(0.5, eps / (2 * space.diameter))


def test_approximate_ud_meets_its_floor_where_the_chain_host_does_not():
    # 64 evenly spaced points: the host's delta* is one gap over the
    # diameter, 1/63, while carving at eps/2 keeps every bridge > eps/2
    host = _line_space(np.arange(64) / 63)
    eps = 0.125
    assert ud_modulus(host).delta_star < _ud_floor(host, eps)  # 0.0159 < 0.0625
    out, report = approximate_ud(host, eps)
    assert report.delta_star >= _ud_floor(out, eps)  # 0.0589 >= 0.0520
    assert report.delta_star < 0.5  # the cross-piece term binds


def test_approximate_ud_rangeset_path():
    rng = trial_rng(65, 0)
    S = geometric_range_set(0.5)
    for _ in range(5):
        host = random_s_ultrametric(16, S, rng)
        eps = 0.125  # an element of S
        out, report = approximate_ud(host, eps, S=S)
        assert ultra_distance(out, host, S) <= eps
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
    assert sup_distance(out, host) <= 4 * report.eps_effective
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
    # the UD pipeline's default piece, and the lab's "geo" piece, is the
    # relabelled geometric prefix ultrametric, bit for bit
    for count in (1, 2, 3, 5, 8, 9, 33):
        labels = tuple(f"x{k}" for k in range(count))
        for eps in (0.75, 1e-300, 3e300):
            prefix = geometric_prefix_ultrametric(count, top=eps)
            for piece in (
                _s_ladder_space(labels, eps, geometric_range_set(0.5, eps)),
                _grid_piece("geo", labels, eps),
            ):
                assert piece.labels == labels
                assert piece.flavor == prefix.flavor == "ultrametric"
                assert piece.matrix.tobytes() == prefix.matrix.tobytes()
                assert piece.diameter == (eps if count > 1 else 0.0)
