"""Acceptance gate: nine end-to-end criteria, one test and one verdict line each.

Every test prints ``ACCEPTANCE <k>: PASS — <detail>`` as its last action, so
the ``pytest -v`` transcript carries one pass/fail line per criterion (the
FAILED line plus the captured assertion serve as the failure verdict).
"""

import time

import numpy as np

import oracles as orc
from metriclab import (
    ClopenPartition,
    ExperimentConfig,
    ShrinkingSequence,
    amalgamate_metric,
    amalgamate_ultrametric,
    approximate_doubling,
    approximate_ud,
    approximate_up,
    bottleneck_matrix,
    cantor_prefix_metric,
    carve_pieces,
    default_metric_piece,
    diagnose,
    double_exponential_range_set,
    explicit_range_set,
    exponential_sequence,
    generate_type,
    geometric_prefix_ultrametric,
    geometric_range_set,
    greedy_net,
    metric_closure,
    random_s_ultrametric,
    random_space,
    run_experiment,
    sequential_metric,
    sup_distance,
    trial_rng,
    ultra_distance,
    up_constant,
    up_obstruction,
    validate,
)
from metriclab.cantor import _valuation_matrix

TRIALS = 100
SUP_BOUND_FACTOR = 4.0
AMALGAM_TIME_LIMIT_S = 10.0
TYPE_GRID_TIME_LIMIT_S = 60.0
EMBED_ATOL = 1e-12  # relative to the diameter scale
UP_ORACLE_TOL = 1e-6
VALIDATION_TOL = 1e-9

FROZEN_OBSTRUCTIONS = {0.3: 6, 0.5: 6, 0.7: 5}


def _verdict(k: int, detail: str) -> None:
    print(f"ACCEPTANCE {k}: PASS — {detail}")


def _metric_amalgams(mode: str, n: int, seed: int) -> list[tuple[int, float]]:
    """Carve and amalgamate TRIALS hosts, asserting the criterion-1 bounds;
    return (largest piece size, sup distance / eps) per trial."""
    stats = []
    for trial in range(TRIALS):
        rng = trial_rng(seed, trial)
        host = random_space(mode, n, rng)
        eps = host.diameter / 8.0
        partition = carve_pieces(host, eps)
        pieces = [
            default_metric_piece(tuple(host.labels[i] for i in piece), eps)
            for piece in partition.pieces
        ]
        assert all(piece.diameter <= eps for piece in pieces)
        out = amalgamate_metric(host, partition, pieces)
        sup = sup_distance(out, host).value
        assert sup <= SUP_BOUND_FACTOR * eps
        for k, piece in enumerate(partition.pieces):
            block = out.matrix[np.ix_(piece, piece)]
            assert np.array_equal(block, pieces[k].matrix)
        stats.append((max(len(piece) for piece in partition.pieces), sup / eps))
    return stats


def test_criterion_1_metric_amalgamation_bound():
    started = time.monotonic()
    _metric_amalgams("closure", 64, 101)
    elapsed = time.monotonic() - started
    assert elapsed < AMALGAM_TIME_LIMIT_S
    _verdict(
        1,
        f"{TRIALS}/{TRIALS} amalgams within 4*eps with bit-exact piece "
        f"restrictions in {elapsed:.2f}s",
    )


def test_criterion_1_metric_amalgamation_bound_on_point_hosts():
    # closure hosts carve into singletons only, so the amalgam is the host;
    # planar max-norm hosts carve into real pieces and move distances
    stats = _metric_amalgams("points_linf", 128, 111)
    assert all(largest >= 2 and ratio > 0 for largest, ratio in stats)
    worst = max(ratio for _, ratio in stats)
    _verdict(
        1,
        f"{TRIALS}/{TRIALS} point-host amalgams with multi-point pieces within "
        f"4*eps (worst sup/eps {worst:.2f})",
    )


def test_criterion_2_ultrametric_amalgamation_bound():
    S = geometric_range_set(0.5)
    for trial in range(TRIALS):
        rng = trial_rng(102, trial)
        host = random_s_ultrametric(64, S, rng)
        eps = host.diameter / 8.0
        out, report = approximate_ud(host, eps, S=S)
        assert ultra_distance(out, host, S).value <= eps
        assert report.delta_star > 0
        assert diagnose(out.labels, out.matrix, flavor="ultrametric", tol=0.0) is None
    _verdict(
        2,
        f"{TRIALS}/{TRIALS} ultrametric amalgams within eps over the halving "
        f"range set; strong triangle inequality exact at zero tolerance",
    )


def _doubling_approximations(mode: str, n: int, seed: int) -> list[tuple[int, float]]:
    """Approximate TRIALS hosts through their nets, asserting the
    criterion-3 bounds; return (net size, sup distance / eps) per trial."""
    stats = []
    for trial in range(TRIALS):
        rng = trial_rng(seed, trial)
        host = random_space(mode, n, rng)
        eps = host.diameter / 8.0
        out, embedding = approximate_doubling(host, eps)
        sup = sup_distance(out, host).value
        assert sup <= SUP_BOUND_FACTOR * eps
        linf = embedding.pairwise_linf()
        assert np.array_equal(out.matrix, linf)
        assert np.abs(out.matrix - linf).max() <= EMBED_ATOL * host.diameter
        net = greedy_net(host, eps)
        block = host.matrix[np.ix_(net, net)]
        off = block[~np.eye(len(net), dtype=bool)]
        assert len(net) == 1 or off.min() >= eps
        assert host.matrix[:, net].min(axis=1).max() < eps
        stats.append((len(net), sup / eps))
    return stats


def test_criterion_3_doubling_approximation():
    _doubling_approximations("closure", 64, 103)
    _verdict(
        3,
        f"{TRIALS}/{TRIALS} outputs within 4*eps, bit-identical to their "
        f"max-norm embeddings, over eps-separated eps-covering nets",
    )


def test_criterion_3_doubling_approximation_on_point_hosts():
    # closure hosts keep every point in the net; on planar max-norm hosts
    # the net is a proper subset and the embedding moves distances
    n = 128
    stats = _doubling_approximations("points_linf", n, 113)
    assert all(1 < size < n and ratio > 0 for size, ratio in stats)
    sizes = [size for size, _ in stats]
    worst = max(ratio for _, ratio in stats)
    _verdict(
        3,
        f"{TRIALS}/{TRIALS} point-host outputs within 4*eps over nets of "
        f"{min(sizes)}-{max(sizes)} of {n} points (worst sup/eps {worst:.2f})",
    )


def test_criterion_4_oracle_equivalences():
    modes = ("closure", "points_linf", "sequential")

    for trial in range(200):
        rng = trial_rng(11, trial)
        space = random_space(modes[trial % 3], 2 + trial % 7, rng)
        assert np.array_equal(
            bottleneck_matrix(space), orc.bottleneck_by_paths(space.matrix)
        )

    worst = 0.0
    for trial in range(50):
        rng = trial_rng(17, trial)
        n = int(rng.integers(4, 33))
        space = random_space(modes[trial % 3], n, rng)
        r_min = (
            space.separation
            if trial % 2 == 0
            else 0.5 * (space.separation + space.diameter)
        )
        lib = up_constant(space, r_min).c_star
        ref = orc.up_constant_by_radii(space.matrix, r_min)
        worst = max(worst, abs(lib - ref))
        assert abs(lib - ref) <= UP_ORACLE_TOL

    s_values = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0)
    S = explicit_range_set(s_values)
    labels = tuple(format(k, "03b") for k in range(8))
    positives = np.array(s_values[1:])

    def ladder(rng):
        rungs = np.sort(rng.choice(positives, size=3, replace=False))[::-1]
        table = np.append(rungs, 0.0)
        return validate(labels, table[_valuation_matrix(3)], flavor="ultrametric")

    for trial in range(40):
        rng = trial_rng(13, trial)
        d, e = ladder(rng), ladder(rng)
        lib = ultra_distance(d, e, S).value
        ref = orc.ultra_dist(d.matrix, e.matrix, s_values)
        assert lib == ref
    _verdict(
        4,
        f"bottleneck matrix exact on 200 spaces; annulus constant within "
        f"{UP_ORACLE_TOL:g} of the radii-scan oracle on 50 spaces "
        f"(worst {worst:.2e}); closed-form ultra-distance exact on 40 pairs",
    )


def test_criterion_5_enveloped_sequence_bound():
    for trial in range(20):
        rng = trial_rng(55, trial)
        a = float(rng.uniform(0.3, 0.7))
        M = float(rng.uniform(1.0, 3.0))
        factors = [float(rng.uniform(1.0 / M, M))]
        for _ in range(6):
            factors.append(float(rng.uniform(1.0 / M, min(M, factors[-1] / a * 0.999))))
        values = tuple(a**k * factors[k] for k in range(7))
        sequence = ShrinkingSequence(values, envelope=(a, M))
        space = sequential_metric(sequence, 7)
        report = up_constant(space, values[5])
        assert report.c_star >= a / M**2
        assert report.c_star == min(values[k + 1] / values[k] for k in range(5))

    geometric = ShrinkingSequence(tuple(0.5**k for k in range(7)), envelope=(0.5, 1.0))
    space = sequential_metric(geometric, 7)
    assert up_constant(space, geometric.values[5]).c_star == 0.5
    _verdict(
        5,
        "annulus constant >= a/M^2 on 20 enveloped draws and equal to the "
        "closed-form consecutive-ratio minimum; geometric ladder exact at 0.5",
    )


def test_criterion_6_window_dichotomy():
    S = geometric_range_set(0.5)
    for trial in range(20):
        rng = trial_rng(66, trial)
        b = float(rng.uniform(0.3, 0.8))
        M = float(rng.uniform(1.5, 3.0))
        sequence = exponential_sequence(S, b, M, 8)
        values = sequence.values
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        env_a, env_M = sequence.envelope
        for k, value in enumerate(values):
            assert env_a**k / env_M <= value <= env_M * env_a**k

    S_gap = double_exponential_range_set(0.5)
    checked = 0
    for c, expected in FROZEN_OBSTRUCTIONS.items():
        n = up_obstruction(S_gap, c, 6)
        assert n == expected and n <= 6
        r_min = c ** (n - 1) * c
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            exponents = np.concatenate(
                ([0], np.sort(rng.choice(np.arange(1, 9), size=6, replace=False)))
            )
            rungs = tuple(0.5 ** (2.0**e) for e in exponents)
            space = sequential_metric(ShrinkingSequence(rungs), 7)
            assert up_constant(space, r_min).c_star < c
            checked += 1
    _verdict(
        6,
        f"20 enveloped extractions strictly decreasing and in-window; "
        f"obstruction levels frozen at {FROZEN_OBSTRUCTIONS} and all "
        f"{checked} gap-valued ultrametrics fall below their c",
    )


def test_criterion_7_perturbation_stability():
    report = run_experiment(ExperimentConfig("perturb_uniform", trials=TRIALS, seed=77))
    assert report["summary"]["all_pass"]
    for row in report["rows"]:
        assert row["achieved"] < 0.5
        assert row["after_min_diam_ratio"] >= 0.5
        assert row["after_max_sep_ratio"] <= 2.0

    report = run_experiment(ExperimentConfig("perturb_chain", trials=TRIALS, seed=78))
    assert report["summary"]["all_pass"]
    for row in report["rows"]:
        assert row["before_delta_star"] == 1.0 / 32.0
        assert row["bound"] == 4.0 / 32.0
        assert row["achieved"] <= row["bound"]
    _verdict(
        7,
        f"{TRIALS}/{TRIALS} uniform perturbations kept subset diameters >= 1/2 "
        f"and separations <= 2x; {TRIALS}/{TRIALS} chain perturbations kept "
        f"the chain modulus within 4x",
    )


def test_criterion_8_type_grid():
    started = time.monotonic()
    report = run_experiment(ExperimentConfig("type_grid", depth=7, seed=0))
    elapsed = time.monotonic() - started
    assert report["summary"]["all_pass"]
    assert report["summary"]["rows"] == 8
    for row in report["rows"]:
        assert row["error"] is None
        assert row["standalone"] == row["target"]
        assert row["amalgam"] == row["target"]
        assert row["sup_distance"] <= SUP_BOUND_FACTOR * row["epsilon"]
    assert elapsed < TYPE_GRID_TIME_LIMIT_S
    _verdict(
        8,
        f"all 8 depth-7 recipes hit their targets standalone and after "
        f"amalgamation within 4*eps in {elapsed:.2f}s",
    )


def _representative_outputs():
    """One output space per construction family, for the axiom sweep."""
    outputs = []

    positions = np.array([0.0, 0.3, 10.0, 10.2, 10.4])
    labels = tuple(f"p{k}" for k in range(5))
    host = validate(labels, np.abs(positions[:, None] - positions[None, :]))
    partition = carve_pieces(host, 1.0)
    pieces = [
        default_metric_piece(tuple(host.labels[i] for i in piece), 1.0)
        for piece in partition.pieces
    ]
    outputs.append(amalgamate_metric(host, partition, pieces))

    S = geometric_range_set(0.5)
    table = np.array([1.0, 0.5, 0.0])
    ult_labels = ("00", "01", "10", "11")
    ult_host = validate(
        ult_labels, table[_valuation_matrix(2)], flavor="ultrametric"
    )
    ult_partition = ClopenPartition(((0, 1), (2, 3)), (0, 2))
    small = np.array([[0.0, 0.125], [0.125, 0.0]])
    ult_pieces = [
        validate(tuple(ult_host.labels[i] for i in piece), small, flavor="ultrametric")
        for piece in ult_partition.pieces
    ]
    outputs.append(amalgamate_ultrametric(ult_host, ult_partition, ult_pieces, S))

    rng = trial_rng(900, 0)
    closure_host = random_space("closure", 24, rng)
    outputs.append(approximate_doubling(closure_host, closure_host.diameter / 8.0)[0])

    from metriclab.lab import grid_host

    clustered = grid_host(24, trial_rng(900, 1))
    outputs.append(approximate_ud(clustered, 0.25)[0])
    outputs.append(approximate_up(clustered, 0.25)[0])
    outputs.append(
        approximate_ud(random_s_ultrametric(16, S, trial_rng(900, 2)), 0.125, S=S)[0]
    )

    outputs.append(cantor_prefix_metric(10, scale=2.0, depth=4))
    outputs.append(geometric_prefix_ultrametric(9, top=0.8))
    outputs.append(sequential_metric(ShrinkingSequence((0.9, 0.4, 0.15)), 3))
    outputs.append(generate_type((1, 1, 1), 4, seed=2)[0])
    outputs.append(generate_type((1, 1, 0), 4, seed=3)[0])

    raw = trial_rng(900, 3).uniform(0.2, 3.0, size=(12, 12))
    raw = np.triu(raw, k=1)
    outputs.append(metric_closure(tuple(f"q{k}" for k in range(12)), raw + raw.T))
    return outputs


def test_criterion_9_axioms_and_fuzzed_violations():
    outputs = _representative_outputs()
    for space in outputs:
        violation = diagnose(
            space.labels, space.matrix, flavor=space.flavor, tol=VALIDATION_TOL
        )
        assert violation is None

    cases = 0
    for trial in range(30):
        rng = trial_rng(91, trial)
        host = random_space("closure", 10, rng)
        n = host.n
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))

        m = host.matrix.copy()
        m[i, i] = float(rng.uniform(0.1, 1.0)) * (1 if trial % 2 else -1)
        v = diagnose(host.labels, m, tol=VALIDATION_TOL)
        assert v.axiom == "zero_diagonal" and v.indices == (i, i)
        assert m[v.indices] != 0
        cases += 1

        m = host.matrix.copy()
        m[i, j] += 0.25 * host.diameter
        v = diagnose(host.labels, m, tol=VALIDATION_TOL)
        assert v.axiom == "symmetry" and set(v.indices) == {i, j}
        assert m[v.indices] != m[v.indices[::-1]]
        cases += 1

        m = host.matrix.copy()
        m[i, j] = m[j, i] = -float(rng.uniform(0.0, 1.0))
        v = diagnose(host.labels, m, tol=VALIDATION_TOL)
        assert v.axiom == "positivity" and set(v.indices) == {i, j}
        assert m[v.indices] <= 0
        cases += 1

        m = host.matrix.copy()
        m[i, j] = m[j, i] = 2.5 * host.diameter
        v = diagnose(host.labels, m, tol=VALIDATION_TOL)
        assert v.axiom == "triangle" and set(v.indices[:2]) == {i, j}
        a, b, c = v.indices
        assert m[a, b] > m[a, c] + m[c, b]
        cases += 1

    for trial in range(30):
        rng = trial_rng(92, trial)
        host = random_space("sequential", 16, rng)
        rungs = np.unique(host.matrix[host.matrix > 0])
        pairs = np.argwhere(host.matrix == rungs[0])
        i, j = (int(v) for v in pairs[rng.integers(len(pairs))])
        m = host.matrix.copy()
        m[i, j] = m[j, i] = float(rng.uniform(1.05, 1.95)) * rungs[1]
        v = diagnose(host.labels, m, flavor="ultrametric", tol=VALIDATION_TOL)
        assert v.axiom == "strong_triangle" and set(v.indices[:2]) == {i, j}
        a, b, c = v.indices
        assert m[a, b] > max(m[a, c], m[c, b])
        cases += 1
    _verdict(
        9,
        f"{len(outputs)} construction outputs pass the {VALIDATION_TOL:g} "
        f"validator; {cases} fuzzed corruptions each named the right axiom "
        f"with a numerically verified witness",
    )
