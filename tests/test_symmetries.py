"""Exact relations that the three moduli owe to scaling and relabelling.

Every modulus is a ratio of matrix entries, or a chain cost read off the
entries, so scaling the metric by a power of two (an exact float
operation at these scales) leaves each ratio and witness bit-equal and
scales each length by the same power.  Relabelling the points leaves
every value unchanged and permutes the bottleneck matrix; the sampled
doubling search draws its subsets by index, so it is held to scaling
only.  The bottleneck is a minimax over chains, so it commutes with any
increasing map of the entries, squaring included, even where the
squared matrix is no metric; a chain sum does not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import (
    FiniteMetricSpace,
    bottleneck_matrix,
    doubling_constant,
    geometric_range_set,
    random_s_ultrametric,
    random_space,
    trial_rng,
    ud_modulus,
    up_constant,
)
from metriclab.moduli import EXHAUSTIVE_LIMIT

KINDS = ["closure", "points_linf", "sequential", "s_ultrametric"]
POWERS = (-40, -1, 1, 40)


def _host(kind: str, n: int, seed: int) -> FiniteMetricSpace:
    if kind == "s_ultrametric":
        return random_s_ultrametric(n, geometric_range_set(0.5), trial_rng(seed, 0))
    return random_space(kind, n, trial_rng(seed, 0))


def _with_matrix(space: FiniteMetricSpace, matrix: np.ndarray) -> FiniteMetricSpace:
    return FiniteMetricSpace(space.labels, matrix, space.flavor)


def _doubling(space, beta, budget):
    report = doubling_constant(space, beta, budget=budget, rng=3)
    return report.constant, report.witness, report.mode


def _up_cutoff(space: FiniteMetricSpace):
    """The largest nearest-neighbour distance: no point is isolated there,
    so c* is a true ratio, not the 0 of an empty annulus; None when it
    reaches the diameter and the scale window is empty."""
    nearest = np.where(np.eye(space.n, dtype=bool), np.inf, space.matrix).min(axis=1)
    r_min = float(nearest.max())
    return r_min if r_min < space.diameter else None


def _check_scaling(space, beta, budget):
    doubling = _doubling(space, beta, budget)
    ud = ud_modulus(space)
    r_min = _up_cutoff(space)
    up = up_constant(space, r_min) if r_min is not None else None
    for k in POWERS:
        scale = 2.0**k
        scaled = _with_matrix(space, space.matrix * scale)
        assert _doubling(scaled, beta, budget) == doubling
        scaled_ud = ud_modulus(scaled)
        assert (scaled_ud.delta_star, scaled_ud.witness_pair) == (ud.delta_star, ud.witness_pair)
        assert np.array_equal(scaled_ud.bottleneck, ud.bottleneck * scale)
        if up is not None:
            scaled_up = up_constant(scaled, r_min * scale)
            assert scaled_up.c_star == up.c_star
            assert scaled_up.witness == (up.witness[0], up.witness[1] * scale)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=12),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.integers(min_value=0, max_value=2**16),
)
def test_scaling_by_a_power_of_two_is_exact(kind, n, beta, seed):
    # exhaustive doubling, delta* and c* with their witnesses are
    # bit-equal; the bottleneck matrix and the UP radius scale exactly
    _check_scaling(_host(kind, n, seed), beta, 0)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=EXHAUSTIVE_LIMIT + 1, max_value=40),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=2**16),
)
def test_scaling_keeps_the_sampled_search_bit_equal(kind, n, beta, budget, seed):
    # same draws, same pruning decisions, same constant and witness
    space = _host(kind, n, seed)
    assert _doubling(space, beta, budget)[2] == "sampled"
    _check_scaling(space, beta, budget)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=12),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.integers(min_value=0, max_value=2**16),
)
def test_relabelling_keeps_the_values_and_permutes_the_bottleneck(kind, n, beta, seed):
    # the witnesses may move to another tied subset, pair or point, so
    # only the values are compared
    space = _host(kind, n, seed)
    p = trial_rng(seed, 1).permutation(n)
    relabelled = _with_matrix(space, space.matrix[np.ix_(p, p)])
    assert doubling_constant(relabelled, beta).constant == doubling_constant(space, beta).constant
    ud, relabelled_ud = ud_modulus(space), ud_modulus(relabelled)
    assert relabelled_ud.delta_star == ud.delta_star
    assert np.array_equal(relabelled_ud.bottleneck, ud.bottleneck[np.ix_(p, p)])
    r_min = _up_cutoff(space)
    if r_min is not None:
        assert up_constant(relabelled, r_min).c_star == up_constant(space, r_min).c_star


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=2**16),
)
def test_bottleneck_commutes_with_squaring_the_entries(kind, n, seed):
    # fl(x * x) is nondecreasing, so it commutes with the max over a
    # chain's steps and the min over chains, bit for bit
    space = _host(kind, n, seed)
    squared = _with_matrix(space, space.matrix * space.matrix)
    bottleneck = bottleneck_matrix(space)
    assert np.array_equal(bottleneck_matrix(squared), bottleneck * bottleneck)
