"""Binary-string spaces, middle-third metrics, and the type generator."""

import hashlib
import math

import numpy as np
import pytest

import oracles as orc
from metriclab import (
    BinaryPointSet,
    GenerationFailed,
    MetricLabError,
    RangeSet,
    SequenceTooShort,
    ShrinkingSequence,
    approximate_ud,
    cantor,
    cantor_prefix_metric,
    diagnose,
    double_exponential_range_set,
    generate_type,
    geometric_prefix_ultrametric,
    geometric_range_set,
    lab,
    sequential_metric,
)
from metriclab.build import _relabel
from metriclab.cantor import MAX_DEPTH, _valuation_matrix, cantor_numerators


# ---------------------------------------------------------------------------
# the point set and valuations


def test_binary_point_set_labels_and_bits():
    points = BinaryPointSet(3)
    assert points.count == 8
    assert points.label(5) == "101"
    assert points.labels[:3] == ("000", "001", "010")
    bits = points.bits()
    assert bits.shape == (8, 3)
    for k, label in enumerate(points.labels):
        assert "".join(str(b) for b in bits[k]) == label


def test_binary_point_set_depth_guards():
    with pytest.raises(ValueError):
        BinaryPointSet(0)
    with pytest.raises(ValueError):
        BinaryPointSet(MAX_DEPTH + 1)


def test_valuation_matches_scan_oracle():
    # off the diagonal the table is the first differing index; on it the
    # stand-in `depth` replaces the infinite index of equal strings
    for depth in (1, 3, 5):
        labels = BinaryPointSet(depth).labels
        table = _valuation_matrix(depth)
        for i, x in enumerate(labels):
            for j, y in enumerate(labels):
                v = orc.valuation_by_scan(x, y)
                if i == j:
                    assert math.isinf(v) and table[i, j] == depth
                else:
                    assert table[i, j] == v


def test_valuation_matrix_equals_pairwise_valuations():
    depth = 4
    labels = BinaryPointSet(depth).labels
    table = _valuation_matrix(depth)
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            v = orc.valuation_by_scan(x, y)
            expected = depth if math.isinf(v) else int(v)
            assert table[i, j] == expected


# ---------------------------------------------------------------------------
# sequential (rung-table) metrics


def test_sequential_metric_is_a_table_lookup():
    s = ShrinkingSequence((1.0, 0.4, 0.3, 0.05))
    space = sequential_metric(s, 4)
    assert space.flavor == "ultrametric"
    for i, x in enumerate(space.labels):
        for j, y in enumerate(space.labels):
            v = orc.valuation_by_scan(x, y)
            expected = 0.0 if math.isinf(v) else s[int(v)]
            assert space.matrix[i, j] == expected
    assert diagnose(space.labels, space.matrix, flavor="ultrametric", tol=0.0) is None


def test_sequential_metric_needs_enough_rungs():
    s = ShrinkingSequence((1.0, 0.5))
    with pytest.raises(SequenceTooShort):
        sequential_metric(s, 3)


# ---------------------------------------------------------------------------
# middle-third constructions


def test_cantor_numerators_match_horner_oracle():
    for depth in (1, 4, 7):
        nums = cantor_numerators(depth)
        assert nums.dtype == np.int64
        for k, label in enumerate(BinaryPointSet(depth).labels):
            assert nums[k] == orc.cantor_numerator_by_horner(label)


def test_euclidean_cantor_metric_formula():
    depth, scale = 5, 0.75
    space = cantor_prefix_metric(1 << depth, scale, depth)
    nums = cantor_numerators(depth)
    gaps = np.abs(nums[:, None] - nums[None, :]).astype(float)
    assert np.array_equal(space.matrix, (scale / 3.0**depth) * gaps)
    assert space.flavor == "metric"
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            cantor_prefix_metric(8, scale=bad, depth=3)
    with pytest.raises(ValueError):
        cantor_prefix_metric(1, scale=0.0)


def test_sibling_gaps_land_on_one_float():
    for depth in (3, 5, 7):
        space = cantor_prefix_metric(1 << depth, 1.0, depth)
        sibling_gaps = {
            float(space.matrix[2 * k, 2 * k + 1]) for k in range(space.n // 2)
        }
        assert len(sibling_gaps) == 1
        assert sibling_gaps == {(1.0 / 3.0**depth) * 2.0}
        assert space.separation == (1.0 / 3.0**depth) * 2.0


def test_prefix_metric_restricts_the_full_metric():
    depth, scale = 4, 2.0
    full = cantor_prefix_metric(1 << depth, scale, depth)
    for count in (1, 3, 5, 16):
        prefix = cantor_prefix_metric(count, scale=scale, depth=depth)
        assert prefix.labels == full.labels[:count]
        assert np.array_equal(prefix.matrix, full.matrix[:count, :count])


def test_prefixes_share_the_sibling_gap_bitwise():
    a = cantor_prefix_metric(5, scale=0.4, depth=4)
    b = cantor_prefix_metric(9, scale=0.4, depth=4)
    assert a.separation == b.separation


def test_prefix_metric_guards_and_default_depth():
    # default depth is the smallest that holds the strings
    assert cantor_prefix_metric(5).n == 5
    assert cantor_prefix_metric(5).labels[0] == "000"
    with pytest.raises(ValueError):
        cantor_prefix_metric(0)
    with pytest.raises(ValueError):
        cantor_prefix_metric(9, depth=3)


def test_geometric_prefix_ultrametric():
    space = geometric_prefix_ultrametric(6, top=0.8)
    assert space.flavor == "ultrametric"
    assert space.diameter == 0.8
    values = sorted(set(space.matrix.ravel().tolist()) - {0.0})
    assert values == sorted(0.8 * 0.5**k for k in range(3))
    lone = geometric_prefix_ultrametric(1, top=1.0)
    assert lone.n == 1
    with pytest.raises(ValueError):
        geometric_prefix_ultrametric(4, top=0.0)


@pytest.mark.parametrize("top", [math.inf, -math.inf, math.nan])
def test_geometric_prefix_ultrametric_rejects_a_non_finite_top(top):
    # one error for every count, and the UD pipeline, which builds its
    # pieces at top = eps, refuses the same eps
    for count in (1, 2, 3):
        with pytest.raises(ValueError, match="top must be positive and finite"):
            geometric_prefix_ultrametric(count, top=top)
    host = geometric_prefix_ultrametric(3, top=1.0)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        approximate_ud(host, top)


# ---------------------------------------------------------------------------
# every binary-string construction, pinned to its bytes

PREFIX_COUNTS = tuple(range(1, 70)) + (127, 128, 129, 256, 257)

# sha256 over the outputs (and error texts) of _binary_string_outputs,
# recorded before the constructions were routed through one depth rule,
# one label rule and one ladder builder.  Re-recorded once for one error
# text: geometric_prefix_ultrametric's guard now reads "top must be
# positive"; with the old text in its place the old digest
# 4dc309b8daf3bc79c8a68573cde8a21ef868838d12cc182cb3f6077d2f45b354 comes out.
BINARY_STRING_DIGEST = "3f348a2fb729e5d4d59afc5aa2297f637617444ea29c616af45937ef8a0e9875"


def _all_strings_metric(depth, scale):
    """The middle-third metric on all 2**depth strings, behind a
    positive-scale guard; the digest covers its outputs and error texts."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return cantor_prefix_metric(BinaryPointSet(depth).count, scale, depth)


def _geometric_ladder(count, top, ratio):
    """The ladder top * ratio**v on the first `count` strings: the
    geometric prefix ultrametric at a ratio other than its own 0.5."""
    depth = cantor._string_depth(count)
    rungs = top * ratio ** np.arange(depth, dtype=float)
    return cantor._ladder_space(rungs, cantor._prefix_labels(count, depth))


def _relabelled_prefix(labels, top):
    """geometric_prefix_ultrametric on `labels`: the UD default piece."""
    return _relabel(geometric_prefix_ultrametric(len(labels), top), labels)


def _binary_string_outputs():
    range_sets = (
        geometric_range_set(0.5),
        RangeSet("explicit", values=(0.0, 0.01, 0.02, 0.1, 0.5, 1.0)),
        double_exponential_range_set(0.5),
    )
    for count in PREFIX_COUNTS:
        labels = tuple(f"x{k}" for k in range(count))
        yield cantor_prefix_metric, (count,)
        yield cantor_prefix_metric, (count, 2.5, 9)
        yield geometric_prefix_ultrametric, (count, 1.0)
        yield _geometric_ladder, (count, 0.125, 0.3)
        yield _relabelled_prefix, (labels, 0.7)
        for S in range_sets:
            yield cantor._s_ladder_space, (labels, 0.3, S)
    for depth in range(-1, 9):
        yield _all_strings_metric, (depth, 3.0)
        yield sequential_metric, (ShrinkingSequence((1.0, 0.5, 0.3, 0.2, 0.1)), depth)
    for bad in ((0,), (5, 1.0, 2), (5, 1.0, 13)):
        yield cantor_prefix_metric, bad
    yield _all_strings_metric, (3, 0.0)
    yield geometric_prefix_ultrametric, (0, 1.0)
    yield geometric_prefix_ultrametric, (4, 0.0)
    yield cantor._s_ladder_space, (("a",), 1e-9, range_sets[1])
    yield cantor._s_ladder_space, (("a", "b"), 1e-9, range_sets[1])
    for seed in range(3):
        for size in (2, 3, 5, 16, 17, 64, 65, 129):
            yield lab.random_space, ("sequential", size, seed)
            yield lab.random_s_ultrametric, (size, geometric_range_set(0.3, 4.0), seed)
    for style in ("geo", "ring", "gapped", "fat", "fat_offset"):
        for count in (2, 3, 5, 8, 9, 33, 54, 64, 65):
            yield lab._grid_piece, (style, tuple(f"g{k}" for k in range(count)), 0.2)
    for bits in ((1, 1, 1), (1, 1, 0)):
        for depth in (4, 5, 6, 7):
            yield cantor._build_recipe, (bits, depth)


def test_binary_string_spaces_keep_their_bytes():
    digest = hashlib.sha256()
    for build_fn, args in _binary_string_outputs():
        try:
            out = build_fn(*args)
        except (MetricLabError, ValueError) as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        if isinstance(out, tuple):  # a recipe: (matrix, flavor, name)
            matrix, flavor, name = out
            digest.update(f"{flavor} {name}".encode())
        else:
            matrix = out.matrix
            digest.update(f"{out.flavor} {out.labels!r}".encode())
        digest.update(matrix.tobytes())
    assert digest.hexdigest() == BINARY_STRING_DIGEST


# ---------------------------------------------------------------------------
# the type generator


MIN_DEPTH = {
    (1, 1, 1): 4,
    (1, 1, 0): 4,
    (0, 1, 1): 6,
    (1, 0, 1): 6,
    (0, 1, 0): 6,
    (1, 0, 0): 6,
    (0, 0, 1): 7,
    (0, 0, 0): 7,
}

RECIPES = {
    (1, 1, 1): "geometric-ladder",
    (1, 1, 0): "gapped-ladder",
    (0, 1, 1): "two-cluster-wide",
    (1, 0, 1): "ring",
    (0, 1, 0): "two-cluster-tight",
    (1, 0, 0): "budded-ring",
    (0, 0, 1): "fat-ring",
    (0, 0, 0): "fat-ring-offset",
}


def test_all_eight_types_generate_at_their_minimum_depth():
    for bits, depth in MIN_DEPTH.items():
        space, recipe = generate_type(bits, depth)
        assert recipe == RECIPES[bits]
        assert space.n == 1 << depth


def test_generation_fails_honestly_below_minimum_depth():
    for bits, depth in MIN_DEPTH.items():
        if depth == 4:
            continue  # depth 4 is the global floor, guarded by ValueError
        with pytest.raises(GenerationFailed):
            generate_type(bits, depth - 1)


def test_generate_type_depth_guards():
    with pytest.raises(ValueError):
        generate_type((1, 1, 1), 3)
    with pytest.raises(ValueError):
        generate_type((1, 1, 1), MAX_DEPTH + 1)
    with pytest.raises(ValueError):
        generate_type((1, 2, 1), 5)


def test_generate_type_seed_permutes_structure_deterministically():
    first, _ = generate_type((1, 1, 1), 5, seed=3)
    again, _ = generate_type((1, 1, 1), 5, seed=3)
    other, _ = generate_type((1, 1, 1), 5, seed=4)
    assert np.array_equal(first.matrix, again.matrix)
    assert not np.array_equal(first.matrix, other.matrix)
    assert first.labels == other.labels  # labels stay canonical
    # the distance multiset is the permuted recipe's, hence preserved
    assert sorted(first.matrix.ravel().tolist()) == sorted(
        other.matrix.ravel().tolist()
    )
