"""Range sets, enveloped sequences, window checks, and the obstruction scan."""

import math
import re

import pytest

import oracles as orc
from metriclab import (
    RangeSet,
    ShrinkingSequence,
    WindowMiss,
    contains,
    double_exponential_range_set,
    exponential_sequence,
    geometric_range_set,
    greatest_leq,
    is_exponential_window,
    ladder,
    least_geq,
    rangeset_from_json,
    realized_envelope,
    sequence_from_json,
    sequence_to_json,
    up_obstruction,
)


# ---------------------------------------------------------------------------
# construction


def test_rangeset_construction_guards():
    with pytest.raises(ValueError):
        RangeSet("explicit", values=())
    with pytest.raises(ValueError):
        RangeSet("explicit", values=(0.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        RangeSet("explicit", values=(1.0, 2.0))  # missing 0
    with pytest.raises(ValueError):
        RangeSet("geometric", ratio=1.5)
    with pytest.raises(ValueError):
        RangeSet("geometric", ratio=0.5, scale=-1.0)
    with pytest.raises(ValueError):
        RangeSet("double_exponential", base=0.0)
    with pytest.raises(ValueError):
        RangeSet("fancy")


def test_helper_constructors():
    S = RangeSet("explicit", values=[0, 1, 2.0])
    assert S.values == (0.0, 1.0, 2.0)
    G = geometric_range_set(0.5, scale=3.0)
    assert (G.ratio, G.scale) == (0.5, 3.0)
    D = double_exponential_range_set(0.5)
    assert D.base == 0.5


# ---------------------------------------------------------------------------
# least_geq / greatest_leq / contains


def test_explicit_neighbors():
    S = RangeSet("explicit", values=(0.0, 0.1, 0.2, 0.4, 0.8))
    assert least_geq(S, 0.2) == 0.2
    assert least_geq(S, 0.25) == 0.4
    assert least_geq(S, 0.9) == math.inf
    assert least_geq(S, 0.0) == 0.0
    assert greatest_leq(S, 0.2) == 0.2
    assert greatest_leq(S, 0.25) == 0.2
    assert greatest_leq(S, 0.05) == 0.0
    assert greatest_leq(S, 9.0) == 0.8
    with pytest.raises(ValueError):
        least_geq(S, -0.1)
    with pytest.raises(ValueError):
        greatest_leq(S, -0.1)


def test_geometric_neighbors_are_bitwise_exact():
    for ratio, scale in ((0.5, 1.0), (0.3, 3.0), (0.9, 0.25)):
        S = geometric_range_set(ratio, scale=scale)
        for n in range(60):
            v = scale * ratio**n
            assert least_geq(S, v) == v
            assert greatest_leq(S, v) == v
            if n >= 1:
                above = scale * ratio ** (n - 1)
                assert least_geq(S, v * (1 + 1e-9)) == above
            below = scale * ratio ** (n + 1)
            assert greatest_leq(S, v * (1 - 1e-9)) == below
        assert least_geq(S, scale * 1.0001) == math.inf
        assert greatest_leq(S, scale * 7.0) == scale


def test_double_exponential_neighbors_are_bitwise_exact():
    S = double_exponential_range_set(0.5)
    for n in range(9):
        v = 0.5 ** (2**n)
        assert least_geq(S, v) == v
        assert greatest_leq(S, v) == v
        if n >= 1:
            assert least_geq(S, v * (1 + 1e-9)) == 0.5 ** (2 ** (n - 1))
        assert greatest_leq(S, v * (1 - 1e-9)) == 0.5 ** (2 ** (n + 1))
    assert least_geq(S, 0.6) == math.inf
    assert greatest_leq(S, 0.6) == 0.5


# At ratio or base 1 - 2**-53 the top elements are consecutive floats,
# so a query one ulp off an element is the next element.
_NEAR_ONE = 1 - 2**-53
_PARAMETRIC_SETS = (
    [
        ("geometric", ratio, scale)
        for scale in (1e-300, 1.0, 3.7, 1e300)
        for ratio in (0.001, 0.1, 0.5, 0.9, 0.999)
    ]
    + [
        ("double_exponential", base, 1.0)
        for base in (1e-100, 0.001, 0.5, 0.9, 0.999999, _NEAR_ONE)
    ]
    + [("geometric", _NEAR_ONE, 1.0)]
)


@pytest.mark.parametrize("kind,param,scale", _PARAMETRIC_SETS)
def test_parametric_queries_match_enumeration(kind, param, scale):
    if kind == "geometric":
        S = geometric_range_set(param, scale=scale)
    else:
        S = double_exponential_range_set(param)
    # Ratio 1 - 2**-53 holds about 2**62 elements before underflow; its
    # first 64 settle every query, ladders of 3 included, at or above
    # the 62nd, and only those queries are asked.
    listed = 64 if (kind, param) == ("geometric", _NEAR_ONE) else None
    elements = orc.parametric_elements(kind, param, scale, listed)
    members = [0.0] + sorted(elements)
    last = len(elements) - 1
    picks = {0, 1, 2, last // 2, last - 2, last - 1, last} & set(range(last + 1))
    xs = [5e-324, 1e-310, 2 * elements[0]]
    for n in sorted(picks):
        v = elements[n]
        xs += [v, v * (1 + 1e-15), v * (1 - 1e-15)]
        xs += [math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    if listed is not None:
        xs = [x for x in xs if x >= elements[-3]]
    for x in xs:
        assert least_geq(S, x) == orc.least_geq_by_scan(members, x)
        below = greatest_leq(S, x)
        assert below == orc.greatest_leq_by_scan(members, x)
        assert contains(S, x) == (orc.least_geq_by_scan(members, x) == x)
        if below > 0:
            rungs = orc.ladder_by_scan(elements, x, 3)
            if rungs[-1] > 0 and all(b < a for a, b in zip(rungs, rungs[1:])):
                assert ladder(S, x, 3) == rungs
            else:
                with pytest.raises(ValueError):
                    ladder(S, x, 3)


_EXPLICIT_SETS = [
    (0.0, 1.0),
    (0.0, 0.1, 0.2, 0.4, 0.8),
    (0.0, 5e-324, 1e-310, 1e-300, 0.5, 3.0, 1e300),
    (0.0, 1.0, 1.0 + 2.0**-52, 2.0),
]


@pytest.mark.parametrize("values", _EXPLICIT_SETS)
def test_explicit_queries_match_enumeration(values):
    S = RangeSet("explicit", values=values)
    members = list(values)
    positive = members[:0:-1]  # decreasing, as a ladder reads them
    xs = [0.0, 5e-324, math.inf, 2 * members[-1]]
    for v in members:
        xs += [v, v * (1 + 1e-15), v * (1 - 1e-15), v + 1e-12]
    for x in xs:
        assert least_geq(S, x) == orc.least_geq_by_scan(members, x)
        below = greatest_leq(S, x)
        assert below == orc.greatest_leq_by_scan(members, x)
        assert contains(S, x) == (orc.least_geq_by_scan(members, x) == x)
        if below == 0:
            continue
        held = sum(v <= x for v in positive)
        for count in range(1, len(positive) + 2):
            if count <= held:
                assert ladder(S, x, count) == orc.ladder_by_scan(positive, x, count)
            else:
                message = f"explicit set holds only {held} positive values <= {x!r}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    ladder(S, x, count)


def test_contains_with_and_without_slack():
    S = geometric_range_set(0.5)
    assert contains(S, 0.125)
    assert not contains(S, 0.13)
    assert contains(S, 0.13, tol=0.01)
    assert contains(S, 0.0)


# ---------------------------------------------------------------------------
# shrinking sequences and envelopes


def test_shrinking_sequence_basics():
    s = ShrinkingSequence((1.0, 0.5, 0.2))
    assert len(s) == 3 and s[1] == 0.5
    assert s.envelope is None


def test_shrinking_sequence_guards():
    with pytest.raises(ValueError):
        ShrinkingSequence(())
    with pytest.raises(ValueError):
        ShrinkingSequence((1.0, 0.0))
    with pytest.raises(ValueError):
        ShrinkingSequence((1.0, 1.0))
    with pytest.raises(ValueError):
        ShrinkingSequence((0.5, 1.0))


def test_envelope_verification():
    ShrinkingSequence((1.0, 0.5, 0.25), envelope=(0.5, 1.0))  # exact bands
    ShrinkingSequence((1.0, 0.6, 0.2), envelope=(0.5, 1.5))
    with pytest.raises(ValueError):
        ShrinkingSequence((1.0, 0.9), envelope=(0.5, 1.0))  # 0.9 escapes
    with pytest.raises(ValueError):
        ShrinkingSequence((1.0, 0.5), envelope=(1.5, 2.0))  # bad ratio
    with pytest.raises(ValueError):
        ShrinkingSequence((1.0, 0.5), envelope=(0.5, 0.9))  # M < 1


def test_realized_envelope_recomputation():
    values = (1.0, 0.3, 0.12)
    a = 0.5
    got = realized_envelope(values, a)
    expected = 1.0
    for k, v in enumerate(values):
        band = a**k
        expected = max(expected, v / band, band / v)
    assert got == (a, expected)
    # the realized constant always re-verifies
    ShrinkingSequence(values, envelope=got)


# ---------------------------------------------------------------------------
# exponential windows


def test_window_check_passes_for_matching_geometry():
    S = geometric_range_set(0.5)
    check = is_exponential_window(S, 0.5, 1.5, 20)
    assert check.ok and check.first_fail is None
    assert len(check.witnesses) == 21
    for n, w in enumerate(check.witnesses):
        assert 0.5**n / 1.5 <= w <= 1.5 * 0.5**n
        assert contains(S, w)


def test_window_check_reports_first_failure():
    # M = 1.05 is too tight for ratio-0.5 windows around powers of 0.6:
    # window 1 is [0.6/1.05, 0.63] and the nearest elements are 0.5 and 1.
    S = geometric_range_set(0.5)
    check = is_exponential_window(S, 0.6, 1.05, 10)
    assert not check.ok
    assert check.first_fail == 1
    assert check.witnesses == (1.0,)


def test_window_check_guards():
    S = geometric_range_set(0.5)
    with pytest.raises(ValueError):
        is_exponential_window(S, 1.0, 1.5, 5)
    with pytest.raises(ValueError):
        is_exponential_window(S, 0.5, 0.5, 5)
    with pytest.raises(ValueError):
        is_exponential_window(S, 0.5, 1.5, 0)


def test_exponential_sequence_success():
    S = geometric_range_set(0.5)
    b, big_m = 0.5, 1.5
    seq = exponential_sequence(S, b, big_m, 8)
    assert len(seq) == 8
    p = -math.log(big_m) / math.log(b)
    a = b ** (2 * p + 1)
    assert seq.envelope[0] == a
    assert seq.envelope == realized_envelope(seq.values, a)
    for k, v in enumerate(seq.values):
        assert contains(S, v)
        assert v == least_geq(S, a**k / big_m)
    assert all(x > y for x, y in zip(seq.values, seq.values[1:]))


def test_exponential_sequence_window_miss():
    S = geometric_range_set(0.5)
    with pytest.raises(WindowMiss) as info:
        exponential_sequence(S, 0.6, 1.05, 8)
    assert info.value.index == 1


def test_exponential_sequence_guards():
    S = geometric_range_set(0.5)
    with pytest.raises(ValueError):
        exponential_sequence(S, 0.0, 1.5, 4)
    with pytest.raises(ValueError):
        exponential_sequence(S, 0.5, 0.5, 4)
    with pytest.raises(ValueError):
        exponential_sequence(S, 0.5, 1.5, 0)


# ---------------------------------------------------------------------------
# ladders


def test_geometric_ladder_is_exact():
    S = geometric_range_set(0.5)
    assert ladder(S, 0.3, 4) == (0.5**2, 0.5**3, 0.5**4, 0.5**5)
    assert ladder(S, 1.0, 2) == (1.0, 0.5)
    assert ladder(S, 100.0, 1) == (1.0,)


def test_explicit_ladder_and_exhaustion():
    S = RangeSet("explicit", values=(0.0, 0.1, 0.2, 0.4, 0.8))
    assert ladder(S, 0.5, 3) == (0.4, 0.2, 0.1)
    with pytest.raises(ValueError):
        ladder(S, 0.5, 4)
    with pytest.raises(ValueError):
        ladder(S, 0.05, 1)  # nothing positive below the cap


def test_double_exponential_ladder():
    S = double_exponential_range_set(0.5)
    got = ladder(S, 0.3, 3)
    assert got == (0.5 ** (2**1), 0.5 ** (2**2), 0.5 ** (2**3))


def test_ladder_rejects_rungs_that_round_together_or_to_zero():
    # subnormal elements: 0.999-steps below 1e-321 round to one float, and
    # 0.5-steps below 1e-323 reach 0
    with pytest.raises(ValueError):
        ladder(geometric_range_set(0.999, 1e-300), 1e-321, 3)
    with pytest.raises(ValueError):
        ladder(geometric_range_set(0.5), 1e-323, 3)
    assert ladder(geometric_range_set(0.5), 4e-323, 3) == (4e-323, 2e-323, 1e-323)


def test_ladder_guards():
    S = geometric_range_set(0.5)
    with pytest.raises(ValueError):
        ladder(S, 0.5, 0)
    with pytest.raises(ValueError):
        ladder(S, 0.0, 1)


# ---------------------------------------------------------------------------
# the obstruction scan


def test_obstruction_frozen_values_and_oracle():
    S = double_exponential_range_set(0.5)
    svals = [0.5 ** (2**k) for k in range(10)]
    frozen = {
        0.3: orc.FROZEN["up_obstruction_03"],
        0.5: orc.FROZEN["up_obstruction_05"],
        0.7: orc.FROZEN["up_obstruction_07"],
    }
    for c, expected in frozen.items():
        got = up_obstruction(S, c, 6)
        assert got == expected
        assert got == orc.up_obstruction_by_scan(svals, c, 6)


def test_obstruction_absent_for_matching_geometry():
    # windows for c <= 1/sqrt(2) span at least one octave, so each one
    # catches a power of two and the scan never finds an obstruction
    S = geometric_range_set(0.5)
    assert up_obstruction(S, 0.5, 25) is None
    assert up_obstruction(S, 0.7, 25) is None


def test_obstruction_found_for_narrow_windows():
    # c > 1/sqrt(2) narrows the window below one octave, so some window
    # falls between consecutive powers of two
    S = geometric_range_set(0.5)
    svals = [0.5**k for k in range(60)]
    for c, expected in ((0.8, 2), (0.75, 6)):
        assert up_obstruction(S, c, 10) == expected
        assert orc.up_obstruction_by_scan(svals, c, 10) == expected


def test_obstruction_skips_windows_above_the_whole_set():
    # for c = 0.7 the n = 0 window [0.7, 1.43] lies above max(S) = 0.5:
    # no S-valued space has distances there, so it witnesses nothing.
    S = double_exponential_range_set(0.5)
    n = up_obstruction(S, 0.7, 6)
    assert n == 5
    lo, hi = 0.7**6, 0.7**4
    assert least_geq(S, lo) > hi  # the window truly misses S
    assert math.isfinite(least_geq(S, lo))  # but S continues above it


def test_obstruction_guards():
    S = geometric_range_set(0.5)
    with pytest.raises(ValueError):
        up_obstruction(S, 1.0, 5)
    with pytest.raises(ValueError):
        up_obstruction(S, 0.5, 0)


# ---------------------------------------------------------------------------
# JSON forms


def test_rangeset_json_parses_the_three_kinds():
    cases = (
        (
            {"kind": "explicit", "values": [0.0, 0.25, 1.0]},
            RangeSet("explicit", values=(0.0, 0.25, 1.0)),
        ),
        ({"kind": "geometric", "ratio": 0.3, "scale": 2.0}, geometric_range_set(0.3, scale=2.0)),
        ({"kind": "geometric", "ratio": 0.3}, geometric_range_set(0.3)),
        ({"kind": "double_exponential", "base": 0.5}, double_exponential_range_set(0.5)),
    )
    for obj, expected in cases:
        assert rangeset_from_json(obj) == expected


def test_rangeset_json_guards():
    with pytest.raises(ValueError):
        rangeset_from_json({"values": [0.0, 1.0]})
    with pytest.raises(ValueError):
        rangeset_from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        rangeset_from_json({"kind": "geometric"})


def test_sequence_json_round_trips():
    plain = ShrinkingSequence((1.0, 0.5, 0.2))
    enveloped = ShrinkingSequence((1.0, 0.5, 0.25), envelope=(0.5, 1.0))
    for s in (plain, enveloped):
        back = sequence_from_json(sequence_to_json(s))
        assert back.values == s.values
        assert back.envelope == s.envelope
    with pytest.raises(ValueError):
        sequence_from_json({"envelope": None})
