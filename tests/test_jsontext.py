"""The JSON writer against the indenting encoder whose bytes it keeps."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.jsontext import dumps


def _reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _nan_with_payload(mantissa: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000000 | mantissa))[0]


EDGE_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0
]
floats = (
    st.floats()
    | st.sampled_from(EDGE_FLOATS)
    | st.integers(min_value=1, max_value=2**52 - 1).map(_nan_with_payload)
)


@st.composite
def float_matrices(draw):
    # few distinct values, the way an ultrametric's matrix has them
    pool = draw(st.lists(floats, min_size=1, max_size=6))
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    return [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]


scalars = st.none() | st.booleans() | st.integers() | floats | st.text()
numbers = st.booleans() | st.integers() | floats
leaves = (
    scalars
    | float_matrices()
    | st.lists(st.lists(floats, max_size=4), max_size=4)  # ragged and empty rows
    | st.lists(st.lists(numbers, min_size=1, max_size=4), min_size=1, max_size=4)
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values)
def test_dumps_matches_the_indenting_encoder(value):
    assert dumps(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {"é\n\"\\\t ": "ü\x00☃", "": [], "k": {}},
        {1: "a", 10: "b", -3: "c"},
        {0.5: 1, -0.0: 2, math.inf: 3},
        {True: 1, False: 2},
        {None: [1.0]},
        [[5e-324]],
        [[0.0, -0.0], [-0.0, 0.0]],
        [[1.0, 2.0], [3.0]],
        [[1.0], []],
        [(1.0, 2.0), (3.0, 4.0)],
        [[[1.0, -0.0]], [[math.nan]]],
    ],
)
def test_dumps_matches_on_keys_escapes_and_shapes(value):
    assert dumps(value) == _reference(value)


@st.composite
def float_arrays(draw):
    """2-D float64 arrays, 1 x 1 to 5 x 5, in every memory layout."""
    pool = draw(st.lists(floats, min_size=1, max_size=6))
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    shape = {"transposed": (cols, rows), "strided": (2 * rows, 3 * cols)}.get(layout, (rows, cols))
    values = [[draw(st.sampled_from(pool)) for _ in range(shape[1])] for _ in range(shape[0])]
    base = np.array(values, dtype=np.float64, order="F" if layout == "F" else "C")
    if layout == "transposed":
        return base.T
    if layout == "strided":
        return base[1::2, ::3]
    return base


@settings(max_examples=200, deadline=None, derandomize=True)
@given(float_arrays())
def test_dumps_writes_a_float_array_as_its_list(array):
    assert dumps(array) == _reference(array.tolist())
    assert dumps({"k": [array]}) == _reference({"k": [array.tolist()]})


@pytest.mark.parametrize(
    "array",
    [
        np.ones((2, 2), dtype=np.int64),
        np.ones((2, 2), dtype=bool),
        np.ones((2, 2), dtype=np.float32),
        np.ones(3),
        np.ones((2, 2, 2)),
        np.ones((0, 3)),
        np.ones((3, 0)),
        np.ones(()),
    ],
    ids=["int", "bool", "float32", "1-D", "3-D", "0-rows", "0-cols", "0-D"],
)
def test_dumps_rejects_every_other_array_as_json_does(array):
    with pytest.raises(TypeError):
        json.dumps(array)
    with pytest.raises(TypeError):
        dumps(array)
    with pytest.raises(TypeError):
        dumps({"k": [array]})
