"""The package's one JSON writer.

`dumps` returns exactly the text of
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``.  `obj` may also
hold 2-D float64 ndarrays with at least one entry, each written as its
``.tolist()`` would be; any other ndarray raises `TypeError`, as
`json.dumps` does.  The module exists because ``indent`` sends `json` down
its pure-Python encoder, which formats every float of an output matrix on
its own, while an ultrametric on n points has at most n - 1 distinct
nonzero distances.  So a float matrix (such an ndarray, or a list of
equal-length lists of Python floats, converted once with `np.array`) is
written by formatting each distinct value once, with one call to the C
encoder, and joining its rows from those strings; everything else is
written the way the indenting encoder writes it.
"""

from __future__ import annotations

import json

import numpy as np

_INDENT = "  "


def dumps(obj) -> str:
    """`obj` as sorted-key, two-space-indented JSON text ending in a newline."""
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write(obj, level: int, out: list[str]) -> None:
    if isinstance(obj, dict):
        # A non-string key is written as its scalar text, quoted.
        items = [
            (json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ", value)
            for key, value in sorted(obj.items())
        ]
        brackets = "{}"
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim != 2 or not obj.size:
            raise TypeError("Object of type ndarray is not JSON serializable")
        _write_float_matrix(obj, level, out)
        return
    elif isinstance(obj, (list, tuple)):
        if _is_float_matrix(obj):
            _write_float_matrix(np.array(obj), level, out)
            return
        items = [("", value) for value in obj]
        brackets = "[]"
    else:
        out.append(json.dumps(obj))
        return
    if not items:
        out.append(brackets)
        return
    inner = "\n" + _INDENT * (level + 1)
    out.append(brackets[0])
    for k, (prefix, value) in enumerate(items):
        out.append((inner if k == 0 else "," + inner) + prefix)
        _write(value, level + 1, out)
    out.append("\n" + _INDENT * level + brackets[1])


def _is_float_matrix(rows) -> bool:
    """A non-empty list of equal-length, non-empty lists of exact floats."""
    if type(rows) is not list or not rows or type(rows[0]) is not list:
        return False
    width = len(rows[0])
    return all(
        type(row) is list and len(row) == width and set(map(type, row)) == {float}
        for row in rows
    )


def _write_float_matrix(matrix: np.ndarray, level: int, out: list[str]) -> None:
    # Unique over the bit patterns keeps -0.0 / 0.0 and NaN payloads apart;
    # the C encoder writes the same float.__repr__ / NaN / Infinity text.
    distinct, inverse = np.unique(matrix.view(np.int64), return_inverse=True)
    text = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    rows = np.array(text, dtype=object)[inverse.reshape(matrix.shape)].tolist()
    row_inner = "\n" + _INDENT * (level + 1)
    value_sep = ",\n" + _INDENT * (level + 2)
    row_sep = row_inner + "]," + row_inner + "[" + value_sep[1:]
    out.append("[" + row_inner + "[" + value_sep[1:])
    out.append(row_sep.join([value_sep.join(row) for row in rows]))
    out.append(row_inner + "]\n" + _INDENT * level + "]")
