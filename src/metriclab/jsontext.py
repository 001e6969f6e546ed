"""The package's one JSON writer.

`dumps` returns exactly the text of
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``.  It exists because
``indent`` sends `json` down its pure-Python encoder, which formats every
float of an output matrix on its own, while an ultrametric on n points has
at most n - 1 distinct nonzero distances.  So a matrix of Python floats is
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
    elif isinstance(obj, (list, tuple)):
        if _is_float_matrix(obj):
            _write_float_matrix(obj, level, out)
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


def _write_float_matrix(rows: list, level: int, out: list[str]) -> None:
    # Unique over the bit patterns keeps -0.0 / 0.0 and NaN payloads apart;
    # the C encoder writes the same float.__repr__ / NaN / Infinity text.
    bits = np.array(rows, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    row_inner = "\n" + _INDENT * (level + 1)
    value_sep = ",\n" + _INDENT * (level + 2)
    for k, row in enumerate(inverse.reshape(bits.shape)):
        out.append(("[" if k == 0 else ",") + row_inner + "[" + value_sep[1:])
        out.append(value_sep.join(map(text.__getitem__, row.tolist())))
        out.append(row_inner + "]")
    out.append("\n" + _INDENT * level + "]")
