"""The package's one JSON writer.

`dumps` returns exactly the text of
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\\n"``
and raises `ValueError` on NaN or Infinity, as that call does.  `obj` may
also hold 2-D float64 ndarrays with at least one entry, each written as
its ``.tolist()`` would be; any other ndarray raises `TypeError`, as in
`json`.  A document that contains itself raises `RecursionError`: json's
cycle check is off, since on a raise it keeps the open containers, and
their arrays, alive until a gc pass.  That one call writes the document,
with each matrix as a per-call token no input string can equal; the
module writes only the matrices, spliced in at their tokens.  ``indent``
sends `json` down its pure-Python encoder, which formats every float on
its own, while an ultrametric on n points has at most n - 1 distinct
nonzero distances: a matrix formats each distinct value once, with one
call to the C encoder.
"""

from __future__ import annotations

import json
import uuid

import numpy as np

_INDENT = "  "


def dumps(obj) -> str:
    """`obj` as sorted-key, two-space-indented JSON text ending in a newline."""
    token, matrices = uuid.uuid4().hex, []

    def default(value):
        is_matrix = isinstance(value, np.ndarray) and value.ndim == 2 and value.size > 0
        if not is_matrix or value.dtype != np.float64:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        matrices.append(value)
        return token

    try:
        text = json.dumps(
            obj, sort_keys=True, indent=2, allow_nan=False, check_circular=False, default=default
        )
        parts = text.split(f'"{token}"')
        out = [parts[0]]
        for matrix, part in zip(matrices, parts[1:]):
            line = out[-1][out[-1].rfind("\n") + 1 :]  # the token's line, up to the token
            _write_float_matrix(matrix, (len(line) - len(line.lstrip(" "))) // 2, out)
            out.append(part)
    finally:
        # json's encoder functions form a reference cycle that holds `default`:
        # on success or on a raise, the arrays would outlive the call until a gc pass
        matrices.clear()
    out.append("\n")
    return "".join(out)


def _write_float_matrix(matrix: np.ndarray, level: int, out: list[str]) -> None:
    # Unique over the bit patterns keeps -0.0 / 0.0 apart; the C encoder
    # writes the same float.__repr__ text, and raises on a non-finite value.
    distinct, inverse = np.unique(matrix.view(np.int64), return_inverse=True)
    text = json.dumps(distinct.view(np.float64).tolist(), allow_nan=False)[1:-1].split(", ")
    rows = np.array(text, dtype=object)[inverse.reshape(matrix.shape)].tolist()
    row_inner = "\n" + _INDENT * (level + 1)
    value_sep = ",\n" + _INDENT * (level + 2)
    row_sep = row_inner + "]," + row_inner + "[" + value_sep[1:]
    out.append("[" + row_inner + "[" + value_sep[1:])
    out.append(row_sep.join([value_sep.join(row) for row in rows]))
    out.append(row_inner + "]\n" + _INDENT * level + "]")
