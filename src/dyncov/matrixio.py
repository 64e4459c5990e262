"""JSON wire format for complex matrices.

Schema: {"rows": m, "cols": n, "entries": [[re, im], ...]} with entries in
row-major order.  This is the format the CLI subcommands read and print.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix


def matrix_to_json(a) -> dict:
    m = as_matrix(a)
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {
        "rows": int(rows),
        "cols": int(cols),
        "entries": [[float(x.real), float(x.imag)] for x in flat],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(
            "matrix JSON must have 'rows', 'cols' and 'entries' fields"
        ) from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
            f"got {len(entries)}"
        )
    flat = np.array(
        [complex(float(e[0]), float(e[1])) for e in entries], dtype=np.complex128
    )
    if not np.isfinite(flat).all():
        raise ValueError("matrix JSON has non-finite entries")
    return flat.reshape(rows, cols)
