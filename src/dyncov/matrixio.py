"""JSON wire format for complex matrices.

Schema: {"rows": m, "cols": n, "entries": [[re, im], ...]} with entries in
row-major order.  This is the format the CLI subcommands read and print,
and the one policy files store.  ``replace_file`` writes every output file.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .linalg import _count, as_matrix

# the types a JSON number decodes to; a bool is an int, but not a number here
_PARTS = frozenset((float, int))


def matrix_to_json(a) -> dict:
    m = as_matrix(a)
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {
        "rows": int(rows),
        "cols": int(cols),
        "entries": [[float(x.real), float(x.imag)] for x in flat],
    }


def json_text(x, pad: str = "") -> str:
    """``json.dumps(x, indent=2)`` byte for byte, where a 1-D array stands
    for the list of its floats, a finite complex matrix for its
    ``matrix_to_json`` dict and a stack (k, m, n) for a list of k of them.
    The encoder that ``indent`` selects works item by item in Python; here a
    matrix, a stack or a list of finite floats is one %-format, since these
    are nearly all of a policy file."""
    inner = pad + "  "
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return json_text(np.asarray(x, dtype=float).tolist(), pad)
    if isinstance(x, np.ndarray):
        m = np.asarray(x, dtype=np.complex128)
        p = inner if m.ndim == 3 else pad  # indentation of each matrix dict
        rows, cols = m.shape[-2:]
        pair = f"{p}    [\n{p}      %r,\n{p}      %r\n{p}    ]"
        one = (
            f'{{\n{p}  "rows": {rows},\n{p}  "cols": {cols},\n{p}  "entries": [\n'
            + ",\n".join([pair] * (rows * cols))
            + f"\n{p}  ]\n{p}}}"
        )
        flat = np.stack([m.real, m.imag], axis=-1).ravel().tolist()
        text = f",\n{p}".join([one] * (m.size // (rows * cols))) % tuple(flat)
        return text if m.ndim == 2 else f"[\n{p}{text}\n{pad}]"
    if isinstance(x, dict) and x:
        items = [f"{json.dumps(k)}: {json_text(v, inner)}" for k, v in x.items()]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(x, list) and x:
        if all(type(v) is float and math.isfinite(v) for v in x):
            return ("[\n" + inner + f",\n{inner}".join(["%r"] * len(x)) + f"\n{pad}]") % tuple(x)
        items = [json_text(v, inner) for v in x]
        return "[\n" + inner + f",\n{inner}".join(items) + f"\n{pad}]"
    if type(x) is float and math.isfinite(x):  # what json.dumps writes for it
        return repr(x)
    return json.dumps(x)


def replace_file(path, text: str | Iterable[str]) -> None:
    """Write text, a string or an iterable of string chunks, to path as a
    new file, making its directory: ext4 flushes a file truncated and
    rewritten when it is closed, several times the write's cost."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines((text,) if isinstance(text, str) else text)


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of a schema object: ``rows`` and ``cols`` are counts (see
    ``linalg._count``), each entry part a JSON number (a float or an int, not
    a bool or a string), and no other key is allowed."""
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(
            "matrix JSON must have 'rows', 'cols' and 'entries' fields"
        ) from exc
    if len(obj) > 3:
        unknown = sorted(repr(k) for k in obj if k not in ("rows", "cols", "entries"))
        raise ValueError(f"unknown matrix key(s): {', '.join(unknown)}")
    rows, cols = _count(rows, "rows", ValueError), _count(cols, "cols", ValueError)
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if not isinstance(entries, list):
        raise ValueError(f"matrix 'entries' must be a list of [re, im] pairs, got {entries!r}")
    if len(entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
            f"got {len(entries)}"
        )
    values = []
    for i, e in enumerate(entries):
        try:
            re, im = e
            if re.__class__ not in _PARTS or im.__class__ not in _PARTS:
                raise TypeError
            values.append(complex(re, im))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"matrix entry {i} is not an [re, im] pair of numbers: {e!r}"
            ) from None
    flat = np.array(values, dtype=np.complex128)
    if not np.isfinite(flat).all():
        raise ValueError("matrix JSON has non-finite entries")
    return flat.reshape(rows, cols)
