"""Flat text serialization used by every report file.

Two primitives: key=value blocks (one pair per line, floats written with
repr so parsing returns the exact same value) and matrix blocks (row-major,
each entry a re/im pair of decimal floats). Both round-trip exactly.
"""
from __future__ import annotations

import numpy as np


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def emit_keyvalues(items: dict) -> str:
    """One 'key = value' line per entry, in the dict's insertion order."""
    return "".join(f"{k} = {format_value(v)}\n" for k, v in items.items())


def parse_keyvalues(text: str) -> dict[str, str]:
    """Inverse of emit_keyvalues; values stay strings for the caller to cast."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed key=value line: {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def emit_matrix(m: np.ndarray) -> str:
    """Row-major matrix block: each entry as 're im', rows on separate lines."""
    m = np.asarray(m, dtype=complex)
    lines = []
    for row in m:
        lines.append(" ".join(f"{repr(float(z.real))} {repr(float(z.imag))}" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of emit_matrix."""
    rows = []
    for line in text.strip().splitlines():
        vals = [float(tok) for tok in line.split()]
        if len(vals) % 2 != 0:
            raise ValueError("matrix line must hold re/im pairs")
        rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix block is not square: shape {m.shape}")
    return m


MATRIX_MARKER = "matrix ="


def emit_report(items: dict, matrix: np.ndarray) -> str:
    """Key=value block followed by a matrix block."""
    return emit_keyvalues(items) + MATRIX_MARKER + "\n" + emit_matrix(matrix)


def parse_report(text: str) -> tuple[dict[str, str], np.ndarray | None]:
    """Inverse of emit_report. The matrix block starts after the line that is
    exactly the marker, so a key may end in 'matrix'."""
    head, marker, tail = ("\n" + text).partition(f"\n{MATRIX_MARKER}\n")
    return parse_keyvalues(head), (parse_matrix(tail) if marker else None)
