"""Deterministic JSON / CSV encoding of report payloads.

`dumps` writes the JSON text itself in one recursive pass: keys sorted, a
2-space indent, ASCII-escaped strings and a trailing newline, the layout
of `json.dumps(..., indent=2, sort_keys=True)`.  Every float is rounded to
10 significant digits, so two runs of the same computation serialize
byte-identically; a float that is NaN or infinite after rounding is
rejected with ValueError, so the output is always strict JSON.  Complex
numbers become [re, im] pairs, or a bare real when the imaginary part is
zero.  A real ndarray formats each distinct value once and keeps an
integer code per position (other arrays give each element its own code);
then, innermost depth first, it finds the distinct rows of codes in one
vectorized pass, joins each distinct row once and carries the row codes
to the next depth.  The circulant tables and transfer matrices of a
symmetric family hold few distinct values and rows.  `table_csv` writes
the cells of a p(j|k) matrix from the same distinct-value tokens.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

# Every |x| up to this bound rounds to a finite 10-digit float; larger
# values are checked one by one (1.7976931348623157e308 rounds to inf).
_ROUNDS_FINITE = 1.797693134e308
_INDENT = "  "


def parse_complex(text: str) -> complex:
    """Parse 're,im' (a bare 're' means a real value)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex number from {text!r}")


def parse_polar(text: str) -> complex:
    """Parse 'magnitude,phase-radians' into a complex number; both must be finite."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (1, 2):
        raise ValueError(f"cannot parse polar pair from {text!r}")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"polar pair {text!r} has a non-finite magnitude or phase")
    if len(values) == 1:
        return complex(values[0], 0.0)
    mag, phase = values
    return complex(mag * np.cos(phase), mag * np.sin(phase))


def _float(x: float) -> str:
    """JSON token of x rounded to 10 significant digits; non-finite raises."""
    r = float(f"{x:.10g}")
    if not math.isfinite(r):
        if math.isfinite(x):
            raise ValueError(
                f"cannot serialize {x!r}: non-finite after rounding to 10 significant digits"
            )
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return repr(r)


def _check_finite(arr: np.ndarray) -> None:
    """Raise ValueError unless every value of a real array rounds finite."""
    if not (np.abs(arr) <= _ROUNDS_FINITE).all():
        for x in arr.ravel().tolist():
            _float(x)


def _distinct(arr: np.ndarray, fmt) -> tuple[list[str], np.ndarray]:
    """fmt of each distinct value of a real array, and each value's index into them, flat.

    The values are cast to float64 first, so an array wider than float64
    (longdouble) loses its extra digits; no report produces one.  Values
    are told apart by bit pattern, so -0.0 and 0.0 keep their own tokens.
    Raises ValueError unless every value rounds finite.
    """
    flat = np.asarray(arr, dtype=np.float64).ravel()
    _check_finite(flat)
    bits, codes = np.unique(flat.view(np.int64), return_inverse=True)
    return [fmt(x) for x in bits.view(np.float64).tolist()], codes


def _distinct_rows(rows: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, ids) of an (R, n) array of codes in [0, count), n >= 1.

    rows[first] are the distinct rows and ids[i] is row i's index among
    them.  A row packs into one integer when count ** n fits in int64 (the
    [re, im] pairs of a transfer matrix); wider rows compare as raw bytes.
    """
    n = rows.shape[1]
    if n < 64 and count**n < 2**63:
        keys = rows @ count ** np.arange(n, dtype=np.int64)
    else:
        keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * n)))[:, 0]
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    return first, ids


def _round_repr(x: float) -> str:
    return repr(float(f"{x:.10g}"))


def _complex(z: complex, level: int) -> str:
    if z.imag == 0.0:
        return _float(z.real)
    inner = "\n" + _INDENT * (level + 1)
    return f"[{inner}{_float(z.real)},{inner}{_float(z.imag)}\n{_INDENT * level}]"


def _array(arr: np.ndarray, level: int) -> str:
    """Nested JSON list of an ndarray whose outer bracket opens at `level`.

    tokens holds the text of each distinct element, or of each distinct
    sub-list once a depth is nested, and codes maps every position to its
    token; each depth joins only its distinct rows of codes.
    """
    if arr.dtype.kind == "f":
        tokens, codes = _distinct(arr, _round_repr)
    else:
        tokens = [_encode(x, level + arr.ndim) for x in arr.ravel().tolist()]
        codes = np.arange(arr.size)
    for depth in range(arr.ndim - 1, -1, -1):
        n = arr.shape[depth]
        if n == 0:
            tokens = ["[]"]
            codes = np.zeros(math.prod(arr.shape[:depth]), dtype=np.intp)
            continue
        inner = "\n" + _INDENT * (level + depth + 1)
        sep = "," + inner
        close = "\n" + _INDENT * (level + depth) + "]"
        rows = codes.reshape(-1, n)
        first, codes = _distinct_rows(rows, len(tokens))
        table = np.array(tokens, dtype=object)[rows[first]].tolist()
        tokens = ["[" + inner + sep.join(row) + close for row in table]
    return tokens[codes[0]]


def _encode(obj, level: int) -> str:
    """JSON text of obj whose first line starts at indentation `level`."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        inner = "\n" + _INDENT * (level + 1)
        body = ("," + inner).join(
            f"{encode_basestring_ascii(k)}: {_encode(v, level + 1)}" for k, v in items
        )
        # one join, not a chain of +, so a megabyte body is copied once
        return "".join(("{", inner, body, "\n", _INDENT * level, "}"))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "\n" + _INDENT * (level + 1)
        body = ("," + inner).join(_encode(v, level + 1) for v in obj)
        return "".join(("[", inner, body, "\n", _INDENT * level, "]"))
    if isinstance(obj, np.ndarray):
        return _array(obj, level)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _complex(complex(obj), level)
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(payload: dict) -> str:
    return _encode(payload, 0) + "\n"


def table_csv(table) -> str:
    """Flatten a p(j|k) matrix to 'k,j,p' rows with 1-based indices."""
    table = np.asarray(table, dtype=float)
    n_rows, n_cols = table.shape
    distinct, codes = _distinct(table, "{:.10g}".format)
    tokens = np.array(distinct, dtype=object)[codes].tolist()
    cols = [f"{j}," for j in range(1, n_cols + 1)]
    rows = "".join(
        f"{k},{col}{p}\n"
        for k in range(1, n_rows + 1)
        for col, p in zip(cols, tokens[(k - 1) * n_cols : k * n_cols])
    )
    return "k,j,p\n" + rows
