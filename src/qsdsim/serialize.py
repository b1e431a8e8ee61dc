"""Deterministic JSON / CSV encoding of report payloads.

`dumps` writes the JSON text itself in one recursive pass: keys sorted, a
2-space indent, ASCII-escaped strings and a trailing newline, the layout
of `json.dumps(..., indent=2, sort_keys=True)`.  Every float is rounded to
10 significant digits, so two runs of the same computation serialize
byte-identically; a float that is NaN or infinite after rounding is
rejected with ValueError, so the output is always strict JSON.  Complex
numbers become [re, im] pairs, or a bare real when the imaginary part is
zero.  A real ndarray formats each distinct value once and scatters the
tokens back to its flat positions, then nests them by its shape; the
circulant tables and transfer matrices of a symmetric family hold few
distinct values.  `table_csv` writes the cells of a p(j|k) matrix the same
way.
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


def _tokens(arr: np.ndarray, fmt) -> list[str]:
    """fmt of every value of a real array in flat order, each distinct value formatted once.

    The values are cast to float64 first, so an array wider than float64
    (longdouble) loses its extra digits; no report produces one.  Values
    are told apart by bit pattern, so -0.0 and 0.0 keep their own tokens.
    Raises ValueError unless every value rounds finite.
    """
    flat = np.asarray(arr, dtype=np.float64).ravel()
    _check_finite(flat)
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    distinct = [fmt(x) for x in bits.view(np.float64).tolist()]
    return np.array(distinct, dtype=object)[inverse].tolist()


def _round_repr(x: float) -> str:
    return repr(float(f"{x:.10g}"))


def _complex(z: complex, level: int) -> str:
    if z.imag == 0.0:
        return _float(z.real)
    inner = "\n" + _INDENT * (level + 1)
    return f"[{inner}{_float(z.real)},{inner}{_float(z.imag)}\n{_INDENT * level}]"


def _array(arr: np.ndarray, level: int) -> str:
    """Nested JSON list of an ndarray whose outer bracket opens at `level`."""
    leaf = level + arr.ndim
    kind = arr.dtype.kind
    if kind == "f":
        tokens = _tokens(arr, _round_repr)
    else:
        flat = arr.ravel().tolist()
        if kind in "iu":
            tokens = [repr(x) for x in flat]
        elif kind == "c":
            tokens = [_complex(z, leaf) for z in flat]
        else:
            tokens = [_encode(x, leaf) for x in flat]
    for depth in range(arr.ndim - 1, -1, -1):
        n = arr.shape[depth]
        if n == 0:
            tokens = ["[]"] * math.prod(arr.shape[:depth])
            continue
        inner = "\n" + _INDENT * (level + depth + 1)
        sep = "," + inner
        close = "\n" + _INDENT * (level + depth) + "]"
        tokens = [
            "[" + inner + sep.join(tokens[i : i + n]) + close for i in range(0, len(tokens), n)
        ]
    return tokens[0]


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
        return "{" + inner + body + "\n" + _INDENT * level + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "\n" + _INDENT * (level + 1)
        body = ("," + inner).join(_encode(v, level + 1) for v in obj)
        return "[" + inner + body + "\n" + _INDENT * level + "]"
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


def table_csv(table, header: tuple[str, str, str] = ("k", "j", "p")) -> str:
    """Flatten a p(j|k) matrix to 'k,j,p' rows with 1-based indices."""
    table = np.asarray(table, dtype=float)
    n_rows, n_cols = table.shape
    tokens = _tokens(table, "{:.10g}".format)
    cols = [f"{j}," for j in range(1, n_cols + 1)]
    rows = "".join(
        f"{k},{col}{p}\n"
        for k in range(1, n_rows + 1)
        for col, p in zip(cols, tokens[(k - 1) * n_cols : k * n_cols])
    )
    return ",".join(header) + "\n" + rows
