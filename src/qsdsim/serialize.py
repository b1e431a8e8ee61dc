"""Deterministic JSON / CSV encoding of report payloads.

`dumps` writes the JSON text itself in one recursive pass: keys sorted, a
2-space indent, ASCII-escaped strings and a trailing newline, the layout
of `json.dumps(..., indent=2, sort_keys=True)`.  The pass appends string
pieces to one list and `dumps` joins them once, so a megabyte report is
copied once.  Every float is rounded to 10 significant digits, so two
runs of the same computation serialize byte-identically; a float that is
NaN or infinite after rounding is rejected with ValueError, so the output
is always strict JSON.  There is no complex type: the report builders
write complex values as [re, im] lists, and a complex value raises
TypeError like any other unsupported type.

A real, integer or bool ndarray formats each distinct value once and
keeps an integer code per position.  Distinct values are found by hashing
their integer keys (the bits of a float) into buckets: a key equal to its
bucket's representative takes the bucket's code, and only the keys that
collide with a different representative are sorted.  Then, innermost
depth first, the same helper finds the distinct rows of codes, each
distinct row is joined once and the row codes carry to the next depth;
the outermost depth appends its rows to the output list.  The circulant
tables, transfer matrices and Monte Carlo count tables of a symmetric
family hold few distinct values and rows, so few keys collide.
`table_csv` writes the cells of a p(j|k) matrix from the same
distinct-value tokens, filling one row template per row.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

# Every |x| up to this bound rounds to a finite 10-digit float; larger
# values are checked one by one (1.7976931348623157e308 rounds to inf).
_ROUNDS_FINITE = 1.797693134e308
_INDENT = "  "
# 2^64 / golden ratio: the top bits of key * this spread nearby keys over
# the buckets (Fibonacci hashing)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# at least 2^10 buckets (8 KiB, never initialized): the few distinct values
# of a small array then rarely share one, and skip the sort
_MIN_BUCKET_BITS = 10


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


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, codes) of a 1-D array: keys[first] are its distinct values and
    codes[i] is the index of keys[i] among them.

    Integer and bool keys are hashed first.  The top bits of a
    multiplicative hash put each key in one of about len(keys) / 16
    buckets (at least 1024), the key that one scatter of all positions leaves in a bucket
    (the last written) represents it, and every key equal to its
    representative takes the bucket's code.  A key that
    differs from its representative equals no other bucket's, so only
    these colliding keys are sorted.  Void keys (raw rows) are all sorted,
    and compare byte by byte.  One argsort brings equal keys together, a
    run of equal keys starts where a key differs from the one before it,
    and the running count of run starts numbers the runs.
    """
    n = len(keys)
    if keys.dtype.kind == "V":
        first = np.empty(0, dtype=np.intp)
        codes = np.empty(n, dtype=np.intp)
        order = np.argsort(keys)
    else:
        bits = max(_MIN_BUCKET_BITS, (n >> 4).bit_length() - 1)
        bucket = keys.astype(np.uint64, copy=False) * _HASH_MULTIPLIER
        bucket >>= np.uint64(64 - bits)
        bucket = bucket.view(np.intp)
        positions = np.arange(n)
        owner = np.empty(1 << bits, dtype=np.intp)
        owner[bucket] = positions
        rep = owner[bucket]
        first = (rep == positions).nonzero()[0]
        owner[bucket[first]] = np.arange(len(first))
        codes = owner[bucket]
        rest = (keys != keys[rep]).nonzero()[0]
        if not len(rest):
            return first, codes
        order = rest[np.argsort(keys[rest])]
    ranked = keys[order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    starts[1:] = ranked[1:] != ranked[:-1]
    codes[order] = starts.cumsum() + (len(first) - 1)
    return np.concatenate((first, order[starts])), codes


def _distinct(arr: np.ndarray) -> tuple[list, np.ndarray]:
    """Each distinct value of a real array as a float, and each value's index into them, flat.

    The values are cast to float64 first, so an array wider than float64
    (longdouble) loses its extra digits; no report produces one.  Values
    are told apart by bit pattern, so -0.0 and 0.0 keep their own tokens.
    Raises ValueError unless every value rounds finite.
    """
    flat = np.asarray(arr, dtype=np.float64).ravel()
    _check_finite(flat)
    # numpy 2.4 argsorts the bits of a transfer matrix 3x faster as uint64 than as int64
    first, codes = _runs(flat.view(np.uint64))
    return flat[first].tolist(), codes


def _distinct_rows(rows: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, ids) of an (R, n) array of codes in [0, count), n >= 1.

    rows[first] are the distinct rows and ids[i] is row i's index among
    them.  A row packs into the integer sum_c rows[:, c] count ** c when
    count ** n fits in int64 (the [re, im] pairs of a transfer matrix),
    by Horner's rule from the last column, so no partial sum exceeds the
    final key; wider rows compare as raw bytes.
    """
    n = rows.shape[1]
    if n < 64 and count**n < 2**63:
        keys = rows[:, -1].astype(np.int64)
        for c in range(n - 2, -1, -1):
            keys *= count
            keys += rows[:, c]
    else:
        keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * n)))[:, 0]
    return _runs(keys)


def _round_repr(x: float) -> str:
    return repr(float(f"{x:.10g}"))


def _tokens(arr: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(tokens, codes) of the elements of a real, integer or bool array.

    Each distinct value is formatted once and codes[i] indexes element i's
    token; an array of any other dtype raises TypeError.
    """
    kind = arr.dtype.kind
    if kind == "f":
        values, codes = _distinct(arr)
        return [_round_repr(x) for x in values], codes
    if kind in "iub":
        flat = arr.ravel()
        first, codes = _runs(flat)
        # tolist gives Python ints, exact for uint64 past 2^63 - 1, and bools
        values = flat[first].tolist()
        if kind == "b":
            return ["true" if x else "false" for x in values], codes
        return [repr(x) for x in values], codes
    raise TypeError(f"cannot serialize {arr.dtype} array")


def _array(arr: np.ndarray, level: int, out: list[str]) -> None:
    """Append the nested JSON list of an ndarray whose outer bracket opens at `level`.

    tokens holds the text of each distinct element, or of each distinct
    sub-list once a depth is nested, and codes maps every position to its
    token; each inner depth joins only its distinct rows of codes, and the
    outermost depth appends its row to out.
    """
    tokens, codes = _tokens(arr)
    for depth in range(arr.ndim - 1, 0, -1):
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
    if arr.ndim == 0:
        out.append(tokens[codes[0]])
        return
    if not len(codes):
        out.append("[]")
        return
    inner = "\n" + _INDENT * (level + 1)
    pieces = ["," + inner] * (2 * len(codes))
    pieces[::2] = np.array(tokens, dtype=object)[codes].tolist()
    pieces[-1] = "\n" + _INDENT * level + "]"
    out.append("[" + inner)
    out += pieces


def _encode(obj, level: int, out: list[str]) -> None:
    """Append the JSON text of obj, whose first line starts at indentation `level`, to out."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        items = sorted({str(k): v for k, v in obj.items()}.items())
        inner = "\n" + _INDENT * (level + 1)
        out.append("{" + inner)
        for i, (k, v) in enumerate(items):
            if i:
                out.append("," + inner)
            out.append(encode_basestring_ascii(k) + ": ")
            _encode(v, level + 1, out)
        out.append("\n" + _INDENT * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = "\n" + _INDENT * (level + 1)
        out.append("[" + inner)
        for i, v in enumerate(obj):
            if i:
                out.append("," + inner)
            _encode(v, level + 1, out)
        out.append("\n" + _INDENT * level + "]")
    elif isinstance(obj, np.ndarray):
        _array(obj, level, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float(float(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(payload: dict) -> str:
    out: list[str] = []
    _encode(payload, 0, out)
    out.append("\n")
    return "".join(out)


def table_csv(table) -> str:
    """Flatten a p(j|k) matrix to 'k,j,p' rows with 1-based indices.

    One template holds the cells of a row, "\\0,j,%s\\n" for every column
    j.  Each row puts its k in place of the NUL with str.replace and fills
    its value tokens with %, half the arguments of formatting k with %.
    """
    table = np.asarray(table, dtype=float)
    n_rows, n_cols = table.shape
    values, codes = _distinct(table)
    tokens = np.array(["{:.10g}".format(x) for x in values], dtype=object)
    rows = tokens[codes].reshape(n_rows, n_cols).tolist()
    template = "".join(f"\0,{j},%s\n" for j in range(1, n_cols + 1))
    return "".join(
        ["k,j,p\n", *(template.replace("\0", str(k)) % tuple(row) for k, row in enumerate(rows, 1))]
    )
