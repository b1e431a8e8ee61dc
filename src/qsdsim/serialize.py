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

An array is encoded as text tokens and an integer code per position.  A
big report table is a `Gathered`: the dense array values[index], held as
the few rows its builder computed (the row of a circulant p(j|k) table,
the N roots and one constant of a transfer matrix) and the index that
places them.  Its tokens come from its values and its codes are its
index, so nothing of the order of the table's size is hashed.  Only an
array with no index (a Monte Carlo count table, a short vector) has its
distinct values found by hashing their integer keys (the bits of a
float) into buckets: a key equal to its bucket's representative takes
the bucket's code, and only the keys that collide with a different
representative are sorted.  Then, innermost depth first down to depth 2,
each row of codes is joined into one token, numbered by its row, for the
next depth (the N + 1 [re, im] value rows of a transfer matrix).  The
outer two depths are not joined: each of their tokens, with its
separator attached, is appended to the output list, so `dumps` holds the
text of an array once, in its final join.  `table_csv` writes the cells
of a p(j|k) matrix from the same tokens and codes: each block of rows is
one record array of NUL-padded "k,", "j," and token byte fields,
stripped of its padding in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# bytes of CSV records built and stripped at a time
_CSV_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Gathered:
    """The dense array values[index], held as its generators.

    values is an (n, *inner) real array and index an integer array of
    one or more dimensions with every entry in 0..n - 1, so the array has
    the shape index.shape + inner.  `dumps` and `table_csv` encode it as
    the dense array, formatting only the n value rows; np.asarray builds
    the dense array, and indexing (or iterating) its outer depths gathers
    the part taken.  Every value is checked finite, used by the index or
    not.
    """

    values: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.index.shape + self.values.shape[1:]

    def __getitem__(self, key) -> np.ndarray:
        return self.values[self.index[key]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a gathered array is built on each request, so it cannot be a view")
        return np.asarray(self[...], dtype=dtype)


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
    """(first, codes) of a 1-D integer or bool array: keys[first] are its
    distinct values and codes[i] is the index of keys[i] among them.

    The top bits of a multiplicative hash put each key in one of about
    len(keys) / 16 buckets (at least 1024), the key that one scatter of all
    positions leaves in a bucket (the last written) represents it, and
    every key equal to its representative takes the bucket's code.  A key
    that differs from its representative equals no other bucket's, so only
    these colliding keys are sorted: one argsort brings equal keys
    together, a run of equal keys starts where a key differs from the one
    before it, and the running count of run starts numbers the runs.
    """
    n = len(keys)
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


def _join_rows(tokens: list[str], rows: np.ndarray, level: int) -> list[str]:
    """The JSON list at indentation `level` of each row of an (R, n) array of codes, n >= 1."""
    inner = "\n" + _INDENT * (level + 1)
    sep = "," + inner
    close = "\n" + _INDENT * level + "]"
    table = np.array(tokens, dtype=object)[rows].tolist()
    return ["[" + inner + sep.join(row) + close for row in table]


def _nest(tokens: list[str], codes: np.ndarray, shape: tuple, level: int, lead: int = 0):
    """(tokens, codes, shape) of an array of codes of the given shape, its inner depths joined.

    Depth d of the codes is depth d + lead of the JSON list whose outer
    bracket opens at `level` (lead is positive for the value rows of a
    Gathered array, which sit below its index depths).  Innermost first, a
    zero-length depth becomes the one token "[]" and a list depth 2 or
    deeper has its rows of codes joined, so shape keeps the depths left
    unjoined.  A joined row is the token of its own code.
    """
    for depth in range(len(shape) - 1, 0, -1):
        if shape[depth] == 0:
            tokens = ["[]"]
            codes = np.zeros(math.prod(shape[:depth]), dtype=np.intp)
        elif depth + lead > 1:
            rows = codes.reshape(-1, shape[depth])
            tokens, codes = _join_rows(tokens, rows, level + lead + depth), np.arange(len(rows))
        else:
            continue
        shape = shape[:depth]
    return tokens, codes, shape


def _array(arr, level: int, out: list[str]) -> None:
    """Append the nested JSON list of an ndarray or Gathered whose outer bracket opens at `level`.

    tokens holds the text of each distinct element, or of each joined
    sub-list once a depth is nested, and codes maps every position to its
    token.  A Gathered array takes them from its value rows, nested below
    its index depths, and carries the row codes out through its index.
    Depths 2 and deeper join their rows of codes; the outer two depths
    are one run of token pieces with their separators attached, appended
    to out, so the array's text is joined only by `dumps`.
    """
    if isinstance(arr, Gathered):
        values, index = arr.values, arr.index
        tokens, codes, shape = _nest(*_tokens(values), values.shape, level, index.ndim - 1)
        codes = codes.reshape(shape)[index]
        tokens, codes, shape = _nest(tokens, codes.ravel(), codes.shape, level)
    else:
        tokens, codes, shape = _nest(*_tokens(arr), arr.shape, level)
    if not shape:
        out.append(tokens[codes[0]])
        return
    if not len(codes):
        out.append("[]")
        return
    # a list is one row of pieces, a list of lists one row per inner list
    outer = "\n" + _INDENT * (level + 1)
    if len(shape) == 1:
        rows, inner, row_open, row_close = codes[None], outer, "", ""
    else:
        rows, inner = codes.reshape(shape), "\n" + _INDENT * (level + 2)
        row_open, row_close = "[" + inner, outer + "]"
    sep = "," + inner
    next_row = row_close + "," + outer + row_open
    pieces = np.array([t + sep for t in tokens], dtype=object)[rows]
    pieces[:-1, -1] = [tokens[c] + next_row for c in rows[:-1, -1].tolist()]
    pieces[-1, -1] = tokens[rows[-1, -1]] + row_close + "\n" + _INDENT * level + "]"
    out.append("[" + outer + row_open)
    out += pieces.ravel().tolist()


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
    elif isinstance(obj, (np.ndarray, Gathered)):
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


def _csv_blocks(table) -> list[str]:
    """The 'k,j,p' lines of a 2-D float array or Gathered table, one string per block of rows.

    A block is one record array of three NUL-padded byte fields, "k,",
    "j," and the value token with its newline, each token formatted once
    per distinct value and placed by its code (a Gathered table's index);
    one bytes.translate per block drops the padding.
    """
    n_rows, n_cols = table.shape
    gathered = isinstance(table, Gathered)
    values, codes = _distinct(table.values if gathered else table)
    tokens = np.array(["{:.10g}\n".format(x) for x in values], dtype="S")
    if gathered:
        tokens, index = tokens[codes], table.index
    else:
        index = codes.reshape(n_rows, n_cols)
    if not index.size:
        return []
    ks = np.array([b"%d," % k for k in range(1, n_rows + 1)])
    js = np.array([b"%d," % j for j in range(1, n_cols + 1)])
    record = np.dtype([("k", ks.dtype), ("j", js.dtype), ("p", tokens.dtype)])
    block_rows = max(1, _CSV_BLOCK_BYTES // (record.itemsize * n_cols))
    block = np.empty((min(block_rows, n_rows), n_cols), dtype=record)
    block["j"] = js
    parts = []
    for start in range(0, n_rows, block_rows):
        rows = block[: min(block_rows, n_rows - start)]
        stop = start + len(rows)
        rows["k"] = ks[start:stop, None]
        rows["p"] = tokens[index[start:stop]]
        parts.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    return parts


def table_csv(table) -> str:
    """Flatten a p(j|k) matrix, an array or a Gathered table, to 'k,j,p' rows with 1-based indices.

    The blocks are joined once, after the value codes are freed.
    """
    if not isinstance(table, Gathered):
        table = np.asarray(table, dtype=float)
    return "".join(["k,j,p\n", *_csv_blocks(table)])
