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

A report holds four kinds of array, and `dumps` takes no other
(TypeError): a non-empty 1-D or 2-D float or integer ndarray (detection
norms, Monte Carlo counts), a `Circulant` p(j|k) table held as its one
row, and a `Gathered` transfer matrix held as its [re, im] value rows and
their index.  Each is encoded as one text token per distinct value and
an integer code per position.  A Gathered array joins each value row
into one token, so its index is its codes.  A Circulant table is written
from the codes of its 2N - 1 diagonals, as runs of about sqrt(N) pieces
shared by every row, O(N sqrt N) pieces in all; any other array appends
each token with its separator attached.  `table_csv` writes a Circulant
table's cells as blocks of byte records, their value field copied from a
strided window over the diagonal tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Every |x| up to this bound rounds to a finite 10-digit float; larger
# values are checked one by one (1.7976931348623157e308 rounds to inf).
_ROUNDS_FINITE = 1.797693134e308
_NON_FINITE = ("inf", "-inf", "nan")
_INDENT = "  "
# bytes of CSV records built and stripped at a time
_CSV_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Circulant:
    """The N x N table t[k, j] = row[(k - j - 1) mod N] of a p(j|k) that depends on k - j only.

    row[k - 1] is p(j|k) at k - j = k mod N, i.e. column N of the table.
    The table is held as this one row: `dumps` writes it from the codes of
    its 2N - 1 diagonals and `table_csv` from a strided window over their
    tokens, so no N x N array is built.  np.asarray builds the dense table,
    and indexing (or iterating) it copies the part taken.
    """

    row: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row), len(self.row))

    @property
    def diagonals(self) -> np.ndarray:
        """The position in row of each of the 2N - 1 diagonals, from the bottom-left corner:
        row k of the table is row[diagonals[N - 1 - k : 2N - 1 - k]], the one layout of row."""
        N = len(self.row)
        return (N - 2 - np.arange(2 * N - 1)) % N

    def window(self, entries: np.ndarray) -> np.ndarray:
        """The read-only N x N table of entries (indexed like row), a view of entries[diagonals]."""
        N, wide = len(self.row), entries[self.diagonals]
        step = wide.strides[0]
        return as_strided(wide[N - 1 :], (N, N), (-step, step), writeable=False)

    def __getitem__(self, key) -> np.ndarray:
        return self.window(self.row)[key].copy()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a circulant table is built on each request, so it cannot be a view")
        return np.asarray(self[...], dtype=dtype)


@dataclass(frozen=True)
class Gathered:
    """The (R, C, n) array values[index] of a transfer matrix, held as its value rows and index.

    values is an (m, n) real array (the m distinct [re, im] entries) and
    index an (R, C) integer array of rows of values.  `dumps` formats only
    the m value rows, each checked finite whether the index uses it or not.
    """

    values: np.ndarray
    index: np.ndarray


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


def _round_repr(x: float) -> str:
    """repr of x rounded to 10 significant digits, from one format call where that suffices.

    A positional %g text of at most 10 digits is already the shortest text
    that round-trips its double, and %g prints positional only where repr
    does too; any other text (an exponent, an integer, inf, nan) goes
    through repr.
    """
    text = f"{x:.10g}"
    return text if "." in text and "e" not in text else repr(float(text))


def _float(x: float) -> str:
    """JSON token of x rounded to 10 significant digits; non-finite raises."""
    token = _round_repr(x)
    if token in _NON_FINITE:
        if math.isfinite(x):
            raise ValueError(
                f"cannot serialize {x!r}: non-finite after rounding to 10 significant digits"
            )
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return token


def _tokens(arr: np.ndarray, float_format=_round_repr) -> tuple[list[str], np.ndarray]:
    """(tokens, codes) of a float or integer array: the text of each distinct value, formatted
    once (a float by float_format, an integer by repr), and the index of each element's, flat.

    Floats are cast to float64 (no report holds a wider one), must round
    finite (ValueError) and are told apart by bit pattern, so -0.0 keeps
    its own token.  An integer array whose span max - min, taken in Python
    ints so that int64 extremes cannot wrap, is below its size (a count
    table of many draws) takes its offsets from the minimum as codes,
    ranked over the values present; any other array takes np.unique.
    """
    flat = arr.ravel()
    if arr.dtype.kind == "f":
        flat = flat.astype(np.float64, copy=False)
        if not (np.abs(flat) <= _ROUNDS_FINITE).all():
            for x in flat.tolist():
                _float(x)
        distinct, codes = np.unique(flat.view(np.uint64), return_inverse=True)
        return [float_format(x) for x in distinct.view(np.float64).tolist()], codes
    low = flat.min()
    span = int(flat.max()) - int(low)
    if span >= len(flat):
        distinct, codes = np.unique(flat, return_inverse=True)
        # tolist gives Python ints, exact for uint64 past 2^63 - 1
        return [repr(x) for x in distinct.tolist()], codes
    offsets = (flat - low).astype(np.intp, copy=False)
    present = np.zeros(span + 1, dtype=bool)
    present[offsets] = True
    tokens = [repr(int(low) + v) for v in present.nonzero()[0].tolist()]
    return tokens, (present.cumsum() - 1).take(offsets)


def _toeplitz(table: Circulant, level: int, out: list) -> None:
    """Append the list of lists, opening at `level`, of a Circulant table from its diagonals.

    Row k of the table is its diagonals N - 1 - k to 2N - 2 - k (see
    `Circulant.diagonals`).  Each diagonal is one piece, its token with its
    separator, and runs of ceil(sqrt(N)) consecutive pieces are joined once
    and shared by every row that covers them.  A row is appended as its
    head pieces, its runs, its tail pieces and its own closing piece, so
    out gains about 3 sqrt(N) pieces per row and the text is still joined
    only by `dumps`.  A row is never shorter than a run, so it always holds
    a run border and its head and tail never overlap.
    """
    tokens, codes = _tokens(table.row)
    N, codes = len(codes), codes[table.diagonals].tolist()
    outer, inner = "\n" + _INDENT * (level + 1), "\n" + _INDENT * (level + 2)
    sep = "," + inner
    pieces = [tokens[c] + sep for c in codes]
    width = math.isqrt(N - 1) + 1
    runs = ["".join(pieces[i : i + width]) for i in range(0, len(pieces), width)]
    next_row = outer + "]," + outer + "[" + inner
    out.append("[" + outer + "[" + inner)
    for first in range(N - 1, -1, -1):
        last = first + N - 1  # the diagonal of the row's last token
        start, stop = -(-first // width), last // width  # the runs wholly inside the row
        out += pieces[first : start * width]
        out += runs[start:stop]
        out += pieces[stop * width : last]
        out.append(tokens[codes[last]] + next_row)
    out[-1] = tokens[codes[N - 1]] + outer + "]\n" + _INDENT * level + "]"


def _array(arr, level: int, out: list[str]) -> None:
    """Append the JSON list, opening at `level`, of an ndarray or Gathered array.

    The list is one run of token pieces with their separators attached, so
    its text is joined only by `dumps`.  Any other ndarray than a non-empty
    1-D or 2-D float or integer array raises TypeError.
    """
    if isinstance(arr, Gathered):
        # each value row is one list at depth 3, so its token's code is its row
        tokens, codes = _tokens(arr.values)
        inner, close = "\n" + _INDENT * (level + 3), "\n" + _INDENT * (level + 2) + "]"
        value_rows = np.array(tokens, dtype=object)[codes.reshape(arr.values.shape)].tolist()
        tokens = ["[" + inner + ("," + inner).join(row) + close for row in value_rows]
        codes = arr.index
    elif arr.dtype.kind in "fiu" and arr.ndim in (1, 2) and arr.size:
        tokens, codes = _tokens(arr)
        codes = codes.reshape(arr.shape)
    else:
        raise TypeError(f"cannot serialize a {arr.dtype} array of shape {arr.shape}")
    # a list is one row of pieces, a list of lists one row per inner list
    outer = "\n" + _INDENT * (level + 1)
    if codes.ndim == 1:
        rows, inner, row_open, row_close = codes[None], outer, "", ""
    else:
        rows, inner = codes, "\n" + _INDENT * (level + 2)
        row_open, row_close = "[" + inner, outer + "]"
    sep = "," + inner
    next_row = row_close + "," + outer + row_open
    pieces = np.array([t + sep for t in tokens], dtype=object)[rows]
    pieces[:-1, -1] = [tokens[c] + next_row for c in rows[:-1, -1].tolist()]
    pieces[-1, -1] = tokens[rows[-1, -1]] + row_close + "\n" + _INDENT * level + "]"
    out.append("[" + outer + row_open)
    out += pieces.ravel().tolist()


def _members(brackets: str, members: list, level: int, out: list[str]) -> None:
    """Append the JSON object or list, opening at `level`, of (key text, value) members."""
    if not members:
        out.append(brackets)
        return
    inner = "\n" + _INDENT * (level + 1)
    sep = brackets[0] + inner
    for key, value in members:
        out.append(sep + key)
        _encode(value, level + 1, out)
        sep = "," + inner
    out.append("\n" + _INDENT * level + brackets[1])


def _encode(obj, level: int, out: list[str]) -> None:
    """Append the JSON text of obj, whose first line starts at indentation `level`, to out."""
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        _members("{}", [(encode_basestring_ascii(k) + ": ", v) for k, v in items], level, out)
    elif isinstance(obj, (list, tuple)):
        _members("[]", [("", v) for v in obj], level, out)
    elif isinstance(obj, Circulant):
        _toeplitz(obj, level, out)
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


def _csv_blocks(table: Circulant) -> list[str]:
    """The 'k,j,p' lines of a Circulant table, one string per block of rows.

    A block is one record array of three NUL-padded byte fields, "k,", "j,"
    and the value token with its newline, each token formatted once per
    distinct value of the row and placed by the table's strided window.
    The block lives in a bytearray, which one translate per block reads in
    place to drop the padding; the rows left over from a longer block are
    zeroed first.
    """
    N = table.shape[0]
    tokens, codes = _tokens(table.row, "{:.10g}\n".format)
    cells = table.window(np.array(tokens, dtype="S")[codes])
    labels = np.array([b"%d," % i for i in range(1, N + 1)])
    record = np.dtype([("k", labels.dtype), ("j", labels.dtype), ("p", cells.dtype)])
    block_rows = max(1, _CSV_BLOCK_BYTES // (record.itemsize * N))
    buffer = bytearray(min(block_rows, N) * N * record.itemsize)
    block = np.frombuffer(buffer, dtype=record).reshape(-1, N)
    block["j"] = labels
    parts = []
    for start in range(0, N, block_rows):
        rows = block[: min(block_rows, N - start)]
        stop = start + len(rows)
        rows["k"] = labels[start:stop, None]
        rows["p"] = cells[start:stop]
        buffer[rows.nbytes :] = bytes(len(buffer) - rows.nbytes)
        parts.append(buffer.translate(None, b"\0").decode("ascii"))
    return parts


def table_csv(table: Circulant) -> str:
    """Flatten a p(j|k) Circulant table to 'k,j,p' rows with 1-based indices.

    The blocks are joined once, after the value codes are freed.
    """
    return "".join(["k,j,p\n", *_csv_blocks(table)])
