"""Deterministic JSON / CSV encoding of report payloads.

`dumps` writes the JSON text itself in one recursive pass: keys sorted, a
2-space indent, ASCII-escaped strings and a trailing newline, the layout
of `json.dumps(..., indent=2, sort_keys=True)`.  The pass appends string
pieces to one list and `dumps` joins them once, so a megabyte report is
copied once.  Every float is rounded to 10 significant digits, so two
runs of the same computation serialize byte-identically; a float that is
NaN or infinite after rounding is rejected with ValueError, so the output
is always strict JSON.

`dumps` takes exactly the types the report builders produce: dicts with
str keys, lists, str, bool, int, float (a np.float64 is one), None, and
the arrays below.  Anything else raises TypeError: a tuple, any other
numpy scalar, a key that is not a str, and a complex value, which the
report builders write as an [re, im] list.

A report holds four kinds of array, and `dumps` takes no other
(TypeError): a non-empty 1-D or 2-D float or integer ndarray (detection
norms, Monte Carlo counts), a `Circulant` p(j|k) table held as its one
row, and a `Fourier` transfer matrix held as its N + 1 [re, im] value
rows.  A Fourier matrix formats each value row once, into one piece,
and writes row j from a strided slice of those pieces repeated N times,
so it builds no index.  Any other array formats each element (a
report's float arrays are O(N)), but a count table of many draws formats
each value present once.  A plain array is written as one piece per
position, its token with its separator attached.  A Circulant table is
written from the tokens of its 2N - 1 diagonals, as runs of about
sqrt(N) pieces shared by every row, O(N sqrt N) pieces in all.
`table_csv` writes a Circulant table's cells as blocks of byte records,
their value field copied from a strided window over the row's tokens.
"""

from __future__ import annotations

import math
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


class Circulant:
    """The N x N table t[k, j] = row[(k - j - 1) mod N] of a p(j|k) that depends on k - j only.

    row[k - 1] is p(j|k) at k - j = k mod N, i.e. column N of the table.
    The table is held as this one row: `dumps` writes it from the tokens of
    its 2N - 1 diagonals and `table_csv` from a strided window over their
    tokens, so no N x N array is built.  It is a sequence of its N rows:
    indexing copies the rows taken, and np.asarray builds them one by one.
    """

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray):
        self.row = row

    def __len__(self) -> int:
        return len(self.row)

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


class Fourier:
    """The N x N multiport transfer matrix, held as its N + 1 [re, im] value rows.

    values is an (N + 1, 2) real array: row m < N is the root
    e^{-i 2 pi m / N} / sqrt(N) and row N the column-1 constant
    e^{i phase_offset} / sqrt(N).  With 1-based j and r, U_jr takes row
    j (r - 1) mod N for r >= 2 and row N for r = 1; this is the one layout
    of values.  `multiport.build_multiport` makes them, and `dumps` writes
    the (N, N, 2) list from the N + 1 rows, each formatted once and
    checked finite.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values


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
    """(tokens, codes) of a float or integer array: its tokens (a float's by float_format, an
    integer's by repr) and the index of each element's token in them, flat.

    Floats are cast to float64 (no report holds a wider one) and must all
    round finite (ValueError) before any is formatted; each element is
    formatted, so -0.0 keeps its token.  An integer array whose span max -
    min, taken in Python ints so that int64 extremes cannot wrap, is below
    its size (a count table of many draws) formats each value present
    once and takes its offsets from the minimum, ranked, as codes; any
    other array formats each element, and its codes are 0 .. size - 1.
    """
    flat = arr.ravel()
    if arr.dtype.kind == "f":
        flat = flat.astype(np.float64, copy=False)
        if not (np.abs(flat) <= _ROUNDS_FINITE).all():
            for x in flat.tolist():
                _float(x)
        return [float_format(x) for x in flat.tolist()], np.arange(len(flat))
    low = flat.min()
    span = int(flat.max()) - int(low)
    if span >= len(flat):
        # tolist gives Python ints, exact for uint64 past 2^63 - 1
        return [repr(x) for x in flat.tolist()], np.arange(len(flat))
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
    row = _tokens(table.row)[0]
    N, tokens = len(row), [row[d] for d in table.diagonals.tolist()]
    outer, inner = "\n" + _INDENT * (level + 1), "\n" + _INDENT * (level + 2)
    sep = "," + inner
    pieces = [t + sep for t in tokens]
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
        out.append(tokens[last] + next_row)
    out[-1] = tokens[N - 1] + outer + "]\n" + _INDENT * level + "]"


def _fourier(matrix: Fourier, level: int, out: list) -> None:
    """Append the list of lists of [re, im] lists, opening at `level`, of a Fourier matrix.

    Every value row is formatted, and so checked finite, before any piece
    is appended, and joined into one piece with its separator.  Row j is
    the column-1 piece and cycle[j : j N : j], the pieces of value rows
    j (r - 1) mod N for r = 2..N taken from the N root pieces repeated N
    times, with its last separator swapped for the row's closing: one piece
    per entry, and no N x N index or array.
    """
    N = len(matrix.values) - 1
    outer, inner = "\n" + _INDENT * (level + 1), "\n" + _INDENT * (level + 2)
    entry, sep = "\n" + _INDENT * (level + 3), "," + inner
    pieces = [
        "[" + entry + _float(re) + "," + entry + _float(im) + inner + "]" + sep
        for re, im in matrix.values.tolist()
    ]
    column_1 = pieces.pop()
    cycle = pieces * N
    next_row, close = outer + "]," + outer + "[" + inner, outer + "]\n" + _INDENT * level + "]"
    out.append("[" + outer + "[" + inner)
    for j in range(1, N + 1):
        out.append(column_1)
        out += cycle[j : j * N : j]
        out[-1] = out[-1][: -len(sep)] + (next_row if j < N else close)


def _array(arr: np.ndarray, level: int, out: list[str]) -> None:
    """Append the JSON list, opening at `level`, of a non-empty 1-D or 2-D float or integer array.

    The list is one run of token pieces with their separators attached, so
    its text is joined only by `dumps`.  Any other ndarray raises TypeError.
    """
    if not (arr.dtype.kind in "fiu" and arr.ndim in (1, 2) and arr.size):
        raise TypeError(f"cannot serialize a {arr.dtype} array of shape {arr.shape}")
    tokens, codes = _tokens(arr)
    # a list is one row of pieces, a list of lists one row per inner list
    outer = "\n" + _INDENT * (level + 1)
    if arr.ndim == 1:
        rows, inner, row_open, row_close = codes[None], outer, "", ""
    else:
        rows, inner = codes.reshape(arr.shape), "\n" + _INDENT * (level + 2)
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
    # a dict with a key that is not a str falls through to the TypeError
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        items = sorted(obj.items())
        _members("{}", [(encode_basestring_ascii(k) + ": ", v) for k, v in items], level, out)
    elif isinstance(obj, list):
        _members("[]", [("", v) for v in obj], level, out)
    elif isinstance(obj, Circulant):
        _toeplitz(obj, level, out)
    elif isinstance(obj, Fourier):
        _fourier(obj, level, out)
    elif isinstance(obj, np.ndarray):
        _array(obj, level, out)
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(repr(int(obj)))
    elif isinstance(obj, float):
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
    entry of the row and placed by the table's strided window.
    The block lives in a bytearray, which one translate per block reads in
    place to drop the padding.  The N rows are split into the fewest blocks
    of at most _CSV_BLOCK_BYTES, their sizes at most one row apart, and a
    bytearray is sized for each block size, so a translate reads records only.
    """
    N = len(table)
    tokens = _tokens(table.row, "{:.10g}\n".format)[0]
    cells = table.window(np.array(tokens, dtype="S"))
    labels = np.array([b"%d," % i for i in range(1, N + 1)])
    record = np.dtype([("k", labels.dtype), ("j", labels.dtype), ("p", cells.dtype)])
    count = -(-N // max(1, _CSV_BLOCK_BYTES // (record.itemsize * N)))
    size, longer = divmod(N, count)
    parts, first = [], 0
    # the `longer` blocks of size + 1 rows first, then the others of size rows
    for rows, blocks in ((size + 1, longer), (size, count - longer)):
        if not blocks:
            continue
        buffer = bytearray(rows * N * record.itemsize)
        block = np.frombuffer(buffer, dtype=record).reshape(rows, N)
        block["j"] = labels
        for start in range(first, first + rows * blocks, rows):
            block["k"] = labels[start : start + rows, None]
            block["p"] = cells[start : start + rows]
            parts.append(buffer.translate(None, b"\0").decode("ascii"))
        first += rows * blocks
    return parts


def table_csv(table: Circulant) -> str:
    """Flatten a p(j|k) Circulant table to 'k,j,p' rows with 1-based indices.

    The blocks are joined once, after the row's tokens are freed.
    """
    return "".join(["k,j,p\n", *_csv_blocks(table)])
