import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsdsim.families import make_family
from qsdsim.minerror import min_error_report
from qsdsim.montecarlo import run_min_error, run_sfg_recovery_pipeline, run_unambiguous
from qsdsim.multiport import multiport_report
from qsdsim import serialize
from qsdsim.serialize import Circulant, Fourier, dumps, parse_complex, parse_polar, table_csv
from qsdsim.unambiguous import MECHANISMS, ud_report
from reference import (
    assert_same_text,
    fourier_dense,
    peak_bytes,
    reference_dense,
    reference_dumps,
    reference_table_csv,
)


# ---------------------------------------------------------------- strategies

# 1.797693134e308 is the largest 10-digit value below the float maximum;
# anything larger rounds to inf and is rejected (see the tests below)
finite = st.one_of(
    st.floats(min_value=-1.797693134e308, max_value=1.797693134e308),
    st.floats(min_value=1e-6, max_value=1e-4),
    st.floats(min_value=1e10, max_value=1e16),
    st.sampled_from([0.0, -0.0, 1e-5, 9.9999999995e-6, 1e16, 123456789012.5]),
)
# dumps takes non-empty 1-D and 2-D float and integer arrays, and no other
shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4)


def pooled(shape_strategy, dtype=np.float64, elements=finite):
    """Arrays whose values come from a pool of one to three, so repeats are common."""
    return st.lists(elements, min_size=1, max_size=3).flatmap(
        lambda pool: hnp.arrays(dtype, shape_strategy, elements=st.sampled_from(pool))
    )


int64s = st.integers(-(2**63), 2**63 - 1)
# the top half of uint64 has no int64 counterpart
uint64s = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 4, 2**64 - 1))
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=finite),
    pooled(shapes),
    hnp.arrays(np.int64, shapes),
    pooled(shapes, np.int64, st.one_of(int64s, st.integers(-3, 3))),
    hnp.arrays(np.uint64, shapes, elements=uint64s),
    pooled(shapes, np.uint64, uint64s),
)
# the scalars and containers a report holds, and no other: dumps rejects the rest
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    st.text(),
    finite.map(np.float64),
)
payloads = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=8), payloads, max_size=5))
def test_dumps_matches_reference_encoder(payload):
    assert dumps(payload) == reference_dumps(payload)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(hnp.arrays(np.float64, st.integers(1, 6), elements=finite), pooled(st.integers(1, 6)))
)
def test_table_csv_matches_per_cell_formatting(row):
    table = Circulant(row)
    assert table_csv(table) == reference_table_csv(table)


# the k and j fields are as wide as the digits of the largest index; these
# sizes sit at and across a digit boundary
@pytest.mark.parametrize("N", [9, 10, 99, 100, 101])
def test_table_csv_across_index_digit_widths(N):
    rng = np.random.default_rng(N)
    table = Circulant(rng.choice([0.25, -0.0, 1e-300, 123456789012.5, rng.random()], size=N))
    assert_same_text(table_csv(table), reference_table_csv(table))


# ---------------------------------------------------------------- examples


def test_dumps_rounds_to_ten_digits():
    payload = json.loads(
        dumps({"a": 0.9714045207910318, "b": 0.0, "c": 1.0, "d": 1.23456789012345e-7})
    )
    assert payload == {"a": 0.9714045208, "b": 0.0, "c": 1.0, "d": 1.234567890e-7}


def test_parse_complex():
    assert parse_complex("0.5,-0.25") == 0.5 - 0.25j
    assert parse_complex("0.7") == 0.7 + 0j
    with pytest.raises(ValueError):
        parse_complex("1,2,3")


def test_parse_polar():
    z = parse_polar("2,1.5707963267948966")
    assert abs(z - 2j) < 1e-12
    assert parse_polar("0.5") == 0.5 + 0j
    with pytest.raises(ValueError):
        parse_polar("1,2,3")


@pytest.mark.parametrize("text", ["0.7,inf", "inf,0", "nan,1", "1,-inf", "nan"])
def test_parse_polar_rejects_non_finite(text):
    # cos(inf) and inf * sin(0) used to warn and then yield a NaN coefficient
    with pytest.raises(ValueError, match="non-finite magnitude or phase") as info:
        parse_polar(text)
    assert repr(text) in str(info.value)


def test_dumps_types():
    text = dumps(
        {
            "f": np.float64(0.12345678901234),
            "i": 3,
            "b": True,
            "arr": np.arange(3),
            "nested": [[1, 2.0]],
            "none": None,
        }
    )
    payload = json.loads(text)
    assert payload["f"] == 0.123456789
    assert payload["i"] == 3 and isinstance(payload["i"], int)
    assert payload["b"] is True
    assert payload["arr"] == [0, 1, 2]
    assert payload["nested"] == [[1, 2.0]]
    assert payload["none"] is None
    with pytest.raises(TypeError):
        dumps({"bad": object()})


def test_dumps_deterministic_and_sorted():
    a = dumps({"b": 1.0, "a": np.pi})
    b = dumps({"a": np.pi, "b": 1.0})
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["a"] == 3.141592654


def test_dumps_rejects_complex():
    # reports write complex values as [re, im] lists; a complex value is an unsupported type,
    # and so are a tuple, a numpy scalar other than np.float64 and a key that is not a str
    for value in (
        1 + 2j,
        np.complex128(2.0),
        np.zeros((2, 3, 0), dtype=complex),
        (1, 2.0),
        np.bool_(True),
        np.int64(3),
        np.float32(np.inf),
        {1: 0.5},
    ):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps({"z": value})


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        1.7976931348623157e308,
        # in a list: a bare np.float64 would take the id of float("inf")
        [np.float64(np.inf)],
        np.array([0.5, np.nan]),
        np.array([[1.0, -1.7976931348623157e308]]),
    ],
)
def test_dumps_rejects_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"x": value})


def test_finite_value_rounding_to_inf_names_the_rounding():
    want = "cannot serialize 1.7976931348623157e+308: non-finite after rounding to 10 significant digits"
    with pytest.raises(ValueError) as info:
        dumps({"x": 1.7976931348623157e308})
    assert str(info.value) == want
    with pytest.raises(ValueError) as info:
        table_csv(Circulant(np.array([0.5, 1.7976931348623157e308])))
    assert str(info.value) == want


def test_dumps_keeps_largest_finite_rounding():
    assert json.loads(dumps({"x": 1.797693134e308})) == {"x": 1.797693134e308}


def test_table_csv():
    # t[k, j] = row[(k - j - 1) mod N]: the diagonal holds the last entry of the row
    text = table_csv(Circulant(np.array([0.25, 0.75])))
    lines = text.strip().split("\n")
    assert lines == ["k,j,p", "1,1,0.75", "1,2,0.25", "2,1,0.25", "2,2,0.75"]


def test_table_csv_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        table_csv(Circulant(np.array([0.5, np.nan])))


@pytest.mark.parametrize("N", [3, 256, 512])
def test_table_csv_translates_records_only(monkeypatch, N):
    # a short last block was padded with zeroed rows and translated whole: at
    # N = 256, M = 2 the second 1 MiB block held 86 rows and about 0.5 MiB of NULs
    seen = []

    class Recording(bytearray):
        def translate(self, *args):
            seen.append(len(self))
            return super().translate(*args)

    monkeypatch.setattr(serialize, "bytearray", Recording, raising=False)
    table = min_error_report(make_family(N, 2, (0.7, 0.6, math.sqrt(0.15))))["outcome_table"]
    text = table_csv(table)
    # the "k," and "j," label fields and the value token with its newline, each at its widest
    record = 2 * len(f"{N},") + max(len(f"{p:.10g}\n") for p in table.row.tolist())
    assert sum(seen) == N * N * record
    assert max(seen) - min(seen) <= N * record
    assert_same_text(text, reference_table_csv(table))


NOT_REPORT_ARRAYS = {
    "0-d-float": np.array(0.5),
    "0-d-int": np.array(3),
    "empty": np.zeros(0),
    "empty-rows": np.zeros((0, 3), dtype=np.int64),
    "empty-columns": np.zeros((3, 0)),
    "bool": np.array([True, False]),
    "bool-table": np.ones((2, 2), dtype=bool),
    "3-D": np.zeros((2, 2, 2)),
    "4-D-int": np.zeros((1, 2, 1, 2), dtype=np.int64),
}


@pytest.mark.parametrize("arr", NOT_REPORT_ARRAYS.values(), ids=NOT_REPORT_ARRAYS.keys())
def test_dumps_rejects_arrays_no_report_holds(arr):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"x": arr})


# ---------------------------------------------------------------- repeated values
# Each float is formatted on its own, and a table's tokens are laid out by
# its codes or diagonals; these cases would show a merge of values that are
# distinct as doubles, or a token placed at another value's position.

# doubles at or next to the midpoint of two 10-digit values; each value and
# its two neighbours round to two different tokens
BORDERS = (1.0000000005, 9.9999999995e-6, 123456789050.0)
REPEATED = {
    "signed-zeros": [0.0, -0.0, 0.0, -0.0],
    "subnormals": [5e-324, -5e-324, 5e-324, 2.5e-310, 2.5e-310, -5e-324],
    "rounding-border": [
        v
        for x in BORDERS
        for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)) * 2
    ],
}


@pytest.mark.parametrize("values", REPEATED.values(), ids=REPEATED.keys())
def test_repeated_values_keep_their_tokens(values):
    arr = np.array(values)
    assert dumps({"x": arr}) == reference_dumps({"x": arr})
    table = Circulant(arr)
    assert table_csv(table) == reference_table_csv(table)


def test_float32_array_encodes_without_warning():
    arr = np.array([[0.1, 0.1, -0.0], [3e38, 1e-45, 0.1]], dtype=np.float32)
    assert dumps({"x": arr}) == reference_dumps({"x": arr})
    table = Circulant(arr.ravel())
    assert table_csv(table) == reference_table_csv(table)


def _repeated_pairs() -> Fourier:
    """A 64 x 64 transfer matrix drawn from six [re, im] pairs, so whole rows repeat."""
    pool = np.array(
        [[0.5, -0.0], [0.1, 0.2], [-0.0, 0.0], [0.1, 0.2000000001], [0.2, 0.1], [1e-300, -7.0]]
    )
    return Fourier(pool[np.random.default_rng(5).integers(0, len(pool), size=65)])


def _wide_rows() -> Fourier:
    """An 80 x 80 transfer matrix: rows of 80 entries from 81 value rows of three floats."""
    return Fourier(np.random.default_rng(3).choice([0.5, -0.0, 1e-7], size=(81, 2)))


def _distinct_rows(N: int) -> Fourier:
    """An N x N transfer matrix whose N + 1 value rows all differ, so a misplaced row shows."""
    values = np.random.default_rng(N).uniform(-1.0, 1.0, size=(N + 1, 2))
    values[N // 2] = [-0.0, 5e-324]
    return Fourier(values)


NESTED = {
    "repeated-pairs": _repeated_pairs(),
    "signed-zero-rows": Fourier(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]])),
    "signed-zero-table": np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5], [0.0, -0.0]]),
    "int64-rows": np.array([[-1, 2**63 - 1], [0, -(2**63)], [-1, 2**63 - 1], [0, -(2**63)]]),
    "uint64-top": np.array([[2**64 - 1, 2**63], [2**63, 0], [2**64 - 1, 2**63]], dtype=np.uint64),
    # wide rows, of 80 and 70 codes
    "wide-rows": _wide_rows(),
    "wide-int-rows": np.random.default_rng(4).integers(-3, 3, size=(4, 70)),
    "distinct-rows-prime": _distinct_rows(127),
    "distinct-rows-composite": _distinct_rows(120),
}


@pytest.mark.parametrize("arr", NESTED.values(), ids=NESTED.keys())
def test_nested_rows_keep_their_text(arr):
    # a 2-D array's rows and a Fourier matrix's joined value rows; these
    # would show two rows merged or a row mis-nested
    assert_same_text(dumps({"x": arr, "y": [arr]}), reference_dumps({"x": arr, "y": [arr]}))


def test_integer_array_is_encoded_by_distinct_value(monkeypatch):
    # a count table used to take one _encode call per element (4096 here)
    calls = []
    encode = serialize._encode

    def counting(obj, *args):
        calls.append(type(obj).__name__)
        return encode(obj, *args)

    monkeypatch.setattr(serialize, "_encode", counting)
    counts = np.random.default_rng(7).integers(-40, 40, size=(64, 64))
    text = dumps({"x": counts})
    assert calls == ["dict", "ndarray"]
    assert_same_text(text, reference_dumps({"x": counts}))


def _unsorted(*args, **kwargs):
    raise AssertionError("the encoder sorts no array")


@pytest.mark.parametrize("top", [1, 0], ids=["span-below-size", "span-at-size"])
def test_integer_array_is_encoded_without_sorting(monkeypatch, top):
    # a count table whose span is below its size takes offset codes, any
    # other gives each element its own token; np.unique, which the other
    # path called, took 94 ms of the N = 1024 min-error simulate count table
    size = 64 * 64
    counts = np.random.default_rng(8).integers(0, size - 1, size=(64, 64))
    counts[0, :2] = [0, size - top]
    counts += 2**63 - 1 - size  # up to int64's maximum, where max - min must not wrap
    with monkeypatch.context() as patch:
        patch.setattr(np, "unique", _unsorted)
        text = dumps({"x": counts})
    assert_same_text(text, reference_dumps({"x": counts}))


def test_every_report_kind_is_encoded_without_sorting(monkeypatch):
    # each report holds O(N) floats, and a count table's values are mostly
    # distinct unless it holds many draws, so a sort saves no formatting
    example = (0.7, 0.6, 0.3872983346207417)
    family = make_family(3, 2, example)
    min_error, multiport = min_error_report(family), multiport_report(make_family(4, 1, (0.8, 0.6)))
    tables = [min_error["outcome_table"], multiport["click_table"]]
    reports = [
        min_error,
        multiport,
        *(ud_report(family, mechanism) for mechanism in MECHANISMS),
        run_min_error(family, 1000, 7).as_dict(),
        # N = 64 at 10^4 trials: a count table whose span is below its size
        run_min_error(make_family(64, 2, example), 10_000, 7).as_dict(),
        run_unambiguous(family, "tpa", 1000, 7).as_dict(),
        run_sfg_recovery_pipeline(family, 1000, 7).as_dict(),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(np, "unique", _unsorted)
        texts = [dumps(report) for report in reports]
        csvs = [table_csv(table) for table in tables]
    assert texts == [reference_dumps(report) for report in reports]
    assert csvs == [reference_table_csv(table) for table in tables]


@pytest.fixture(scope="module")
def multiport_n256():
    """The N = 256 multiport report and its reference JSON text, built once."""
    report = multiport_report(make_family(256, 1, (0.8, 0.6)))
    return report, reference_dumps(report)


def test_full_reports_at_n256_match_reference(multiport_n256):
    multiport, multiport_text = multiport_n256
    min_error = min_error_report(make_family(256, 2, (0.7, 0.6, 0.3872983346207417)))
    assert_same_text(dumps(multiport), multiport_text)
    assert_same_text(dumps(min_error), reference_dumps(min_error))
    for report, table in ((multiport, "click_table"), (min_error, "outcome_table")):
        assert_same_text(table_csv(report[table]), reference_table_csv(report[table]))


def test_dumps_holds_the_report_text_once(multiport_n256):
    # the outer depths go to the one list dumps joins, the click table as
    # runs shared by its rows; joining each row of the transfer matrix
    # first peaked at 2.0x
    report, _ = multiport_n256
    text, peak = peak_bytes(dumps, report)
    assert peak <= 1.35 * len(text)


def test_multiport_report_and_text_peak_near_the_text():
    # the N x N index of the transfer matrix (8 MiB) and the object array
    # gathered from it took the report and its text to 1.21x the text
    family = make_family(1024, 1, (0.8, 0.6))
    text, peak = peak_bytes(lambda: dumps(multiport_report(family)))
    assert peak <= 1.15 * len(text)


def test_table_csv_memory_is_bounded():
    # the 23 MiB text is held as its blocks and once joined (46.7 MiB);
    # a string per row kept the 8 MiB value codes besides (62.9 MiB)
    table = min_error_report(make_family(1024, 2, (0.7, 0.6, 0.3872983346207417)))["outcome_table"]
    _, peak = peak_bytes(table_csv, table)
    assert peak < 50 * 2**20


# ---------------------------------------------------------------- distinct values
# An integer array whose span is below its size formats each value present
# once and takes offset codes; any other array formats each element.  These
# arrays are made to merge values or to wrap the span: every value
# distinct, values one ulp apart, signed zeros, integer extremes, spans on
# either side of the size, and 2048 values crowded with over a thousand
# distinct ones.

EDGE_SHAPES = [(1,), (63,), (64,), (65,), (1, 1), (32, 2), (8, 8), (13, 5), (21, 3)]
EDGE_INTS = {
    np.int64: [-(2**63), -(2**63) + 1, -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1],
    np.uint64: [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1],
}
# 11-digit decimals ending in 5: the double nearest each lies at a border
# between two 10-digit tokens, so its ulp neighbours format differently
rounding_borders = st.builds(
    lambda digits, exponent: float(f"{digits}5e{exponent}"),
    st.integers(10**9, 10**10 - 1),
    st.integers(-300, 290),
)


def _ulp_run(x: float, count: int) -> list[float]:
    """count doubles around x, each one ulp above the last."""
    for _ in range(count // 2):
        x = float(np.nextafter(x, -np.inf))
    values = [x]
    for _ in range(count - 1):
        values.append(float(np.nextafter(values[-1], np.inf)))
    return values


@st.composite
def distinct_value_edges(draw):
    kind = draw(st.sampled_from(["distinct", "ulp", "zeros", "int64", "uint64", "span", "crowded"]))
    if kind == "crowded":
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        pool = rng.standard_normal(draw(st.integers(1025, 1500)))
        pool *= 10.0 ** rng.integers(-300, 300, len(pool))
        flat = rng.permutation(np.resize(pool, 2048))
        return flat.reshape(draw(st.sampled_from([(2048,), (1024, 2), (64, 32)])))
    shape = draw(st.sampled_from(EDGE_SHAPES))
    if kind == "distinct":
        return draw(hnp.arrays(np.float64, shape, elements=finite, unique=True))
    if kind in ("int64", "uint64"):
        dtype = np.int64 if kind == "int64" else np.uint64
        return draw(hnp.arrays(dtype, shape, elements=st.sampled_from(EDGE_INTS[dtype])))
    if kind == "span":
        # a span just below, at or above the size, offset to anywhere in int64
        size, dtype = math.prod(shape), draw(st.sampled_from([np.int64, np.uint64]))
        span = draw(st.integers(0, size + 1))
        info = np.iinfo(dtype)
        low = draw(st.integers(int(info.min), int(info.max) - span))
        values = draw(hnp.arrays(dtype, shape, elements=st.integers(low, low + span)))
        values.flat[:2] = [low, low + span][: values.size]
        return values
    if kind == "ulp":
        pool = _ulp_run(draw(st.one_of(rounding_borders, finite)), draw(st.integers(2, 8)))
    else:
        pool = [0.0, -0.0, *draw(st.lists(finite, max_size=2))]
    return draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(pool)))


@settings(max_examples=300, deadline=None)
@given(distinct_value_edges())
def test_distinct_values_match_reference_encoders(arr):
    assert_same_text(dumps({"x": arr, "y": [arr]}), reference_dumps({"x": arr, "y": [arr]}))
    if arr.ndim == 1 and arr.dtype.kind == "f" and len(arr) <= 70:
        table = Circulant(arr)
        assert table_csv(table) == reference_table_csv(table)


# ---------------------------------------------------------------- fourier matrices
# A Fourier matrix (a transfer matrix) is encoded from its N + 1 value rows
# by strided slices; its text must be that of the dense array gathered from
# the documented layout, and a non-finite value in any row must fail with
# the message of the value itself before any of the matrix's text is
# written.

NON_FINITE = [float("nan"), float("inf"), -float("inf"), 1.7976931348623157e308]
table_values = st.one_of(finite, st.sampled_from([5e-324, -5e-324, 2.5e-310, -0.0, 0.0]))


@st.composite
def fouriers(draw):
    """(Fourier matrix of N = 2..300, non-finite value placed in any value row, or None)."""
    # small N often, any N up to 300, and primes and composites next to powers of two
    edges = st.sampled_from([2, 3, 4, 31, 32, 97, 127, 128, 210, 251, 256, 257, 299, 300])
    N = draw(st.one_of(st.integers(2, 40), st.integers(2, 300), edges))
    shape = (N + 1, 2)
    values = draw(
        st.one_of(
            hnp.arrays(np.float64, shape, elements=table_values),
            pooled(st.just(shape), elements=table_values),
        )
    )
    bad = draw(st.none() | st.sampled_from(NON_FINITE))
    if bad is not None:
        values[draw(st.integers(0, N)), draw(st.integers(0, 1))] = bad
    return Fourier(values), bad


def _text_or_error(encode, arr):
    try:
        return encode(arr)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=200, deadline=None)
@given(fouriers())
@example((Fourier(np.array([[0.25, 0.25], [0.25, 0.25], [0.25, 0.25]])), None))
@example((Fourier(np.array([[-0.0, 5e-324], [0.0, -5e-324], [5e-324, -0.0]])), None))
@example((Fourier(np.array([[0.5, 0.0], [0.5, np.nan], [0.5, 0.0]])), np.nan))
@example((Fourier(np.full((258, 2), 0.5)), None))
@example((Fourier(np.append(np.full((257, 2), 0.5), [[np.inf, 0.0]], axis=0)), np.inf))
def test_fourier_is_its_dense_array(case):
    matrix, bad = case
    out = ["{"]
    try:
        serialize._encode(matrix, 1, out)
    except ValueError as exc:
        assert bad is not None and out == ["{"]
        assert f"ValueError: {exc}" == _text_or_error(lambda a: dumps({"t": a}), bad)
    else:
        assert bad is None
        assert len(out) == 1 + (len(matrix.values) - 1) ** 2 + 1
        # past N = 64 the per-element reference takes seconds; there the dense
        # matrix goes through dumps as the list of its N rows, (N, 2) arrays
        if len(matrix.values) <= 65:
            want = reference_dumps({"t": matrix})
        else:
            want = dumps({"t": list(fourier_dense(matrix))})
        assert_same_text(dumps({"t": matrix}), want)


def test_circulant_table_refuses_to_be_a_view():
    with pytest.raises(ValueError, match="avoid copy"):
        np.asarray(Circulant(np.array([0.25, 0.75])), copy=False)


@pytest.mark.parametrize("second", ["one character off", "a prefix"])
def test_report_text_comparison_names_the_first_difference(second):
    # a failing == of two multi-megabyte texts made pytest build their diff
    # for more than 9 minutes; the helper reports the offset at once
    text = "[0.1234567890,\n" * 400_000
    offset = 5_000_003
    other = text[:offset]
    if second == "one character off":
        other += "9" + text[offset + 1 :]
    with pytest.raises(AssertionError, match=f"texts differ from offset {offset} "):
        assert_same_text(text, other)
    assert_same_text(text, text)


def test_report_tables_encode_only_their_generators(monkeypatch, multiport_n256):
    # every float of the N = 256 transfer matrix and click table, and every
    # [re, im] pair, used to be hashed: 262,144 keys for the multiport JSON
    N = 256
    multiport, reference_text = multiport_n256
    min_error = min_error_report(make_family(N, 2, (0.7, 0.6, 0.3872983346207417)))
    keys = []
    tokens = serialize._tokens

    def counting(arr, *args):
        keys.append(arr.size)
        return tokens(arr, *args)

    monkeypatch.setattr(serialize, "_tokens", counting)
    text = dumps(multiport)
    dumps(min_error)
    table_csv(multiport["click_table"])
    table_csv(min_error["outcome_table"])
    assert sum(keys) <= 8 * N
    monkeypatch.undo()
    assert_same_text(text, reference_text)


@pytest.mark.parametrize("N", [3, 256])
def test_transfer_matrix_values_are_formatted_without_tokens(monkeypatch, N):
    # the matrix holds each entry once, so only the click table's row goes through _tokens
    report = multiport_report(make_family(N, 1, (0.8, 0.6)))
    calls = []
    tokens = serialize._tokens

    def counting(arr, *args):
        calls.append(arr)
        return tokens(arr, *args)

    monkeypatch.setattr(serialize, "_tokens", counting)
    dumps(report)
    assert len(calls) == 1 and calls[0] is report["click_table"].row


# ---------------------------------------------------------------- circulant tables
# A Circulant table is encoded from its row along its diagonals: JSON from
# shared runs of pieces, CSV from a strided window over the diagonal
# tokens.  Its dense array, text and CSV must be those of the table
# t[k, j] = row[(k - j - 1) mod N] gathered entry by entry.

@st.composite
def circulants(draw):
    """(Circulant table of N = 2..70, non-finite value in its row or None)."""
    N = draw(st.integers(2, 70))
    row = draw(
        st.one_of(
            hnp.arrays(np.float64, N, elements=table_values),
            pooled(st.just((N,)), elements=table_values),
        )
    )
    bad = draw(st.none() | st.sampled_from(NON_FINITE))
    if bad is not None:
        row[draw(st.integers(0, N - 1))] = bad
    return Circulant(row), bad


@settings(max_examples=100, deadline=None)
@given(circulants())
@example((Circulant(np.array([0.5, -0.0])), None))
@example((Circulant(np.array([0.25, 0.25, np.inf])), np.inf))
def test_circulant_table_is_its_dense_array(case):
    table, bad = case
    dense = reference_dense(table)
    assert len(table) == len(dense)
    assert np.asarray(table).tobytes() == dense.tobytes()
    assert [row.tobytes() for row in table] == [row.tobytes() for row in dense]
    text = _text_or_error(lambda a: dumps({"t": a, "u": [a]}), table)
    assert_same_text(text, _text_or_error(lambda a: dumps({"t": a, "u": [a]}), dense))
    assert text.startswith("ValueError: ") == (bad is not None)
    if bad is None:
        assert_same_text(table_csv(table), reference_table_csv(dense))
    else:
        assert _text_or_error(table_csv, table) == _text_or_error(lambda a: dumps({"t": a}), bad)


def test_click_table_adds_order_n_sqrt_n_pieces(multiport_n256):
    # the transfer matrix is one piece per entry; the circulant click table
    # was one per cell as well, N^2 more
    report, _ = multiport_n256
    N = report["N"]
    out = []
    serialize._encode(report, 0, out)
    assert len(out) <= N * N + 4 * N * math.ceil(math.sqrt(N)) + 64


# ---------------------------------------------------------------- float tokens


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        rounding_borders,
        st.integers(-(10**17), 10**17).map(float),
        st.floats(min_value=1e10, max_value=1e16),
        st.floats(min_value=-1e16, max_value=-1e10),
        st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
        st.sampled_from([-0.0, 0.0, 1e-4, 9.99999999995e-5, 1e10, 9999999999.5, 1e16, 5e-324]),
    )
)
def test_round_repr_is_the_repr_of_the_rounded_double(x):
    # a positional %g text is returned as it is; the rest goes through repr
    want = repr(float(f"{x:.10g}"))
    assert serialize._round_repr(x) == want
    if math.isfinite(float(want)):  # the largest doubles round to inf, which _float rejects
        assert serialize._float(x) == want
