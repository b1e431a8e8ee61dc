import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsdsim.families import make_family
from qsdsim.minerror import min_error_report
from qsdsim.multiport import multiport_report
from qsdsim import serialize
from qsdsim.serialize import Gathered, dumps, parse_complex, parse_polar, table_csv
from reference import reference_dumps, reference_table_csv


# ---------------------------------------------------------------- strategies

# 1.797693134e308 is the largest 10-digit value below the float maximum;
# anything larger rounds to inf and is rejected (see the tests below)
finite = st.one_of(
    st.floats(min_value=-1.797693134e308, max_value=1.797693134e308),
    st.floats(min_value=1e-6, max_value=1e-4),
    st.floats(min_value=1e10, max_value=1e16),
    st.sampled_from([0.0, -0.0, 1e-5, 9.9999999995e-6, 1e16, 123456789012.5]),
)
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)


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
    hnp.arrays(np.bool_, shapes),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    st.text(),
    finite.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
payloads = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=8), payloads, max_size=5))
def test_dumps_matches_reference_encoder(payload):
    assert dumps(payload) == reference_dumps(payload)


table_shapes = hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)


@settings(max_examples=100, deadline=None)
@given(st.one_of(hnp.arrays(np.float64, table_shapes, elements=finite), pooled(table_shapes)))
def test_table_csv_matches_per_cell_formatting(table):
    assert table_csv(table) == reference_table_csv(table)


# the k and j fields are as wide as the digits of the largest index; these
# shapes cross a digit boundary in one index or have no cells
WIDE_TABLE_SHAPES = [(9, 10), (10, 9), (99, 101), (100, 3), (3, 1000), (1000, 2), (0, 4), (4, 0), (0, 0)]


@pytest.mark.parametrize("shape", WIDE_TABLE_SHAPES, ids=str)
def test_table_csv_across_index_digit_widths(shape):
    rng = np.random.default_rng(math.prod(shape))
    table = rng.choice([0.25, -0.0, 1e-300, 123456789012.5, rng.random()], size=shape)
    assert table_csv(table) == reference_table_csv(table)


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
            "i": np.int64(3),
            "b": np.bool_(True),
            "arr": np.arange(3),
            "nested": [(1, 2.0)],
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
    # reports write complex values as [re, im] lists; a complex value is an unsupported type
    for value in (1 + 2j, np.complex128(2.0), np.zeros((2, 3, 0), dtype=complex)):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps({"z": value})


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        1.7976931348623157e308,
        np.float32(np.inf),
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
        table_csv(np.array([[0.5, 1.7976931348623157e308]]))
    assert str(info.value) == want


def test_dumps_keeps_largest_finite_rounding():
    assert json.loads(dumps({"x": 1.797693134e308})) == {"x": 1.797693134e308}


def test_table_csv():
    text = table_csv(np.array([[0.25, 0.75], [0.5, 0.5]]))
    lines = text.strip().split("\n")
    assert lines[0] == "k,j,p"
    assert lines[1] == "1,1,0.25"
    assert lines[4] == "2,2,0.5"
    assert len(lines) == 5


def test_table_csv_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        table_csv(np.array([[0.5, np.nan]]))


# ---------------------------------------------------------------- repeated values
# Each distinct float is formatted once and its token scattered back; these
# cases would show a merge of values that are distinct as doubles.

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
    table = arr.reshape(2, -1)
    assert table_csv(table) == reference_table_csv(table)


def test_float32_array_encodes_without_warning():
    arr = np.array([[0.1, 0.1, -0.0], [3e38, 1e-45, 0.1]], dtype=np.float32)
    assert dumps({"x": arr}) == reference_dumps({"x": arr})
    assert table_csv(arr) == reference_table_csv(arr)


def _repeated_pairs() -> np.ndarray:
    """(64, 64, 2) array drawn from six [re, im] pairs, with whole rows repeated."""
    pool = np.array(
        [[0.5, -0.0], [0.1, 0.2], [-0.0, 0.0], [0.1, 0.2000000001], [0.2, 0.1], [1e-300, -7.0]]
    )
    arr = pool[np.random.default_rng(5).integers(0, len(pool), size=(64, 64))]
    arr[10] = arr[3]
    arr[40:48] = arr[0]
    return arr


NESTED = {
    "repeated-pairs": _repeated_pairs(),
    "signed-zero-rows": np.array(
        [[[0.0, 1.0], [-0.0, 1.0]], [[-0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [-0.0, 1.0]]]
    ),
    "signed-zero-table": np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5], [0.0, -0.0]]),
    "empty-middle": np.zeros((3, 0, 2)),
    "empty-last": np.zeros((2, 3, 0)),
    "empty-wide": np.zeros((3, 0, 70)),
    "empty-middle-int": np.zeros((3, 0, 2), dtype=np.int64),
    "int64-rows": np.array([[[-1, 2**63 - 1], [0, -(2**63)]], [[-1, 2**63 - 1], [0, -(2**63)]]]),
    "uint64-top": np.array([[2**64 - 1, 2**63], [2**63, 0], [2**64 - 1, 2**63]], dtype=np.uint64),
    "bool-rows": np.array([[True, False], [False, True], [True, False]]),
    "empty-wide-int": np.zeros((3, 0, 70), dtype=np.int64),
    # wide rows, of 80 and 70 codes
    "wide-rows": np.random.default_rng(3).choice([0.5, -0.0, 1e-7], size=(2, 3, 80)),
    "wide-int-rows": np.random.default_rng(4).integers(-3, 3, size=(2, 2, 70)),
}


@pytest.mark.parametrize("arr", NESTED.values(), ids=NESTED.keys())
def test_nested_rows_keep_their_text(arr):
    # each row below the outer two depths is joined into one token; these
    # would show two rows merged or a zero-length level mis-nested
    assert dumps({"x": arr, "y": [arr]}) == reference_dumps({"x": arr, "y": [arr]})


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
    assert text == reference_dumps({"x": counts})


@pytest.fixture(scope="module")
def multiport_n256():
    """The N = 256 multiport report and its reference JSON text, built once."""
    report = multiport_report(make_family(256, 1, (0.8, 0.6)))
    return report, reference_dumps(report)


def test_full_reports_at_n256_match_reference(multiport_n256):
    multiport, multiport_text = multiport_n256
    min_error = min_error_report(make_family(256, 2, (0.7, 0.6, 0.3872983346207417)))
    assert dumps(multiport) == multiport_text
    assert dumps(min_error) == reference_dumps(min_error)
    for report, table in ((multiport, "click_table"), (min_error, "outcome_table")):
        assert table_csv(report[table]) == reference_table_csv(report[table])


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dumps_holds_the_report_text_once(multiport_n256):
    # the outer depth is appended token by token to the one list dumps
    # joins; joining each row of the transfer matrix first peaked at 2.0x
    report, _ = multiport_n256
    text, peak = _peak_bytes(dumps, report)
    assert peak <= 1.35 * len(text)


def test_table_csv_memory_is_bounded():
    # the 23 MiB text is held as its blocks and once joined (46.7 MiB);
    # a string per row kept the 8 MiB value codes besides (62.9 MiB)
    table = min_error_report(make_family(1024, 2, (0.7, 0.6, 0.3872983346207417)))["outcome_table"]
    _, peak = _peak_bytes(table_csv, table)
    assert peak < 50 * 2**20


# ---------------------------------------------------------------- hashed keys
# Distinct values are found by hashing their keys into about n / 16 buckets,
# and at least 1024; only keys that differ from their bucket's
# representative are sorted.  These arrays are made to defeat the hash:
# every key distinct, keys one ulp apart, signed zeros, integer extremes,
# and more distinct values than buckets, each used, so that equal and
# unequal keys share buckets.

HASH_SHAPES = [(0,), (1,), (63,), (64,), (65,), (0, 2), (1, 1), (32, 2), (8, 8), (13, 5), (21, 3)]
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
def hash_defeating(draw):
    kind = draw(st.sampled_from(["distinct", "ulp", "zeros", "int64", "uint64", "bool", "crowded"]))
    if kind == "crowded":
        # 2048 keys take 1024 buckets: 1025 or more distinct values, each
        # used, put a representative and a different key in some bucket
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        pool = rng.standard_normal(draw(st.integers(1025, 1500)))
        pool *= 10.0 ** rng.integers(-300, 300, len(pool))
        flat = rng.permutation(np.resize(pool, 2048))
        return flat.reshape(draw(st.sampled_from([(2048,), (1024, 2), (64, 32)])))
    shape = draw(st.sampled_from(HASH_SHAPES))
    if kind == "distinct":
        return draw(hnp.arrays(np.float64, shape, elements=finite, unique=True))
    if kind == "bool":
        return draw(hnp.arrays(np.bool_, shape))
    if kind in ("int64", "uint64"):
        dtype = np.int64 if kind == "int64" else np.uint64
        return draw(hnp.arrays(dtype, shape, elements=st.sampled_from(EDGE_INTS[dtype])))
    if kind == "ulp":
        pool = _ulp_run(draw(st.one_of(rounding_borders, finite)), draw(st.integers(2, 8)))
    else:
        pool = [0.0, -0.0, *draw(st.lists(finite, max_size=2))]
    return draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(pool)))


@settings(max_examples=300, deadline=None)
@given(hash_defeating())
def test_hashed_distinct_values_match_reference_encoders(arr):
    assert dumps({"x": arr, "y": [arr]}) == reference_dumps({"x": arr, "y": [arr]})
    if arr.ndim == 2 and arr.dtype.kind == "f":
        assert table_csv(arr) == reference_table_csv(arr)


# ---------------------------------------------------------------- gathered arrays
# A Gathered array is encoded from its value rows and its index; its text
# must be that of the dense array values[index], and a non-finite value
# must fail with the dense array's message.

NON_FINITE = [float("nan"), float("inf"), -float("inf"), 1.7976931348623157e308]
gathered_values = st.one_of(finite, st.sampled_from([5e-324, -5e-324, 2.5e-310, -0.0, 0.0]))


@st.composite
def gathered(draw):
    """(Gathered, non-finite value placed in a row its index takes, or None)."""
    n = draw(st.integers(1, 6))
    shape = (n, *draw(st.sampled_from([(), (2,)])))
    values = draw(
        st.one_of(
            hnp.arrays(np.float64, shape, elements=gathered_values),
            pooled(st.just(shape), elements=gathered_values),
        )
    )
    index_shape = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)
    index = draw(hnp.arrays(np.intp, index_shape, elements=st.integers(0, n - 1)))
    bad = draw(st.none() | st.sampled_from(NON_FINITE)) if index.size else None
    if bad is not None:
        values.reshape(n, -1)[index.flat[0], draw(st.integers(0, values[0].size - 1))] = bad
    return Gathered(values, index), bad


def _text_or_error(encode, arr):
    try:
        return encode(arr)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=200, deadline=None)
@given(gathered())
@example((Gathered(np.array([0.25]), np.zeros((1, 1), dtype=np.intp)), None))
@example((Gathered(np.array([[-0.0, 5e-324]]), np.zeros((1, 1), dtype=np.intp)), None))
@example((Gathered(np.array([0.5, np.nan]), np.array([[0, 1], [1, 0]])), np.nan))
def test_gathered_is_its_dense_array(case):
    g, bad = case
    dense = np.asarray(g)
    assert dense.shape == g.shape
    assert [np.asarray(row).tobytes() for row in g] == [row.tobytes() for row in dense]
    text = _text_or_error(lambda a: dumps({"t": a}), g)
    assert text == _text_or_error(lambda a: dumps({"t": a}), dense)
    assert text.startswith("ValueError: ") == (bad is not None)
    if g.index.ndim == 2 and g.values.ndim == 1:
        assert _text_or_error(table_csv, g) == _text_or_error(table_csv, dense)


def test_report_tables_hash_only_their_generators(monkeypatch, multiport_n256):
    # every float of the N = 256 transfer matrix and click table, and every
    # [re, im] pair, used to be hashed: 262,144 keys for the multiport JSON
    N = 256
    multiport, reference_text = multiport_n256
    min_error = min_error_report(make_family(N, 2, (0.7, 0.6, 0.3872983346207417)))
    hashed = []
    runs = serialize._runs

    def counting(keys):
        hashed.append(len(keys))
        return runs(keys)

    monkeypatch.setattr(serialize, "_runs", counting)
    text = dumps(multiport)
    dumps(min_error)
    table_csv(multiport["click_table"])
    table_csv(min_error["outcome_table"])
    assert sum(hashed) <= 8 * N
    monkeypatch.undo()
    assert text == reference_text


def test_multiport_report_sorts_only_colliding_keys(monkeypatch, multiport_n256):
    # the N = 256 report used to argsort 262,656 keys: every float bit
    # pattern, every [re, im] pair and every row of both arrays
    report, reference_text = multiport_n256
    sorted_keys = []
    argsort = np.argsort

    def counting(keys, *args, **kwargs):
        sorted_keys.append(len(keys))
        return argsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    text = dumps(report)
    assert sum(sorted_keys) < 0.1 * 262_656
    monkeypatch.undo()
    assert text == reference_text
