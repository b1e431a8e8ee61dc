import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsdsim.families import make_family
from qsdsim.minerror import min_error_report
from qsdsim.multiport import multiport_report
from qsdsim import serialize
from qsdsim.serialize import dumps, parse_complex, parse_polar, table_csv


# ---------------------------------------------------------------- reference
# The encoding dumps must reproduce byte for byte: round every float to 10
# significant digits, turn complex values into [re, im] (a bare real when
# the imaginary part is zero), then run the standard library encoder.


def reference_float(x) -> float:
    x = float(x)
    if x == 0.0 or not np.isfinite(x):
        return x
    return float(f"{x:.10g}")


def reference_round(obj):
    if isinstance(obj, dict):
        return {str(k): reference_round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_round(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return reference_round(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        if z.imag == 0.0:
            return reference_float(z.real)
        return [reference_float(z.real), reference_float(z.imag)]
    if isinstance(obj, (float, np.floating)):
        return reference_float(obj)
    return obj


def reference_dumps(payload) -> str:
    return json.dumps(reference_round(payload), indent=2, sort_keys=True) + "\n"


def reference_table_csv(table) -> str:
    lines = ["k,j,p"]
    for k, row in enumerate(np.asarray(table, dtype=float), start=1):
        for j, p in enumerate(row, start=1):
            lines.append(f"{k},{j},{reference_float(p):.10g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- strategies

# 1.797693134e308 is the largest 10-digit value below the float maximum;
# anything larger rounds to inf and is rejected (see the tests below)
finite = st.one_of(
    st.floats(min_value=-1.797693134e308, max_value=1.797693134e308),
    st.floats(min_value=1e-6, max_value=1e-4),
    st.floats(min_value=1e10, max_value=1e16),
    st.sampled_from([0.0, -0.0, 1e-5, 9.9999999995e-6, 1e16, 123456789012.5]),
)
complexes = st.builds(complex, finite, st.one_of(finite, st.just(0.0), st.just(-0.0)))
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
    hnp.arrays(np.complex128, shapes, elements=complexes),
    hnp.arrays(np.bool_, shapes),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    complexes,
    st.text(),
    finite.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    complexes.map(np.complex128),
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


@pytest.mark.filterwarnings("error")
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
            "z": 1 + 2j,
            "zr": 2 + 0j,
            "arr": np.arange(3),
            "nested": [(1, 2.0)],
            "none": None,
        }
    )
    payload = json.loads(text)
    assert payload["f"] == 0.123456789
    assert payload["i"] == 3 and isinstance(payload["i"], int)
    assert payload["b"] is True
    assert payload["z"] == [1.0, 2.0]
    assert payload["zr"] == 2.0
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


def test_dumps_complex_pair_rounding():
    assert json.loads(dumps({"z": np.exp(0.25j)}))["z"] == [0.9689124217, 0.2474039593]


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        1.7976931348623157e308,
        complex(1.0, float("nan")),
        np.array([0.5, np.nan]),
        np.array([[1.0, -1.7976931348623157e308]]),
        np.array([1j, complex(np.inf, 0.0)]),
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


@pytest.mark.filterwarnings("error")
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
    "empty-last-complex": np.zeros((2, 3, 0), dtype=complex),
    "int64-rows": np.array([[[-1, 2**63 - 1], [0, -(2**63)]], [[-1, 2**63 - 1], [0, -(2**63)]]]),
    "uint64-top": np.array([[2**64 - 1, 2**63], [2**63, 0], [2**64 - 1, 2**63]], dtype=np.uint64),
    "bool-rows": np.array([[True, False], [False, True], [True, False]]),
    "empty-wide-int": np.zeros((3, 0, 70), dtype=np.int64),
}


@pytest.mark.parametrize("arr", NESTED.values(), ids=NESTED.keys())
def test_nested_rows_keep_their_text(arr):
    # each distinct row is joined once per depth and its text scattered back;
    # these would show two rows merged or a zero-length level mis-nested
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


def test_full_reports_at_n256_match_reference():
    multiport = multiport_report(make_family(256, 1, (0.8, 0.6)))
    min_error = min_error_report(make_family(256, 2, (0.7, 0.6, 0.3872983346207417)))
    for report, table in ((multiport, "click_table"), (min_error, "outcome_table")):
        assert dumps(report) == reference_dumps(report)
        assert table_csv(report[table]) == reference_table_csv(report[table])
