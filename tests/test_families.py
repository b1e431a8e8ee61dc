import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.families import (
    COINCIDENT_COEFFS,
    FamilyError,
    coincident_family,
    family_states,
    family_to_json,
    make_family,
    phase_matrix,
    roots_of_unity,
    two_photon_labels,
)
from qsdsim.fock import build_basis
from qsdsim.tolerances import CLOSED_FORM_TOL
from reference import coincident_ladder_states, peak_bytes, random_coeffs, single_mode


def test_make_family_error_codes():
    with pytest.raises(FamilyError) as err:
        make_family(3, 2, (0.5, 0.5))
    assert err.value.code == "coeff-count"
    with pytest.raises(FamilyError) as err:
        make_family(2, 2, COINCIDENT_COEFFS)
    assert err.value.code == "too-few-states"
    with pytest.raises(FamilyError) as err:
        make_family(3, 2, (0.0, 1.0, 0.0))
    assert err.value.code == "zero-coefficient"
    # a subnormal modulus counts as zero, and the message names its value
    with pytest.raises(FamilyError, match=r"c_2 = \(1e-310\+0j\) is below 2\.2251e-308") as err:
        make_family(3, 2, (0.8, 0.6, 1e-310))
    assert err.value.code == "zero-coefficient"
    make_family(3, 2, (0.8, 0.6, np.finfo(float).tiny))
    with pytest.raises(FamilyError) as err:
        make_family(3, 2, (0.5, 0.5, 0.5))
    assert err.value.code == "not-normalized"


@pytest.mark.parametrize("N,M", [(3.5, 2), (3.0, 2), (3, 2.0), ("3", 2)])
def test_make_family_rejects_non_integer_sizes(N, M):
    # make_family(3.5, 2, c) returned a family with N = 3, and
    # coincident_family(3.5) failed with numpy's broadcast error
    with pytest.raises(FamilyError, match=r" must be integers$") as err:
        make_family(N, M, COINCIDENT_COEFFS)
    assert err.value.code == "non-integer-size"


@pytest.mark.parametrize("N", [3.5, 3.0, "3"])
def test_coincident_family_rejects_non_integer_size(N):
    # coincident_family("3") compared "3" < 3 first and raised a bare TypeError
    with pytest.raises(FamilyError, match=r" must be integers$"):
        coincident_family(N)


def test_make_family_takes_numpy_integer_sizes():
    family = make_family(np.int64(3), np.int32(2), COINCIDENT_COEFFS)
    assert (family.N, family.M) == (3, 2) and type(family.N) is type(family.M) is int


@pytest.mark.parametrize(
    "coeffs", [(float("nan"), 0.6), (0.8, complex(0.6, float("nan"))), (float("inf"), 0.6)]
)
def test_make_family_rejects_non_finite_coefficient(coeffs):
    # abs(nan - 1) > tol is False, so the normalization check alone let NaN through
    with pytest.raises(FamilyError) as err:
        make_family(3, 1, coeffs)
    assert err.value.code == "non-finite-coefficient"


def test_ordering_warning_vs_error():
    coeffs = (0.5, 0.5, 1.0 / np.sqrt(2.0))  # |c_2| largest
    # the ordering only matters to the contraction schedules: no warning here
    fam = make_family(3, 2, coeffs)
    assert fam.N == 3
    with pytest.raises(FamilyError) as err:
        make_family(3, 2, coeffs, protocol_ordering=True)
    assert err.value.code == "coefficient-ordering"
    # an excess of 1.7e-9 of |c_0|: the message names both moduli in full
    with pytest.raises(FamilyError, match=r"= 0\.57735027 exceeds .* = 0\.577350269;"):
        make_family(3, 2, (0.5773502690, 0.5773502690, 0.5773502700), protocol_ordering=True)


def test_protocol_ordering_takes_moduli_one_rounding_apart_as_a_tie():
    # normalized, |c_2| lies one rounding above |c_0|; the contraction schedules accept it too
    coeffs = (0.5773502691896258, *[0.5773502691896258 * np.exp(0.1j)] * 2)
    fam = make_family(3, 2, coeffs, protocol_ordering=True)
    assert fam.moduli[2] > fam.moduli[0]


def test_coincident_family_coefficients():
    fam = coincident_family(3)
    assert fam.M == 2
    assert np.allclose(fam.coeffs, (0.5, 1.0 / np.sqrt(2.0), 0.5))
    assert fam.linearly_independent


def test_make_family_builds_read_only_arrays_once():
    # moduli and unit_phases were properties that derived np.abs(coeffs) again on every read
    fam = make_family(5, 2, (0.7, 0.6j, 0.3872983346207417))
    assert fam.moduli is fam.moduli
    assert fam.unit_phases is fam.unit_phases
    for arr in (fam.coeffs, fam.moduli, fam.unit_phases):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # the arrays hold c_0..c_M at any N
    assert coincident_family(3000000000).coeffs.shape == (3,)


@st.composite
def signed_coefficients(draw):
    """(N, M, c_0..c_M as Python complex): uniform or drawn moduli, parts of either signed zero."""
    M = draw(st.integers(1, 6))
    N = draw(st.integers(M + 1, M + 41))
    if draw(st.booleans()):
        mags = np.full(M + 1, 1.0 / np.sqrt(M + 1))
    else:
        mags = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=M + 1, max_size=M + 1)))
        mags /= np.linalg.norm(mags)
    coeffs = []
    for m in mags.tolist():
        m *= draw(st.sampled_from((1.0, -1.0)))
        zero = draw(st.sampled_from((0.0, -0.0)))
        axis = draw(st.sampled_from(("real", "imaginary", "any")))
        if axis == "real":
            coeffs.append(complex(m, zero))
        elif axis == "imaginary":
            coeffs.append(complex(zero, m))
        else:
            coeffs.append(m * complex(np.exp(1j * draw(st.floats(-np.pi, np.pi)))))
    return N, M, coeffs


@settings(max_examples=100, deadline=None)
@given(signed_coefficients())
def test_stored_arrays_hold_the_bits_every_layer_derived(case):
    # the bits of np.asarray over the tuple the family held, and of the two
    # properties over it; a -0.0 part differs from 0.0 in its uint64 view
    N, M, coeffs = case
    fam = make_family(N, M, coeffs)
    held = np.asarray(tuple(coeffs))
    moduli = np.abs(held)
    wanted = (held, moduli, held / moduli)
    for stored, want in zip((fam.coeffs, fam.moduli, fam.unit_phases), wanted):
        assert np.array_equal(stored.view(np.uint64), want.view(np.uint64))


def test_coincident_family_rejects_too_few_states():
    # make_family judges the size: the same code and message as any family
    with pytest.raises(FamilyError, match=r"^need N >= M \+ 1, got N = 2, M = 2$") as err:
        coincident_family(2)
    assert err.value.code == "too-few-states"


@pytest.mark.parametrize("N", [3, 4, 5, 7])
def test_coincident_family_any_n(N):
    fam = coincident_family(N)
    assert fam.N == N
    assert fam.linearly_independent == (N == 3)


@pytest.mark.parametrize("N", [*range(3, 65), 127, 1024, 4099])
def test_coincident_family_is_the_ladder_prepared_pair(N):
    # the library states the coefficients; 2^{-1/2} (b_k^dag)^2 |vac> derives them
    fam = coincident_family(N)
    basis = build_basis(2, 2)
    expected = family_states(fam, basis, two_photon_labels(basis))
    dev = np.max(np.abs(coincident_ladder_states(fam) - expected), axis=1)
    assert np.max(dev) <= CLOSED_FORM_TOL


def test_coincident_family_builds_no_array():
    # it derived the constant again over (N, 6) arrays: 36 MiB at N = 2^16
    _, peak = peak_bytes(coincident_family, 2**16)
    assert peak < 2**20


@pytest.mark.parametrize("seed,N,M", [(0, 3, 2), (1, 4, 2), (2, 5, 3), (3, 6, 1)])
def test_family_state_overlaps(seed, N, M):
    """<psi_j|psi_k> = sum_l |c_l|^2 e^{i 2 pi l (k - j) / N}."""
    rng = np.random.default_rng(seed)
    fam = make_family(N, M, random_coeffs(rng, M))
    basis, labels = single_mode(fam)
    states = family_states(fam, basis, labels)
    mags2 = np.abs(fam.coeffs) ** 2
    for j in range(N):
        for k in range(N):
            got = np.vdot(states[j], states[k])
            want = np.sum(mags2 * np.exp(2j * np.pi * np.arange(M + 1) * (k - j) / N))
            assert abs(got - want) < 1e-12


@pytest.mark.parametrize("N,M", [(N, M) for N in (7, 256, 2048) for M in (1, 2, N - 1)])
def test_phase_matrix_gathers_the_n_roots(N, M):
    # the phases were exp(i 2 pi l k / N) of the unreduced l k, so congruent
    # exponents gave different bits and the error grew with l k
    family = make_family(N, M, np.full(M + 1, 1.0 / np.sqrt(M + 1)))
    roots = roots_of_unity(N)
    residues = np.arange(1, N + 1)[:, None] * np.arange(M + 1) % N
    bits = phase_matrix(family).view(np.uint64)
    assert np.array_equal(bits, roots[residues].view(np.uint64))
    # the angle 2 pi m / N rounds by at most 2 pi eps, and the exponential adds an eps or two
    angles = 8 * np.arctan(np.longdouble(1)) * np.arange(N, dtype=np.longdouble) / N
    error = np.hypot(roots.real - np.cos(angles), roots.imag - np.sin(angles))
    assert np.max(error) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize(
    "basis,labels",
    [
        (build_basis(1, 4, ()), (0, 1, 2)),
        (build_basis(1, 4, ()), (2, 3, 4)),
        (build_basis(2, 2, ()), two_photon_labels(build_basis(2, 2, ()))),
        (build_basis(2, 2, (2, 2)), two_photon_labels(build_basis(2, 2, (2, 2)))),
        (build_basis(1, 4, ()), (0, 2, 4)),
    ],
    ids=["run-at-0", "run-at-2", "two-photon", "two-photon-ancillas", "strided"],
)
def test_embed_rows_places_each_label_column(basis, labels):
    # family_states, the one embedding of a family in a Fock basis, puts
    # amplitude l of every row in column labels[l] and zeros elsewhere
    rng = np.random.default_rng(len(labels) + labels[0])
    family = make_family(5, 2, random_coeffs(rng, 2))
    want = np.zeros((5, basis.dimension), dtype=complex)
    phases = phase_matrix(family)
    for l, label in enumerate(labels):
        want[:, label] = family.coeffs[l] * phases[:, l]
    assert np.array_equal(family_states(family, basis, labels), want)


def test_frozen_overlaps_coincident():
    """Adjacent two-photon members: -1/8 + i sqrt(3)/8 for N = 3, i/2 for N = 4."""
    basis = build_basis(2, 2)
    labels = two_photon_labels(basis)
    states3 = family_states(coincident_family(3), basis, labels)
    assert abs(np.vdot(states3[0], states3[1]) - (-0.125 + 0.21650635094610965j)) < 1e-12
    states4 = family_states(coincident_family(4), basis, labels)
    assert abs(np.vdot(states4[0], states4[1]) - 0.5j) < 1e-12


@pytest.mark.parametrize("seed", [4, 5])
def test_cyclic_shift_property(seed):
    """The amplitudes of member k + 1 are e^{i 2 pi l / N} times those of member k."""
    rng = np.random.default_rng(seed)
    fam = make_family(5, 2, random_coeffs(rng, 2))
    basis, labels = single_mode(fam)
    states = family_states(fam, basis, labels)
    shift = np.exp(2j * np.pi * np.arange(3) / 5)
    for k in range(5):
        moved = shift * states[k][list(labels)]
        target = states[(k + 1) % 5][list(labels)]
        assert np.max(np.abs(moved - target)) < 1e-12


def test_json_round_trip():
    """family_to_json survives JSON text as N, M and [re, im] coefficient pairs."""
    coeffs = (0.5, np.sqrt(0.5) * np.exp(0.3j), 0.5j)
    payload = json.loads(json.dumps(family_to_json(make_family(4, 2, coeffs))))
    assert set(payload) == {"N", "M", "coeffs"}
    assert payload["N"] == 4 and payload["M"] == 2
    assert payload["coeffs"] == [[complex(c).real, complex(c).imag] for c in coeffs]


def _root_exponentials(tree: ast.AST, function: str = "<module>"):
    """(function, line) of each np.exp call whose argument holds 2j or pi, by enclosing function."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "np.exp"
            and any(
                (isinstance(n, ast.Constant) and n.value == 2j)
                or (isinstance(n, (ast.Name, ast.Attribute)) and ast.unparse(n).split(".")[-1] == "pi")
                for arg in node.args
                for n in ast.walk(arg)
            )
        ):
            yield function, node.lineno
        yield from _root_exponentials(node, inner)


def test_roots_of_unity_is_the_only_root_exponential():
    # every phase e^{i 2 pi m / N} is gathered from the one table that root_error proves
    found = {
        f"{path.name}:{line} in {function}"
        for path in sorted((Path(__file__).parent.parent / "src" / "qsdsim").glob("*.py"))
        for function, line in _root_exponentials(ast.parse(path.read_text()))
    }
    assert len(found) == 1 and next(iter(found)).endswith(" in roots_of_unity"), found
