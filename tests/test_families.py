import json

import numpy as np
import pytest

from qsdsim.families import (
    COINCIDENT_COEFFS,
    FamilyError,
    coincident_family,
    cyclic_shift_operator,
    family_from_json,
    family_states,
    family_to_json,
    make_family,
    normalized_family,
    single_mode_embedding,
    two_photon_basis,
    two_photon_labels,
)
from qsdsim.fock import build_basis


def _random_coeffs(rng, M, real=False):
    while True:
        c = rng.normal(size=M + 1) + (0 if real else 1j * rng.normal(size=M + 1))
        c = c / np.linalg.norm(c)
        if np.min(np.abs(c)) > 0.1:
            # smallest modulus last, so no schedule-ordering warning fires
            return c[np.argsort(-np.abs(c))]


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
    with pytest.raises(FamilyError) as err:
        make_family(3, 2, (0.5, 0.5, 0.5))
    assert err.value.code == "not-normalized"


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
    with pytest.warns(UserWarning):
        fam = make_family(3, 2, coeffs)
    assert fam.N == 3
    with pytest.raises(FamilyError) as err:
        make_family(3, 2, coeffs, protocol_ordering=True)
    assert err.value.code == "coefficient-ordering"


def test_normalized_family_rescales():
    fam = normalized_family(4, 1, (3.0, 4.0))
    assert np.max(np.abs(np.asarray(fam.coeffs) - (0.6, 0.8))) < 1e-15
    with pytest.raises(FamilyError):
        normalized_family(3, 1, (0.0, 0.0))


def test_coincident_family_coefficients():
    fam = coincident_family(3)
    assert fam.M == 2
    assert np.allclose(fam.coeffs, (0.5, 1.0 / np.sqrt(2.0), 0.5))
    assert fam.linearly_independent
    with pytest.raises(ValueError):
        coincident_family(2)


@pytest.mark.parametrize("N", [3, 4, 5, 7])
def test_coincident_family_any_n(N):
    fam = coincident_family(N)
    assert fam.N == N
    assert fam.linearly_independent == (N == 3)


@pytest.mark.parametrize("seed,N,M", [(0, 3, 2), (1, 4, 2), (2, 5, 3), (3, 6, 1)])
def test_family_state_overlaps(seed, N, M):
    """<psi_j|psi_k> = sum_l |c_l|^2 e^{i 2 pi l (k - j) / N}."""
    rng = np.random.default_rng(seed)
    fam = make_family(N, M, _random_coeffs(rng, M))
    basis, labels = single_mode_embedding(fam)
    states = family_states(fam, basis, labels)
    mags2 = np.abs(np.asarray(fam.coeffs)) ** 2
    for j in range(N):
        for k in range(N):
            got = states[j].inner(states[k])
            want = np.sum(mags2 * np.exp(2j * np.pi * np.arange(M + 1) * (k - j) / N))
            assert abs(got - want) < 1e-12


def test_frozen_overlaps_coincident():
    """Adjacent two-photon members: -1/8 + i sqrt(3)/8 for N = 3, i/2 for N = 4."""
    basis = build_basis(2, 2)
    labels = two_photon_labels(basis)
    states3 = family_states(coincident_family(3), basis, labels)
    assert abs(states3[0].inner(states3[1]) - (-0.125 + 0.21650635094610965j)) < 1e-12
    states4 = family_states(coincident_family(4), basis, labels)
    assert abs(states4[0].inner(states4[1]) - 0.5j) < 1e-12


def test_family_states_label_validation():
    fam = coincident_family(3)
    basis = build_basis(2, 2)
    with pytest.raises(ValueError):
        family_states(fam, basis, (0, 1))
    with pytest.raises(ValueError):
        family_states(fam, basis, (0, 1, 1))
    with pytest.raises(ValueError):
        family_states(fam, basis, (0, 1, 99))


def test_two_photon_basis_orthonormal():
    basis = build_basis(2, 2)
    u0, u1, u2 = two_photon_basis(basis)
    labels = two_photon_labels(basis)
    vs = [u0, u1, u2]
    for i, v in enumerate(vs):
        assert abs(v.amplitudes[labels[i]] - 1.0) < 1e-12
        for j, w in enumerate(vs):
            assert abs(v.inner(w) - (1.0 if i == j else 0.0)) < 1e-12
    with pytest.raises(ValueError):
        two_photon_basis(build_basis(1, 2))


@pytest.mark.parametrize("seed", [4, 5])
def test_cyclic_shift_property(seed):
    rng = np.random.default_rng(seed)
    fam = make_family(5, 2, _random_coeffs(rng, 2))
    basis, labels = single_mode_embedding(fam)
    states = family_states(fam, basis, labels)
    shift = cyclic_shift_operator(fam, basis, labels)
    for k in range(5):
        moved = shift.apply(states[k])
        target = states[(k + 1) % 5]
        assert np.max(np.abs(moved.amplitudes - target.amplitudes)) < 1e-12
    assert shift.kind == "unitary"


def test_json_round_trip():
    fam = make_family(4, 2, (0.5, np.sqrt(0.5) * np.exp(0.3j), 0.5j))
    payload = json.loads(json.dumps(family_to_json(fam)))
    back = family_from_json(payload)
    assert back.N == fam.N and back.M == fam.M
    assert np.allclose(back.coeffs, fam.coeffs)
