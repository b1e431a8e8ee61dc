import numpy as np
import pytest

from qsdsim.fock import ancilla_transition_matrix, annihilation_matrix, build_basis
from reference import inv_sqrt_psd


def _unit(basis, occupation, ancilla_levels=()):
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[basis.index_of(occupation, ancilla_levels)] = 1.0
    return vec


def test_enumeration_order_two_modes():
    basis = build_basis(2, 2)
    assert basis.occupations == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert basis.dimension == 6


def test_enumeration_sorted_by_total_then_lex():
    basis = build_basis(3, 3)
    totals = [sum(occ) for occ in basis.occupations]
    assert totals == sorted(totals)
    for t in range(4):
        sector = [occ for occ in basis.occupations if sum(occ) == t]
        assert sector == sorted(sector)


def test_index_of_with_ancillas():
    basis = build_basis(2, 2, (2, 2))
    assert basis.ancilla_size == 4
    assert basis.dimension == 24
    # flat index = occupation index * 4 + (levelA * 2 + levelB)
    occ_idx = basis.occupation_index((1, 1))
    assert basis.index_of((1, 1), (0, 0)) == occ_idx * 4
    assert basis.index_of((1, 1), (0, 1)) == occ_idx * 4 + 1
    assert basis.index_of((1, 1), (1, 0)) == occ_idx * 4 + 2


def test_annihilation_matrix_elements():
    basis = build_basis(2, 2)
    a1 = annihilation_matrix(basis, 0)
    # a1 |2,0> = sqrt(2) |1,0>, a1 |1,1> = |0,1>
    v20 = _unit(basis, (2, 0))
    out = a1 @ v20
    assert abs(out[basis.index_of((1, 0))] - np.sqrt(2)) < 1e-12
    assert np.linalg.norm(out) == pytest.approx(np.sqrt(2))
    v11 = _unit(basis, (1, 1))
    out = a1 @ v11
    assert abs(out[basis.index_of((0, 1))] - 1.0) < 1e-12


def test_commutator_below_cutoff():
    """[a, a^dag] acts as identity on every sector strictly below the cutoff."""
    basis = build_basis(2, 3)
    a = annihilation_matrix(basis, 1)
    comm = a @ a.conj().T - a.conj().T @ a
    for occ in basis.occupations:
        if sum(occ) < 3:
            idx = basis.occupation_index(occ)
            col = comm[:, idx]
            assert abs(col[idx] - 1.0) < 1e-12
            assert np.linalg.norm(np.delete(col, idx)) < 1e-12


def test_number_operator_from_ladders():
    basis = build_basis(2, 2)
    a1 = annihilation_matrix(basis, 0)
    n1 = a1.conj().T @ a1
    expect = np.diag([float(occ[0]) for occ in basis.occupations])
    assert np.max(np.abs(n1 - expect)) < 1e-12


def test_ancilla_operators():
    basis = build_basis(1, 1, (3,))
    t = ancilla_transition_matrix(basis, 0, 2, 0)
    v0 = _unit(basis, (1,), (0,))
    assert abs((t @ v0)[basis.index_of((1,), (2,))] - 1.0) < 1e-12


def test_inv_sqrt_psd_known_spectrum():
    """Gram sum of the coincident triple has eigenvalues {3/4, 3/4, 3/2}."""
    R = inv_sqrt_psd(np.diag([0.75, 1.5, 0.75]))
    expect = np.diag([1 / np.sqrt(0.75), 1 / np.sqrt(1.5), 1 / np.sqrt(0.75)])
    assert np.max(np.abs(R - expect)) < 1e-12


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_inv_sqrt_psd_rank_deficient(seed):
    rng = np.random.default_rng(seed)
    d = build_basis(2, 2).dimension
    rank = 3
    v = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    A = v @ v.conj().T
    R = inv_sqrt_psd(A)
    assert np.linalg.matrix_rank(R) == rank
    RAR = R @ A @ R
    # R A R is the projector onto the support of A
    assert np.max(np.abs(RAR @ RAR - RAR)) < 1e-9
    assert abs(np.trace(RAR).real - rank) < 1e-9
    assert np.max(np.abs(RAR @ A - A)) < 1e-8


def test_inv_sqrt_psd_rejects_bad_input():
    with pytest.raises(ValueError):
        inv_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        inv_sqrt_psd(np.diag([1.0, -1.0]))


def test_basis_equality_between_builds():
    assert build_basis(2, 2, (2, 2)) == build_basis(2, 2, (2, 2))
    assert build_basis(2, 2) != build_basis(2, 3)
