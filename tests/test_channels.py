import itertools

import numpy as np
import pytest
import scipy.linalg

from qsdsim.channels import (
    AtomFieldModel,
    ScheduleError,
    atom_excitation_avg,
    atom_field_hamiltonian,
    detector_atom_coefficients,
    detector_atom_model,
    sfg_rotations,
    sfg_schedule,
    sfg_unitary,
    tpa_conditional_operator,
    tpa_schedule,
)
from qsdsim.families import (
    coincident_family,
    family_states,
    make_family,
    two_photon_labels,
)
from qsdsim.fock import ancilla_transition_matrix, annihilation_matrix, build_basis
from qsdsim.minerror import detection_rows

EXAMPLE = (0.7, 0.6, np.sqrt(0.15))


def _unit(basis, occupation, ancilla_levels=()):
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[basis.index_of(occupation, ancilla_levels)] = 1.0
    return vec
# frozen from log(0.7/sqrt(0.15)) and 2 log(0.6/sqrt(0.15))
TPA_PRODUCTS = (0.5918850485042082, 0.8754687373538997)
# frozen from sqrt(2) arccos(sqrt(0.15)/0.7) and 2 arccos(sqrt(0.15)/0.6)
SFG_PRODUCTS = (1.3922870489217418, 1.7382444060145856)


def test_tpa_generator_action():
    """The (1,1) generator is n_1(n_1 - 1), the (1,2) generator n_1 n_2."""
    basis = build_basis(2, 2)
    p = 0.37
    k11 = tpa_conditional_operator(basis, (1, 1), p)
    k12 = tpa_conditional_operator(basis, (1, 2), p)
    for occ in basis.occupations:
        idx = basis.occupation_index(occ)
        n1, n2 = occ
        assert abs(k11[idx, idx] - np.exp(-0.5 * p * n1 * (n1 - 1))) < 1e-12
        assert abs(k12[idx, idx] - np.exp(-0.5 * p * n1 * n2)) < 1e-12
    assert np.max(np.abs(k11 - np.diag(np.diag(k11)))) < 1e-12
    # ancilla factors repeat each field entry, in the flat-index order of FockBasis
    with_ancillas = tpa_conditional_operator(build_basis(2, 2, (2, 3)), (1, 2), p)
    assert np.max(np.abs(with_ancillas - np.kron(k12, np.eye(6)))) < 1e-15


def test_tpa_schedule_frozen():
    fam = make_family(3, 2, EXAMPLE)
    assert np.max(np.abs(np.array(tpa_schedule(fam)) - TPA_PRODUCTS)) < 1e-12


def test_sfg_schedule_frozen():
    fam = make_family(3, 2, EXAMPLE)
    assert np.max(np.abs(np.array(sfg_schedule(fam)) - SFG_PRODUCTS)) < 1e-12


def test_schedules_infeasible_when_c2_largest():
    fam = make_family(3, 2, (0.5, 0.5, 1.0 / np.sqrt(2.0)))
    with pytest.raises(ScheduleError):
        tpa_schedule(fam)
    with pytest.raises(ScheduleError):
        sfg_schedule(fam)


def test_schedule_requires_three_coefficients():
    fam = make_family(3, 1, (0.8, 0.6))
    with pytest.raises(ValueError):
        tpa_schedule(fam)
    with pytest.raises(ValueError):
        sfg_schedule(fam)


def test_sfg_unitary_two_level_rotation():
    """|2,0>|0>_A rotates toward |0,0>|1>_A, |1,1>|0>_B toward |0,0>|1>_B, by (cosine, sine)."""
    basis = build_basis(2, 2, (2, 2))
    r = 0.3
    s = np.sqrt(1.0 - r * r)
    u11 = sfg_unitary(basis, (1, 1), (r, s), ancilla=0)
    for other in (0, 1):  # one block per level of the other ancilla
        out = u11 @ _unit(basis, (2, 0), (0, other))
        assert abs(out[basis.index_of((2, 0), (0, other))] - r) < 1e-12
        assert abs(out[basis.index_of((0, 0), (1, other))] + s) < 1e-12
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        back = u11 @ _unit(basis, (0, 0), (1, other))
        assert abs(back[basis.index_of((2, 0), (0, other))] - s) < 1e-12

    u12 = sfg_unitary(basis, (1, 2), (r, s), ancilla=1)
    out = u12 @ _unit(basis, (1, 1), (0, 0))
    assert abs(out[basis.index_of((1, 1), (0, 0))] - r) < 1e-12
    assert abs(out[basis.index_of((0, 0), (0, 1))] + s) < 1e-12
    # states outside the blocks are left alone
    for occ, levels in (((0, 2), (0, 0)), ((1, 0), (1, 1)), ((2, 0), (0, 1))):
        v = _unit(basis, occ, levels)
        assert np.max(np.abs(u12 @ v - v)) < 1e-12


@pytest.mark.parametrize("pair,ancilla", [((1, 1), 0), ((1, 2), 1)])
@pytest.mark.parametrize("angle", [0.0, 0.8, SFG_PRODUCTS[0], np.pi])
def test_sfg_unitary_is_unitary(pair, ancilla, angle):
    basis = build_basis(2, 2, (2, 2))
    u = sfg_unitary(basis, pair, (np.cos(angle), np.sin(angle)), ancilla=ancilla)
    assert np.max(np.abs(u.conj().T @ u - np.eye(basis.dimension))) < 1e-12


def test_sfg_unitaries_commute_on_family_states():
    fam = make_family(3, 2, EXAMPLE)
    basis = build_basis(2, 2, (2, 2))
    rot0, rot1 = sfg_rotations(fam)
    u11 = sfg_unitary(basis, (1, 1), rot0, ancilla=0)
    u12 = sfg_unitary(basis, (1, 2), rot1, ancilla=1)
    psi = family_states(fam, basis, two_photon_labels(basis))
    one = psi @ (u11 @ u12).T
    two = psi @ (u12 @ u11).T
    assert np.max(np.abs(one - two)) < 1e-12


def test_two_level_ancilla_is_exact():
    """The Givens blocks equal exp of the pair-conversion generator at the schedule's angle.

    The generator (a_i^dag a_j^dag b - a_i a_j b^dag) is built on 3-level
    ancillas and exponentiated at the reported product; on two-photon
    inputs it never reaches ancilla level 2 and agrees with the two-level
    rotations of sfg_rotations.
    """
    small = build_basis(2, 2, (2, 2))
    big = build_basis(2, 2, (3, 3))
    families = (coincident_family(3), make_family(3, 2, EXAMPLE), make_family(3, 2, (1.0, 1e-9, 1e-9)))
    for family, (which, (i, j)) in itertools.product(families, enumerate([(1, 1), (1, 2)])):
        sched, rotations = sfg_schedule(family), sfg_rotations(family)
        ai, aj = annihilation_matrix(big, i - 1), annihilation_matrix(big, j - 1)
        b = sum(np.sqrt(lev) * ancilla_transition_matrix(big, which, lev - 1, lev) for lev in (1, 2))
        gen = ai.conj().T @ aj.conj().T @ b - ai @ aj @ b.conj().T
        u_big = scipy.linalg.expm(0.5 * sched[which] * gen)
        u_small = sfg_unitary(small, (i, j), rotations[which], ancilla=which)
        out_s = family_states(family, small, two_photon_labels(small)) @ u_small.T
        out_b = family_states(family, big, two_photon_labels(big)) @ u_big.T
        kept = [big.index_of(occ, lev) for occ in small.occupations
                for lev in ((0, 0), (0, 1), (1, 0), (1, 1))]
        assert np.max(np.abs(out_s - out_b[:, kept])) < 1e-12
        assert np.max(np.abs(np.delete(out_b, kept, axis=1))) < 1e-12


def test_atom_field_model_validation():
    good = (1.0 / np.sqrt(3.0),) * 3
    AtomFieldModel(1.0, 0.5, good)
    with pytest.raises(ValueError):
        AtomFieldModel(1.0, 0.0, good)
    with pytest.raises(ValueError, match=r"^Gamma must be finite and > 0, got inf$"):
        AtomFieldModel(1.0, np.inf, good)
    with pytest.raises(ValueError):
        AtomFieldModel(1.0, -1.0, good)
    with pytest.raises(ValueError):
        AtomFieldModel(1.0, 1.0, (1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        AtomFieldModel(np.inf, 1.0, good)


def test_atom_field_model_rejects_nan_alpha():
    # |nrm - 1| > tol is false for a NaN norm, so this preparation used to be accepted
    with pytest.raises(ValueError, match="alpha must be unit norm"):
        AtomFieldModel(1.0, 1.0, (float("nan"), 0.0, 0.0))


@pytest.mark.parametrize("where", [(2, 0), (0, 0)])
def test_atom_excitation_rejects_nan_field(where):
    # inside the two-photon sector or outside it, a NaN amplitude used to give a NaN average
    basis = build_basis(2, 2)
    field = family_states(coincident_family(3), basis, two_photon_labels(basis))[0]
    field[basis.index_of(where)] = complex("nan")
    model = detector_atom_model(coincident_family(3), 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside the two-photon sector"):
        atom_excitation_avg(model, field)


def test_excited_population_closed_form():
    """P_e(t) = |sum_l alpha_l beta_l|^2 sin^2(sqrt(6) eta t) / 3, checked via expm."""
    rng = np.random.default_rng(7)
    eta = 0.9
    alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
    alpha /= np.linalg.norm(alpha)
    beta = rng.normal(size=3) + 1j * rng.normal(size=3)
    beta /= np.linalg.norm(beta)
    model = AtomFieldModel(eta, 1.0, tuple(alpha))
    joint = build_basis(2, 2, (4,))
    H = atom_field_hamiltonian(model.eta, joint)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12
    psi0 = np.zeros(joint.dimension, dtype=complex)
    occs = [(2, 0), (1, 1), (0, 2)]
    for l, b in enumerate(beta):
        for g, a in enumerate(alpha):
            psi0[joint.index_of(occs[l], (g,))] = a * b
    overlap = abs(np.sum(alpha * beta)) ** 2
    e_idx = [i for i in range(joint.dimension) if i % 4 == 3]
    for t in (0.3, 1.1, 2.7):
        psi_t = scipy.linalg.expm(-1j * H * t) @ psi0
        pe = float(np.sum(np.abs(psi_t[e_idx]) ** 2))
        want = overlap * np.sin(np.sqrt(6.0) * eta * t) ** 2 / 3.0
        assert abs(pe - want) < 1e-10


def test_excitation_average_matches_sqrt6_form():
    """Waiting-time average equals overlap * 4 eta^2 / (Gamma^2 + 24 eta^2)."""
    fam = coincident_family(3)
    basis = build_basis(2, 2)
    states = family_states(fam, basis, two_photon_labels(basis))
    model = detector_atom_model(fam, 1, 1.0, 2.0)
    result = atom_excitation_avg(model, states[0])
    assert abs(result.numeric - result.analytic_rabi_sqrt6) < 1e-9
    # at Gamma = 2 eta the sqrt(6) prefactor is exactly 1/7
    assert result.analytic_rabi_sqrt6 == pytest.approx(result.detection_overlap / 7.0)
    assert result.analytic_rabi_sqrt3 == pytest.approx(result.detection_overlap / 8.0)
    # the two closed forms genuinely differ at finite Gamma
    assert abs(result.analytic_rabi_sqrt6 - result.analytic_rabi_sqrt3) > 1e-3


def test_excitation_average_small_gamma_limit():
    """Both closed forms and the numeric average reach overlap/6 as Gamma -> 0."""
    fam = coincident_family(3)
    basis = build_basis(2, 2)
    states = family_states(fam, basis, two_photon_labels(basis))
    model = detector_atom_model(fam, 1, 1.0, 0.05)
    result = atom_excitation_avg(model, states[0])
    limit = result.detection_overlap / 6.0
    assert abs(result.numeric - limit) < 1e-3 * result.detection_overlap
    assert abs(result.analytic_rabi_sqrt6 - limit) < 1e-3
    assert abs(result.analytic_rabi_sqrt3 - limit) < 1e-3


def test_excitation_orthogonal_preparation_never_excites():
    """A detector matched to mu_2 stays dark on psi_1's orthogonal partner pattern.

    For the N = 3 family the detection states are orthonormal, so the
    overlap |sum alpha_l beta_l|^2 with alpha matched to k' and beta = mu_k
    components vanishes for k != k'.
    """
    fam = make_family(3, 2, EXAMPLE)
    basis = build_basis(2, 2)
    detection = detection_rows(fam, basis, two_photon_labels(basis))
    mu1 = detection[0]  # unit norm: (M + 1) / N = 1
    model = detector_atom_model(fam, 2, 1.0, 1.0)
    result = atom_excitation_avg(model, mu1)
    assert result.detection_overlap < 1e-20
    assert result.numeric < 1e-12


def test_atom_excitation_rejects_bad_field_state():
    fam = coincident_family(3)
    model = detector_atom_model(fam, 1, 1.0, 1.0)
    vac = _unit(build_basis(2, 2), (0, 0))
    with pytest.raises(ValueError, match="outside the two-photon sector"):
        atom_excitation_avg(model, vac)


def test_detector_atom_coefficients_relation():
    """alpha is unit norm and |sum alpha_l beta_l|^2 = (N/3) |<mu_k|psi_j>|^2."""
    rng = np.random.default_rng(21)
    while True:
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = c / np.linalg.norm(c)
        if np.min(np.abs(c)) > 0.2 and np.argmin(np.abs(c)) == 2:
            break
    N = 5
    fam = make_family(N, 2, c)
    basis = build_basis(2, 2)
    labels = two_photon_labels(basis)
    detection = detection_rows(fam, basis, labels)
    states = family_states(fam, basis, labels)
    for k in (1, 3, N):
        alpha = np.asarray(detector_atom_coefficients(fam, k))
        assert abs(np.linalg.norm(alpha) - 1.0) < 1e-12
        for j in range(N):
            beta = states[j][list(labels)]
            got = abs(np.sum(alpha * beta)) ** 2
            want = (N / 3.0) * abs(np.vdot(detection[k - 1], states[j])) ** 2
            assert abs(got - want) < 1e-12
    with pytest.raises(ValueError):
        detector_atom_coefficients(fam, 0)
    with pytest.raises(ValueError):
        detector_atom_coefficients(make_family(3, 1, (0.8, 0.6)), 1)
