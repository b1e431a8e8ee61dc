import numpy as np
import pytest
import scipy.linalg

from qsdsim.channels import (
    AtomFieldModel,
    ScheduleError,
    atom_excitation_avg,
    detector_atom_coefficients,
    detector_atom_model,
    sfg_schedule,
    tpa_schedule,
)
from qsdsim.families import (
    coincident_family,
    family_states,
    make_family,
    two_photon_labels,
)
from qsdsim.fock import build_basis
from qsdsim.minerror import detection_rows
from qsdsim.unambiguous import orthogonalize_sfg, orthogonalize_tpa
from reference import (
    atom_excitation_reference,
    atom_field_hamiltonian,
    contraction_deviation,
    flat_index,
)

EXAMPLE = (0.7, 0.6, np.sqrt(0.15))


def _unit(basis, occupation):
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[basis.index_of(occupation)] = 1.0
    return vec


# frozen from log(0.7/sqrt(0.15)) and 2 log(0.6/sqrt(0.15))
TPA_PRODUCTS = (0.5918850485042082, 0.8754687373538997)
# frozen from sqrt(2) arccos(sqrt(0.15)/0.7) and 2 arccos(sqrt(0.15)/0.6)
SFG_PRODUCTS = (1.3922870489217418, 1.7382444060145856)


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


def _reference_families():
    return coincident_family(3), make_family(3, 2, EXAMPLE), make_family(3, 2, (1.0, 1e-9, 1e-9))


def test_absorption_matches_its_hamiltonian():
    """The three no-jump factors equal exp of both absorption generators at the schedule."""
    for family in _reference_families():
        assert contraction_deviation(orthogonalize_tpa(family), family, "tpa") < 1e-12


def test_conversion_matches_its_hamiltonian():
    """The two rotations equal exp of both pair-conversion generators on three-level ancillas.

    Survivors, up-converted amplitudes and both probabilities agree, and
    nothing reaches ancilla level 2 or any state outside the two branches.
    """
    for family in _reference_families():
        assert contraction_deviation(orthogonalize_sfg(family), family, "sfg") < 1e-12


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


def test_atom_preparations_are_read_only_arrays():
    # alpha was a tuple of complex, which each average turned back into an array
    fam = coincident_family(3)
    prepared = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
    model = AtomFieldModel(1.0, 0.5, prepared)
    detector = detector_atom_model(fam, 1, 1.0, 0.5)
    for alpha in (detector_atom_coefficients(fam, 1), detector.alpha, model.alpha):
        with pytest.raises(ValueError, match="read-only"):
            alpha[0] = 0.0
    # the model holds its own copy: the caller's array stays writable
    assert prepared.flags.writeable and model.alpha is not prepared


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
            psi0[flat_index(joint, occs[l], (g,))] = a * b
    overlap = abs(np.sum(alpha * beta)) ** 2
    e_idx = [i for i in range(joint.dimension) if i % 4 == 3]
    for t in (0.3, 1.1, 2.7):
        psi_t = scipy.linalg.expm(-1j * H * t) @ psi0
        pe = float(np.sum(np.abs(psi_t[e_idx]) ** 2))
        want = overlap * np.sin(np.sqrt(6.0) * eta * t) ** 2 / 3.0
        assert abs(pe - want) < 1e-10
    # the reference's waiting-time average of that P_e(t) is the sqrt(6) closed form
    field = np.zeros(6, dtype=complex)
    field[list(two_photon_labels(build_basis(2, 2)))] = beta
    want = overlap * 4.0 * eta**2 / (model.Gamma**2 + 24.0 * eta**2)
    assert abs(atom_excitation_reference(model, field) - want) < 1e-12


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
    mu1 = np.zeros(6, dtype=complex)
    # on |2,0>, |1,1>, |0,2>, unit norm: (M + 1) / N = 1
    mu1[list(two_photon_labels(build_basis(2, 2)))] = detection_rows(fam)[0]
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
    detection = detection_rows(fam)
    states = family_states(fam, basis, labels)
    for k in (1, 3, N):
        alpha = detector_atom_coefficients(fam, k)
        assert abs(np.linalg.norm(alpha) - 1.0) < 1e-12
        for j in range(N):
            beta = states[j][list(labels)]
            got = abs(np.sum(alpha * beta)) ** 2
            want = (N / 3.0) * abs(np.vdot(detection[k - 1], beta)) ** 2
            assert abs(got - want) < 1e-12
    with pytest.raises(ValueError):
        detector_atom_coefficients(fam, 0)
    with pytest.raises(ValueError):
        detector_atom_coefficients(make_family(3, 1, (0.8, 0.6)), 1)
