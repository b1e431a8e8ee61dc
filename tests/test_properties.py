"""Properties of the closed forms over random valid families.

Each closed form is checked against an independent route: the detection
states and the outcome table against the numeric square-root measurement,
P_D against P_C, and the atom's eigenbasis average against the bright-mode
closed form.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.channels import atom_excitation_avg, detector_atom_model
from qsdsim.families import family_states, make_family, single_mode_embedding, two_photon_labels
from qsdsim.fock import build_basis
from qsdsim.minerror import (
    outcome_table,
    srm_states_closed,
    srm_states_numeric,
    success_probability_analytic,
)
from qsdsim.unambiguous import success_probability_ud

phases = st.floats(min_value=-np.pi, max_value=np.pi)
moduli = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def families(draw, min_M=1, max_M=4, max_extra=6, equal_moduli=st.booleans()):
    """Normalized coefficients with moduli within 20x of each other, any order."""
    M = draw(st.integers(min_M, max_M))
    N = draw(st.integers(M + 1, M + 1 + max_extra))
    if draw(equal_moduli):
        mags = np.ones(M + 1)
    else:
        mags = np.array(draw(st.lists(moduli, min_size=M + 1, max_size=M + 1)))
    args = np.array(draw(st.lists(phases, min_size=M + 1, max_size=M + 1)))
    coeffs = mags * np.exp(1j * args) / np.linalg.norm(mags)
    with warnings.catch_warnings():
        # a largest |c_M| only matters to the contraction schedules
        warnings.simplefilter("ignore", UserWarning)
        return make_family(N, M, coeffs)


@settings(max_examples=60, deadline=None)
@given(families())
def test_outcome_table_matches_numeric_measurement(family):
    basis, labels = single_mode_embedding(family)
    psi = family_states(family, basis, labels)
    mu = srm_states_numeric(psi).rows
    reference = np.abs(psi @ mu.conj().T) ** 2  # row k, column j: |<mu_j|psi_k>|^2
    table = outcome_table(family)
    assert np.max(np.abs(table - reference)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(families(max_extra=40))
def test_detection_states_numeric_equal_closed_and_complete(family):
    basis, labels = single_mode_embedding(family)
    numeric = srm_states_numeric(family_states(family, basis, labels))
    closed = srm_states_closed(family, basis, labels)
    assert np.max(np.abs(numeric.rows - closed.rows)) < 1e-10
    assert numeric.completeness_residual < 1e-10
    assert closed.completeness_residual < 1e-10


@settings(max_examples=60, deadline=None)
@given(families(max_extra=40))
def test_outcome_table_rows_sum_to_one_and_circulant(family):
    table = outcome_table(family)
    assert table.shape == (family.N, family.N)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-12
    for k in range(family.N):
        assert np.max(np.abs(table[k] - np.roll(table[0], k))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(families(max_extra=0))
def test_unambiguous_success_below_min_error(family):
    p_d = success_probability_ud(family)
    p_c = success_probability_analytic(family)
    assert p_d <= p_c + 1e-12
    # equal moduli come back from normalization up to float rounding
    if np.ptp(family.moduli) <= 1e-12:
        assert abs(p_d - p_c) < 1e-12
    else:
        assert p_d < p_c


@settings(max_examples=40, deadline=None)
@given(
    families(min_M=2, max_M=2, equal_moduli=st.just(False)),
    st.floats(min_value=-6.0, max_value=3.0),
    st.data(),
)
def test_atom_average_matches_closed_form(family, log_gamma, data):
    k = data.draw(st.integers(1, family.N))
    j = data.draw(st.integers(1, family.N))
    basis = build_basis(2, 2, ())
    state = family_states(family, basis, two_photon_labels(basis))[j - 1]
    result = atom_excitation_avg(detector_atom_model(family, k, 1.0, 10.0**log_gamma), state)
    analytic = result.analytic_rabi_sqrt6
    assert abs(result.numeric - analytic) <= 1e-6 * analytic + 1e-15
