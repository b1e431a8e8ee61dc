"""Properties of the closed forms over random valid families.

Each closed form is checked against an independent route: the detection
states and the outcome table against the numeric square-root measurement
of tests/reference.py, P_D against P_C, the atom's eigenbasis average
against the bright-mode closed form and the average over the full 24-state
field x atom basis, and both contraction protocols
against orthonormality and their Hamiltonians down to |c_min| = 1e-12.  The five names of the
README library example return finite values, or raise their documented
errors, over the whole domain make_family accepts.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsdsim import (
    coincident_family,
    make_family,
    orthogonalize_sfg,
    outcome_table,
    recovery_pipeline_analytic,
)
from qsdsim.channels import ScheduleError, atom_excitation_avg, detector_atom_model
from qsdsim.families import FamilyError, family_states, two_photon_labels
from qsdsim.fock import build_basis
from qsdsim.minerror import (
    detection_rows,
    min_error_report,
    srm_residual,
    success_probability_analytic,
)
from qsdsim.montecarlo import run_unambiguous
from qsdsim.serialize import dumps
from qsdsim.tolerances import ORTHOGONALITY_TOL, UNIFORM_MODULI_TOL
from qsdsim.unambiguous import MECHANISMS, contract, success_probability_ud, ud_report
from reference import (
    atom_excitation_reference,
    completeness_residual,
    contraction_deviation,
    probability_oracles,
    single_mode,
    srm_states_numeric,
    ten_digits,
)

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
    # a largest |c_M| only matters to the contraction schedules
    return make_family(N, M, coeffs)


@settings(max_examples=60, deadline=None)
@given(families())
def test_outcome_table_matches_numeric_measurement(family):
    basis, labels = single_mode(family)
    psi = family_states(family, basis, labels)
    mu = srm_states_numeric(psi)
    reference = np.abs(psi @ mu.conj().T) ** 2  # row k, column j: |<mu_j|psi_k>|^2
    table = np.asarray(outcome_table(family))
    assert np.max(np.abs(table - reference)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(families(max_extra=40))
def test_detection_states_numeric_equal_closed_and_complete(family):
    # operator inversion in one mode, |u_l> = |l>, against the rows over |u_0>..|u_M>
    numeric = srm_states_numeric(family_states(family, *single_mode(family)))
    closed = detection_rows(family)
    assert np.max(np.abs(numeric - closed)) < 1e-10
    assert completeness_residual(numeric) < 1e-10
    assert srm_residual(family) < 1e-10
    # the numeric states are orthogonal, to ORTHOGONALITY_TOL, exactly when N == M + 1
    gram = numeric.conj() @ numeric.T
    orthogonal = np.max(np.abs(gram - np.diag(np.diag(gram)))) <= ORTHOGONALITY_TOL
    assert orthogonal == (family.N == family.M + 1)


@settings(max_examples=60, deadline=None)
@given(families(max_extra=40))
def test_outcome_table_rows_sum_to_one_and_circulant(family):
    table = np.asarray(outcome_table(family))
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


@st.composite
def near_uniform_families(draw, two_photon=False):
    """Normalized coefficients whose moduli differ by a relative 1e-9 to 0.3, or not at all.

    M is 1 to 7 and N is M + 1 half the time, or up to 3 (M + 1); with
    two_photon, N = 3, M = 2 and |c_2| the smallest, the contractions' family.
    """
    if two_photon:
        N, M = 3, 2
    else:
        M = draw(st.integers(1, 7))
        N = M + 1 if draw(st.booleans()) else draw(st.integers(M + 2, 3 * M + 3))
    spread = 10.0 ** draw(st.floats(-9.0, -0.5))
    offsets = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=M + 1, max_size=M + 1)))
    mags = 1.0 + spread * offsets
    if two_photon:
        mags = np.sort(mags)[::-1]
    args = np.array(draw(st.lists(phases, min_size=M + 1, max_size=M + 1)))
    return make_family(N, M, mags * np.exp(1j * args) / np.linalg.norm(mags))


def _printed(report: dict, *keys) -> float:
    """The value a report prints under report[keys[0]][keys[1]]..., read back from its text."""
    value = json.loads(dumps(report))
    for key in keys:
        value = value[key]
    return value


@settings(max_examples=100, deadline=None)
@given(near_uniform_families())
def test_printed_error_probability_is_its_oracle_correctly_rounded(family):
    # 1.0 - P_C kept only the absolute error of P_C: near P_C = 1 most of the
    # 10 printed digits were noise, and equal moduli printed -4.4e-16
    oracle = probability_oracles(family)["error"]
    assert _printed(min_error_report(family), "error_probability") == ten_digits(oracle)


@settings(max_examples=100, deadline=None)
@given(near_uniform_families(two_photon=True), st.integers(1, 10**15), st.integers(0, 2**32 - 1))
def test_printed_inconclusive_probabilities_are_their_oracles_correctly_rounded(family, trials, seed):
    # 1.0 - P_D and 1.0 - the conclusive rate cancelled as 1.0 - P_C did
    oracle = ten_digits(probability_oracles(family)["inconclusive"])
    for mechanism in MECHANISMS:
        assert _printed(ud_report(family, mechanism), "inconclusive_probability") == oracle
    report = run_unambiguous(family, "tpa", trials, seed).as_dict()
    assert _printed(report, "analytic", "inconclusive_rate") == oracle
    count = int(np.sum(report["counts"]["inconclusive"]))
    assert _printed(report, "empirical", "inconclusive_rate") == ten_digits(Fraction(count, trials))


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


@settings(max_examples=40, deadline=None)
@given(
    families(min_M=2, max_M=2),
    st.floats(min_value=-6.0, max_value=3.0),
    st.floats(min_value=-6.0, max_value=3.0),
    st.data(),
)
def test_atom_average_matches_the_full_fock_reference(family, log_eta, log_gamma, data):
    # the library diagonalizes the four coupled states, the reference all 24
    k = data.draw(st.integers(1, family.N))
    j = data.draw(st.integers(1, family.N))
    basis = build_basis(2, 2, ())
    state = family_states(family, basis, two_photon_labels(basis))[j - 1]
    model = detector_atom_model(family, k, 10.0**log_eta, 10.0**log_gamma)
    numeric = atom_excitation_avg(model, state).numeric
    assert abs(numeric - atom_excitation_reference(model, state)) <= 1e-12


@st.composite
def small_min_families(draw):
    """N = 3, M = 2 families with |c_2| the smallest modulus, |c_2| in [1e-12, 1]."""
    m2 = 10.0 ** draw(st.floats(min_value=-12.0, max_value=0.0))
    mags = np.array([max(draw(st.floats(0.0, 1.0)), m2) for _ in range(2)] + [m2])
    args = np.array(draw(st.lists(phases, min_size=3, max_size=3)))
    coeffs = mags * np.exp(1j * args) / np.linalg.norm(mags)
    # equal moduli can round apart by one ulp through the phases
    assume(np.all(np.abs(coeffs[:2]) >= np.abs(coeffs[2])))
    return make_family(3, 2, coeffs)


@settings(max_examples=60, deadline=None)
@given(small_min_families(), st.integers(0, 2**32 - 1))
def test_contractions_stay_orthonormal_at_small_c_min(family, seed):
    p_d = success_probability_ud(family)
    for mechanism in ("tpa", "sfg"):
        report = ud_report(family, mechanism)
        assert report["orthogonality_residual"] <= 1e-9
        assert report["success_probability"] == p_d
        run = run_unambiguous(family, mechanism, 1000, seed=seed)
        assert run.counts["wrong_conclusive"] == 0


@settings(max_examples=40, deadline=None)
@given(small_min_families())
def test_contractions_match_their_hamiltonians(family):
    # the deviation covers the norm the conversion leaves outside the survivors
    # and the two single-excitation states
    for mechanism in MECHANISMS:
        assert contraction_deviation(contract(family, mechanism), family, mechanism) < 1e-12


# the least positive |c_l| make_family accepts, and log10 of its inverse
TINY = np.finfo(float).tiny
LEAST_EXPONENT = -np.log10(TINY)


@st.composite
def edge_families(draw):
    """Coefficients make_family is given at its edges, N <= 64: moduli spread by up to
    1e300 and beyond, down to the smallest normal float, ties, and any finite phases.
    Half the draws are N = 3, M = 2, the only size the contraction goes past its size error."""
    if draw(st.booleans()):
        N, M = 3, 2
    else:
        N = draw(st.integers(1, 64))
        M = draw(st.integers(0, N - 1))
    exponent = st.one_of(st.sampled_from((0.0, 300.0, LEAST_EXPONENT)), st.floats(0.0, LEAST_EXPONENT))
    exponents = np.array(draw(st.lists(exponent, min_size=M + 1, max_size=M + 1)))
    if M and draw(st.booleans()):
        # a tie: |c_M| equals another modulus, and the phases round the two apart by an ulp or so
        exponents[M] = exponents[draw(st.integers(0, M - 1))]
    mags = 10.0 ** (exponents.min() - exponents)
    if draw(st.booleans()):
        mags = -np.sort(-mags)  # the smallest last, as the contraction schedules need
    mags = np.maximum(mags / np.linalg.norm(mags), TINY)
    args = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=M + 1, max_size=M + 1))
    return N, M, mags * np.exp(1j * np.array(args))


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v))) for v in values)


@settings(max_examples=300, deadline=None)
@given(edge_families())
def test_library_names_are_finite_or_raise_their_documented_errors(case):
    N, M, coeffs = case
    try:
        family = make_family(N, M, coeffs)
    except FamilyError as error:
        # a phase can round a modulus at the smallest normal float below it
        assert error.code == "zero-coefficient"
        return
    assert _finite(outcome_table(family))
    if N >= 3:
        assert _finite(outcome_table(coincident_family(N)))
    if (N, M) != (3, 2):
        with pytest.raises(ValueError, match="simulated for N = 3, M = 2"):
            orthogonalize_sfg(family)
    elif family.moduli[2] > (1.0 + UNIFORM_MODULI_TOL) * min(family.moduli[:2]):
        # moduli one rounding apart tie; only a larger excess of |c_2| is rejected
        with pytest.raises(ScheduleError):
            orthogonalize_sfg(family)
    else:
        branches = orthogonalize_sfg(family)
        assert _finite(
            branches.conclusive,
            branches.inconclusive,
            branches.success,
            branches.inconclusive_probability,
            branches.schedule,
        )
    if N != M + 1:
        with pytest.raises(FamilyError, match="needs N == M \\+ 1"):
            recovery_pipeline_analytic(family)
    elif M != 2:
        with pytest.raises(ValueError, match="applies to M = 2 families"):
            recovery_pipeline_analytic(family)
    else:
        result = recovery_pipeline_analytic(family)
        recovered = result.pop("recovered_family")
        assert _finite(*result.values())
        assert recovered is None or _finite(recovered.coeffs)
