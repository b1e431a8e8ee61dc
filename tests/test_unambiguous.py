import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim import channels, tolerances, unambiguous
from qsdsim.families import (
    COINCIDENT_COEFFS,
    FamilyError,
    coincident_family,
    family_states,
    make_family,
    two_photon_labels,
)
from qsdsim.fock import build_basis
from qsdsim.minerror import success_probability_analytic
from qsdsim.montecarlo import run_sfg_recovery_pipeline, run_unambiguous
from qsdsim.unambiguous import (
    Contraction,
    contract,
    inconclusive_family,
    orthogonalize_sfg,
    orthogonalize_tpa,
    recovery_pipeline_analytic,
    success_probability_ud,
    survivor_gram,
    ud_report,
)
from reference import (
    contraction_reference,
    equivalence_residual,
    moved_weight,
    probability_oracles,
    random_coeffs,
)

EXAMPLE = (0.7, 0.6, np.sqrt(0.15))
# frozen: sqrt(0.49 - 0.15), sqrt(0.36 - 0.15) and their normalized forms
XI_AMPS = (0.58309518948453, 0.458257569495584)
RECOVERED = (0.7862453931068963, 0.6179143806533246)
PIPELINE_EXAMPLE = 0.8114718562118318
PIPELINE_COINCIDENT = 0.8333333333333334


def test_success_probability_ud_values():
    assert success_probability_ud(coincident_family(3)) == pytest.approx(0.75)
    assert success_probability_ud(make_family(3, 2, EXAMPLE)) == pytest.approx(0.45)
    with pytest.raises(FamilyError) as err:
        success_probability_ud(coincident_family(4))
    assert err.value.code == "linearly-dependent"


def test_ud_below_min_error():
    rng = np.random.default_rng(0)
    for M in (1, 2, 3):
        fam = make_family(M + 1, M, random_coeffs(rng, M))
        assert success_probability_ud(fam) < success_probability_analytic(fam)


def test_orthogonalize_tpa_example():
    fam = make_family(3, 2, EXAMPLE)
    result = orthogonalize_tpa(fam)
    assert result.conclusive.shape == (3, 3)
    assert result.success == pytest.approx(0.45, abs=1e-12)
    assert np.linalg.norm(result.conclusive, axis=1) ** 2 == pytest.approx([0.45] * 3, abs=1e-12)
    assert np.max(np.abs(survivor_gram(result.conclusive)[0] - np.eye(3))) < 1e-10


def test_orthogonalize_tpa_matches_scaled_detection_states():
    for fam in (coincident_family(3), make_family(3, 2, EXAMPLE)):
        assert orthogonalize_tpa(fam).equivalence_residual < 1e-10


def test_orthogonalize_sfg_branches():
    fam = make_family(3, 2, EXAMPLE)
    branches = orthogonalize_sfg(fam)
    assert branches.conclusive.shape == (3, 3) and branches.inconclusive.shape == (3, 2)
    assert branches.success == pytest.approx(0.45, abs=1e-12)
    assert moved_weight(branches, fam) == pytest.approx(0.55, abs=1e-12)
    # the unitary keeps the whole norm in the two branches
    assert branches.success + moved_weight(branches, fam) == pytest.approx(1.0, abs=1e-12)
    for k, (amp_a, amp_b) in enumerate(branches.inconclusive, start=1):
        assert abs(amp_a - XI_AMPS[0]) < 1e-12
        want_b = XI_AMPS[1] * np.exp(2j * np.pi * k / 3.0)
        assert abs(amp_b - want_b) < 1e-12
        assert abs(amp_a) ** 2 + abs(amp_b) ** 2 == pytest.approx(0.55, abs=1e-12)


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
def test_both_contractions_return_one_record(mechanism):
    fam = make_family(3, 2, EXAMPLE)
    run = {"tpa": orthogonalize_tpa, "sfg": orthogonalize_sfg}[mechanism](fam)
    assert type(run) is Contraction
    assert type(contract(fam, mechanism)) is Contraction
    assert run.conclusive.shape == (3, 3)
    assert (run.inconclusive is None) == (mechanism == "tpa")


@pytest.mark.parametrize("mechanism", unambiguous.MECHANISMS)
@pytest.mark.parametrize("coeffs", [EXAMPLE, COINCIDENT_COEFFS, (0.6, 0.6, np.sqrt(0.28))])
def test_conclusive_holds_the_hamiltonian_survivors_in_fock_order(mechanism, coeffs):
    # the survivors were (N, 6) field states whose other three columns are always zero
    fam = make_family(3, 2, coeffs)
    run = contract(fam, mechanism)
    assert run.conclusive.shape == (3, 3)
    survivors, _, _ = contraction_reference(fam, mechanism)
    pairs = two_photon_labels(build_basis(2, 2))  # |2,0>, |1,1>, |0,2>
    # columns |0,2>, |1,1>, |2,0>, the order of the two-photon sector in the basis
    assert np.max(np.abs(run.conclusive - survivors[:, pairs[::-1]])) < 1e-12


SMALL_C_MIN = np.array([1.0, 1e-6, 1e-6]) / np.linalg.norm([1.0, 1e-6, 1e-6])


@pytest.mark.parametrize("coeffs", [EXAMPLE, SMALL_C_MIN, (1, 1, 1) / np.sqrt(3.0)])
def test_tpa_inconclusive_probability_is_the_absorbed_weight(coeffs):
    """The no-jump evolution removes 1 - P_D of each member's norm; no ancilla branch is left."""
    fam = make_family(3, 2, coeffs)
    run = orthogonalize_tpa(fam)
    assert run.inconclusive is None
    assert abs(moved_weight(run, fam) - (1.0 - success_probability_ud(fam))) <= 1e-12
    assert abs(run.success + moved_weight(run, fam) - 1.0) <= 1e-12


def test_sfg_conclusive_equals_tpa_survivors():
    fam = make_family(3, 2, EXAMPLE)
    sfg = orthogonalize_sfg(fam).conclusive
    tpa = orthogonalize_tpa(fam).conclusive
    assert np.max(np.abs(sfg - tpa)) < 1e-10


def test_sfg_coincident_branch_is_azimuthal_only():
    """For the coincident triple |c_0| = |c_2|, so the A branch is empty."""
    branches = orthogonalize_sfg(coincident_family(3))
    assert branches.success == pytest.approx(0.75, abs=1e-12)
    for k, (amp_a, amp_b) in enumerate(branches.inconclusive, start=1):
        assert abs(amp_a) < 1e-12
        assert abs(amp_b - 0.5 * np.exp(2j * np.pi * k / 3.0)) < 1e-12


def test_orthogonal_family_has_no_inconclusive_branch():
    uniform = make_family(3, 2, (1, 1, 1) / np.sqrt(3.0))
    branches = orthogonalize_sfg(uniform)
    assert branches.success == pytest.approx(1.0, abs=1e-12)
    assert moved_weight(branches, uniform) < 1e-24
    assert np.max(np.abs(branches.inconclusive)) < 1e-12


def test_sfg_branches_conserve_each_input_norm():
    """|sum|c|^2 - 1| <= 1e-9 is a valid family; the branches add up to its own norm."""
    fam = make_family(3, 2, (0.7, 0.6, 0.3872983346))
    branches = orthogonalize_sfg(fam)
    total = float(np.sum(np.abs(fam.coeffs) ** 2))
    assert abs(total - 1.0) > 1e-12
    assert branches.success + moved_weight(branches, fam) == pytest.approx(total, abs=1e-12)


def test_sfg_accepts_moduli_one_rounding_apart():
    # |c_2| is one rounding below |c_0| = |c_1|: a branch of amplitude ~1e-8 whose
    # reference must follow the rotation actually applied, phase included
    fam = make_family(3, 2, (0.5773502691896258, 0.5773502691896258,
                             complex(-0.1640671745986571, 0.5535479162209421)))
    assert 0.0 < fam.moduli[0] - fam.moduli[2] < 1e-15
    branches = orthogonalize_sfg(fam)
    a, b = np.abs(branches.inconclusive[0])
    assert 1e-9 < a < 1e-7
    assert abs(a - b) < 1e-20
    assert ud_report(fam, "sfg")["orthogonality_residual"] < 1e-15


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
def test_uniform_moduli_with_any_phases_are_contractible(mechanism):
    # normalizing |c_l| = 3^{-1/2} e^{i phi_l} leaves moduli equal in exact arithmetic
    # but up to an ulp apart; the schedules used to reject |c_2| one rounding above |c_0|
    rng = np.random.default_rng(20261019)
    for phases in rng.uniform(-np.pi, np.pi, size=(200, 3)):
        fam = make_family(3, 2, np.exp(1j * phases) / np.sqrt(3.0))
        report = ud_report(fam, mechanism)
        # arccos of a cosine an ulp or two below 1 is about 3e-8
        assert all(0.0 <= product < 1e-7 for product in report["interaction_products"])
        assert report["orthogonality_residual"] <= 1e-9
        assert report["inconclusive_probability"] <= 1e-12
        assert run_unambiguous(fam, mechanism, 1000, seed=1).counts["wrong_conclusive"] == 0


@pytest.mark.parametrize("mechanism", ["TPA", "SFG", ""])
def test_an_unknown_mechanism_raises_an_error_naming_it(mechanism):
    # any name other than "tpa" used to run the conversion and report it under that name
    fam = make_family(3, 2, EXAMPLE)
    for call in (contract, ud_report, lambda f, m: run_unambiguous(f, m, 100, seed=1)):
        with pytest.raises(KeyError, match=repr(mechanism)):
            call(fam, mechanism)


def test_survivor_gram_is_identity_on_survivors():
    fam = make_family(3, 2, EXAMPLE)
    for survivors in (orthogonalize_tpa(fam).conclusive, orthogonalize_sfg(fam).conclusive):
        # |<n_j|n_k>|^2 is the projective measurement's table: the identity
        assert np.max(np.abs(np.abs(survivor_gram(survivors)[0]) ** 2 - np.eye(3))) < 1e-10


def test_survivor_gram_of_nonorthogonal_rows():
    # the normalized rows overlap by sqrt(1/2), the Gram matrix's residual
    rows = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not mutually orthogonal: max deviation 7.071e-01"):
        survivor_gram(rows)


def test_survivor_gram_rejects_zero_norm():
    rows = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="k = 2 has zero norm"):
        survivor_gram(rows)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, -np.inf)])
def test_survivor_gram_rejects_non_finite_row(bad):
    # a NaN row used to be reported as zero norm, an inf row to give a NaN Gram matrix
    rows = np.array([[1.0, 0.0], [0.5, bad], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="k = 2 is not finite"):
        survivor_gram(rows)


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-300])
def test_orthonormal_survivor_gram_rejects_skew(scale):
    # survivors further than ORTHOGONALITY_TOL from orthonormal are rejected at any scale
    fam = make_family(3, 2, EXAMPLE)
    for survivors in (orthogonalize_tpa(fam).conclusive, orthogonalize_sfg(fam).conclusive):
        for skew, rejected in ((1e-12, False), (1e-6, True)):
            skewed = survivors.copy()
            skewed[1] += skew * skewed[0]
            skewed *= scale
            if rejected:
                with pytest.raises(ValueError, match="states are not mutually orthogonal"):
                    survivor_gram(skewed)
            else:
                gram, residual = survivor_gram(skewed)
                assert residual <= 1e-9
                assert np.max(np.abs(gram - np.eye(3))) == residual


@st.composite
def survivor_rows(draw):
    """A contraction's survivors on a drawn N = 3 family, each row scaled by its own complex factor."""
    mags = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3)), reverse=True)
    args = draw(st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3))
    coeffs = np.array(mags) * np.exp(1j * np.array(args)) / math.hypot(*mags)
    survivors = contract(make_family(3, 2, coeffs), draw(st.sampled_from(unambiguous.MECHANISMS))).conclusive
    powers = draw(st.lists(st.integers(-170, 170), min_size=3, max_size=3))
    turns = draw(st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3))
    scales = 10.0 ** np.array(powers) * np.exp(1j * np.array(turns))
    return survivors * scales[:, None]


@settings(deadline=None)
@given(survivor_rows())
def test_survivor_gram_is_a_real_sum_of_products_in_any_layout(rows):
    gram, residual = survivor_gram(rows)
    # the rows survivor_gram normalizes, and each entry's products as math.fsum adds them:
    # gram sums the six rounded products in five roundings, within 2.5 eps of their exact
    # sum for unit rows (sum |products| <= 1), and fsum rounds that sum once more
    unit = rows / np.max(np.abs(rows), axis=1, keepdims=True)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    a, b = unit.real.tolist(), unit.imag.tolist()
    for j in range(3):
        for k in range(3):
            re = math.fsum([a[j][l] * a[k][l] for l in range(3)] + [b[j][l] * b[k][l] for l in range(3)])
            im = math.fsum([a[j][l] * b[k][l] for l in range(3)] + [-b[j][l] * a[k][l] for l in range(3)])
            assert abs(gram[j, k].real - re) <= 4 * sys.float_info.epsilon
            assert abs(gram[j, k].imag - im) <= 4 * sys.float_info.epsilon
    # the same bits from a Fortran-ordered copy and a strided view
    padded = np.zeros((6, 9), complex)
    padded[::2, ::3] = rows
    for layout in (np.asfortranarray(rows), padded[::2, ::3]):
        other, other_residual = survivor_gram(layout)
        assert other.tobytes() == gram.tobytes()
        assert other_residual == residual


def test_inconclusive_family_example():
    fam = make_family(3, 2, EXAMPLE)
    rec = inconclusive_family(fam)
    assert rec is not None
    assert rec.N == 3 and rec.M == 1
    assert abs(rec.coeffs[0] - RECOVERED[0]) < 1e-12
    assert abs(rec.coeffs[1] - RECOVERED[1]) < 1e-12


def test_inconclusive_family_uninformative_cases():
    assert inconclusive_family(coincident_family(3)) is None
    uniform = make_family(3, 2, (1, 1, 1) / np.sqrt(3.0))
    assert inconclusive_family(uniform) is None
    # |c_2| one rounding above |c_0| is a tie, not an infeasible order
    tied = make_family(3, 2, 0.5773502691896258 * np.exp(1j * np.array([0.0, 0.1, 0.1])))
    assert tied.moduli[2] > tied.moduli[0]
    assert inconclusive_family(tied) is None


@pytest.mark.parametrize("coeffs", [(np.sqrt(0.15), 0.6, 0.7), (0.7, np.sqrt(0.15), 0.6)])
def test_recovery_of_a_family_the_conversion_cannot_run_is_a_schedule_error(coeffs):
    # |c_2| above |c_0| or |c_1|: the retry was reported uninformative, and the
    # pipeline sampled a conversion that cannot run
    family = make_family(3, 2, coeffs)
    for run in (
        inconclusive_family,
        recovery_pipeline_analytic,
        lambda f: run_sfg_recovery_pipeline(f, 100, seed=1),
    ):
        with pytest.raises(channels.ScheduleError, match="up-conversion can only shrink"):
            run(family)


@pytest.mark.parametrize("coeffs", [(5e-301, 1.0, np.nextafter(5e-301, 0)), (1.0, 5e-301, np.nextafter(5e-301, 0))])
def test_a_branch_amplitude_below_the_normal_floats_is_uninformative(coeffs):
    # |c_2| one ulp below |c_0| (or |c_1|) = 5e-301 leaves that branch an amplitude
    # of about 7e-309, and make_family rejected the recovered family as zero-coefficient
    family = make_family(3, 2, coeffs)
    assert inconclusive_family(family) is None
    pipeline = recovery_pipeline_analytic(family)
    assert pipeline["recovery_success_probability"] == 1.0 / 3.0
    assert np.isfinite(pipeline["overall_success_probability"])
    assert ud_report(family, "sfg")["recovered_family"] == "uninformative"


@pytest.mark.parametrize("coeffs", [
    (0.8551861104941366, complex(-0.29362581108291097, -0.21934502792372104), 0.3665083330689157),
    (complex(-0.29362581108291097, -0.21934502792372104), 0.8551861104941366, 0.3665083330689157),
])
def test_recovery_is_exact_for_moduli_a_rounding_apart(coeffs):
    # sqrt((1 - r)(1 + r)) of the rounded cosine r = |c_2| / |c_l| put this branch
    # amplitude 14% low, and the overall success 5e-10 off
    family = make_family(3, 2, coeffs)
    m0, m1, m2 = family.moduli
    assert 0.0 < min(m0, m1) - m2 < 1e-15
    overall = recovery_pipeline_analytic(family)["overall_success_probability"]
    assert overall == pytest.approx(float(probability_oracles(family)["overall"]), rel=1e-14)


def test_inconclusive_family_inherits_phases():
    """Complex coefficients leave a relative phase arg(c_1) - arg(c_0) on the B branch."""
    c = (0.7 * np.exp(0.4j), 0.6 * np.exp(-0.9j), np.sqrt(0.15))
    fam = make_family(3, 2, c)
    rec = inconclusive_family(fam)
    assert abs(abs(rec.coeffs[0]) - RECOVERED[0]) < 1e-12
    assert abs(abs(rec.coeffs[1]) - RECOVERED[1]) < 1e-12
    assert np.angle(rec.coeffs[1] / rec.coeffs[0]) == pytest.approx(-1.3)
    # and the simulated branch shows the same pattern
    branches = orthogonalize_sfg(fam)
    amp_a, amp_b = branches.inconclusive[0]
    assert np.angle(amp_b / amp_a) == pytest.approx(-1.3 + 2.0 * np.pi / 3.0)


@pytest.mark.parametrize("seed,N", [(1, 3), (2, 4), (3, 5), (4, 6)])
def test_equivalence_residual_general(seed, N):
    rng = np.random.default_rng(seed)
    fam = make_family(N, N - 1, random_coeffs(rng, N - 1))
    assert equivalence_residual(fam) < 1e-10


def test_equivalence_residual_requires_independence():
    with pytest.raises(FamilyError):
        equivalence_residual(coincident_family(4))


def test_recovery_pipeline_analytic_frozen():
    pipe = recovery_pipeline_analytic(make_family(3, 2, EXAMPLE))
    assert pipe["conclusive_probability"] == pytest.approx(0.45, abs=1e-12)
    assert pipe["recovery_success_probability"] == pytest.approx(0.657221556748785, abs=1e-12)
    assert pipe["overall_success_probability"] == pytest.approx(PIPELINE_EXAMPLE, abs=1e-12)
    pipe = recovery_pipeline_analytic(coincident_family(3))
    assert pipe["recovered_family"] is None
    assert pipe["overall_success_probability"] == pytest.approx(PIPELINE_COINCIDENT, abs=1e-12)


def test_ud_report_shape():
    fam = make_family(3, 2, EXAMPLE)
    for mechanism in ("tpa", "sfg"):
        report = ud_report(fam, mechanism)
        assert report["success_probability"] == pytest.approx(0.45, abs=1e-12)
        assert report["orthogonality_residual"] < 1e-10
        assert report["equivalence_residual"] < 1e-10
        assert len(report["interaction_products"]) == 2
    assert ud_report(fam, "tpa")["recovered_family"] is None
    rec = ud_report(fam, "sfg")["recovered_family"]
    assert rec["N"] == 3 and rec["M"] == 1
    assert ud_report(coincident_family(3), "sfg")["recovered_family"] == "uninformative"


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
@pytest.mark.parametrize("coeffs", [EXAMPLE, SMALL_C_MIN, (1, 1, 1) / np.sqrt(3.0)])
def test_report_prints_the_residual_the_contraction_compared(monkeypatch, mechanism, coeffs):
    # the report printed a second comparison, on a second basis, after a second
    # square-root proof; it now prints the one that proved the survivors
    family = make_family(3, 2, coeffs)
    residual = contract(family, mechanism).equivalence_residual
    proofs = []
    exact = unambiguous._contracted

    def counted(*args):
        proofs.append(args)
        return exact(*args)

    monkeypatch.setattr(unambiguous, "_contracted", counted)
    assert ud_report(family, mechanism)["equivalence_residual"] == residual
    assert len(proofs) == 1


def test_atom_and_contractions_enumerate_no_basis_per_call(monkeypatch):
    # each atom call and each contraction enumerated build_basis(2, 2) again
    # only to read the three constant labels of |2,0>, |1,1>, |0,2>
    family = make_family(3, 2, EXAMPLE)
    basis = build_basis(2, 2)
    field = family_states(family, basis, two_photon_labels(basis))[0]
    model = channels.detector_atom_model(family, 1, 1.0, 0.5)
    calls = []

    def counted(*args):
        calls.append(args)
        return build_basis(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("qsdsim") and hasattr(module, "build_basis"):
            monkeypatch.setattr(module, "build_basis", counted)
    for _ in range(3):
        channels.atom_excitation_avg(model, field)
        for mechanism in unambiguous.MECHANISMS:
            contract(family, mechanism)
    assert calls == []
TINY = np.array([1.0, 1e-12, 1e-12]) / np.linalg.norm([1.0, 1e-12, 1e-12])


def test_absorption_drift_check_scales_with_c_min(monkeypatch):
    # survivors of size 1e-12 are compared relative to |c_min|: absorption
    # products off by 1e-6 shrink the c_0 amplitude by 3e-5 of itself, far
    # below an absolute 1e-10
    exact = unambiguous.tpa_survival
    monkeypatch.setattr(
        unambiguous, "tpa_survival", lambda schedule: exact([p * (1.0 + 1e-6) for p in schedule])
    )
    with pytest.raises(RuntimeError, match="absorption contraction drifted"):
        orthogonalize_tpa(make_family(3, 2, TINY))


def test_conversion_drift_check_scales_with_c_min(monkeypatch):
    exact = unambiguous.sfg_rotations

    def skewed_rotations(family):
        (r0, s0), rot1 = exact(family)
        return (r0 * (1.0 + 1e-6), s0), rot1

    monkeypatch.setattr(unambiguous, "sfg_rotations", skewed_rotations)
    with pytest.raises(RuntimeError, match="conversion contraction drifted"):
        orthogonalize_sfg(make_family(3, 2, TINY))


def test_tiny_c_min_passes_unpatched_drift_checks():
    family = make_family(3, 2, TINY)
    assert orthogonalize_tpa(family).success == pytest.approx(3 * TINY[2] ** 2, rel=1e-9)
    assert orthogonalize_sfg(family).success == pytest.approx(3 * TINY[2] ** 2, rel=1e-9)


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
def test_ud_report_runs_the_absorption_contraction_once(monkeypatch, mechanism):
    # the equivalence residual reran orthogonalize_tpa and success_probability_ud;
    # it measures the survivors of the report's own mechanism, so sfg runs no absorption
    calls = {"orthogonalize_tpa": 0, "success_probability_ud": 0}
    for name in calls:
        original = getattr(unambiguous, name)

        def counted(family, name=name, original=original):
            calls[name] += 1
            return original(family)

        monkeypatch.setattr(unambiguous, name, counted)
    report = ud_report(make_family(3, 2, EXAMPLE), mechanism)
    assert calls == {"orthogonalize_tpa": int(mechanism == "tpa"), "success_probability_ud": 1}
    assert report["equivalence_residual"] < 1e-10


def test_conversion_takes_its_rotations_once_per_contraction():
    # the schedule, the survivors and the ancilla pattern each took them again:
    # four calls per report, three per sampled run
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is channels.sfg_rotations.__code__:
            calls.append(frame.f_code)

    family = make_family(3, 2, EXAMPLE)
    counts = []
    for run in (lambda: ud_report(family, "sfg"), lambda: run_unambiguous(family, "sfg", 100, 1)):
        calls.clear()
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        counts.append(len(calls))
    # the report takes them once for the contraction and once for the recovered family
    assert counts == [2, 1]


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
@pytest.mark.parametrize("c_min", [1e-160, 1e-170, 1e-300])
def test_equivalence_residual_is_relative_to_c_min(mechanism, c_min):
    # sqrt(P_D) with P_D = N |c_min|^2 underflowed: at |c_min| = 1e-170 the
    # report printed 1e-170, the whole size of the survivors it compares
    family = make_family(3, 2, (1.0, c_min, c_min))
    report = ud_report(family, mechanism)
    assert report["equivalence_residual"] <= 1e-12 * c_min


def test_one_orthogonality_tolerance():
    assert unambiguous.ORTHOGONALITY_TOL is tolerances.ORTHOGONALITY_TOL == 1e-9
