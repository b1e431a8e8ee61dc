"""End-to-end acceptance criteria.

Each test checks one headline guarantee of the library at its stated
tolerance and reports a single [ACCEPTANCE] pass/fail line; the lines are
echoed again in the pytest terminal summary.  Run with -s to see them
inline.
"""

import numpy as np

from qsdsim.channels import atom_excitation_avg, detector_atom_model
from qsdsim.families import (
    coincident_family,
    family_states,
    make_family,
    two_photon_labels,
)
from qsdsim.fock import build_basis
from qsdsim.minerror import (
    detection_rows,
    outcome_table,
    srm_residual,
    success_probability_analytic,
)
from qsdsim.montecarlo import run_min_error, run_sfg_recovery_pipeline, run_unambiguous
from qsdsim.multiport import build_multiport, multiport_report
from qsdsim.unambiguous import (
    orthogonalize_sfg,
    orthogonalize_tpa,
    recovery_pipeline_analytic,
    success_probability_ud,
)
from reference import (
    atom_excitation_reference,
    equivalence_residual,
    fourier_dense,
    single_mode,
    srm_states_numeric,
)

EXAMPLE_COEFFS = (0.7, 0.6, np.sqrt(0.15))
EXAMPLE_PIPELINE_SUCCESS = 0.8114718562118318


def _random_family(rng, N, M):
    """Normalized complex coefficients, moduli descending and bounded away from 0."""
    while True:
        raw = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
        moduli = np.abs(raw)
        if moduli.min() > 0.15 * moduli.max():
            break
    raw = raw[np.argsort(-moduli)]
    return make_family(N, M, raw / np.linalg.norm(raw))


def _sweep_families():
    rng = np.random.default_rng(20260815)
    families = [coincident_family(N) for N in range(3, 7)]
    for N, M in ((3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 4), (6, 5), (7, 3)):
        families.append(_random_family(rng, N, M))
    return families


def test_closed_form_detection_states(acceptance):
    worst = 0.0
    for family in _sweep_families():
        # operator inversion in one mode, |u_l> = |l>, against the rows over |u_0>..|u_M>
        numeric = srm_states_numeric(family_states(family, *single_mode(family)))
        closed = detection_rows(family)
        worst = max(worst, float(np.abs(numeric - closed).max()))
    acceptance(
        "closed-form detection states match operator inversion",
        worst <= 1e-10,
        f"max amplitude deviation {worst:.2e}, tol 1e-10",
    )


def test_success_probability_identities(acceptance):
    worst = 0.0
    for family in _sweep_families():
        expected = sum(family.moduli) ** 2 / family.N
        table = np.asarray(outcome_table(family))
        worst = max(worst, float(np.abs(np.diag(table) - expected).max()))
        worst = max(worst, abs(success_probability_analytic(family) - expected))
    for N in range(3, 7):
        got = success_probability_analytic(coincident_family(N))
        worst = max(worst, abs(got - (3.0 + 2.0 * np.sqrt(2.0)) / (2.0 * N)))
    acceptance(
        "success probability equals (sum of moduli)^2 / N",
        worst <= 1e-12,
        f"max deviation {worst:.2e}, tol 1e-12",
    )


def test_detection_completeness_and_norms(acceptance):
    worst_residual = 0.0
    worst_norm = 0.0
    for family in _sweep_families():
        worst_residual = max(worst_residual, srm_residual(family))
        rows = detection_rows(family)
        expected = (family.M + 1) / family.N
        worst_norm = max(
            worst_norm, float(np.abs(np.linalg.norm(rows, axis=1) ** 2 - expected).max())
        )
    acceptance(
        "detection operators resolve the identity with norms (M+1)/N",
        worst_residual <= 1e-10 and worst_norm <= 1e-10,
        f"residual {worst_residual:.2e}, norm deviation {worst_norm:.2e}, tol 1e-10",
    )


def test_multiport_implements_measurement(acceptance):
    worst_unitary = 0.0
    worst_table = 0.0
    for N in range(2, 8):
        for c1 in (0.6, 0.6 * np.exp(0.9j)):
            family = make_family(N, 1, (0.8, c1))
            matrix = build_multiport(N, float(np.angle(c1)))
            U = fourier_dense(matrix).view(complex)[..., 0]
            gram = U.conj().T @ U
            worst_unitary = max(
                worst_unitary, float(np.abs(gram - np.eye(N)).max())
            )
            report = multiport_report(family)
            table = np.asarray(report["click_table"])
            ks, js = np.meshgrid(np.arange(1, N + 1), np.arange(1, N + 1), indexing="ij")
            cosine = (1.0 + 2.0 * 0.8 * 0.6 * np.cos(2.0 * np.pi * (ks - js) / N)) / N
            worst_table = max(worst_table, float(np.abs(table - cosine).max()))
            dense = np.asarray(outcome_table(family))
            worst_table = max(worst_table, float(np.abs(table - dense).max()))
            worst_table = max(worst_table, abs(report["success_probability"] - 1.96 / N))
    acceptance(
        "single-photon multiport reproduces the two-term measurement",
        worst_unitary <= 1e-10 and worst_table <= 1e-12,
        f"unitarity {worst_unitary:.2e} (tol 1e-10), table {worst_table:.2e} (tol 1e-12)",
    )


def test_unambiguous_contraction_protocols(acceptance):
    families = [make_family(3, 2, EXAMPLE_COEFFS), coincident_family(3)]
    worst_gram = 0.0
    worst_success = 0.0
    for family in families:
        expected = family.N * min(family.moduli) ** 2
        worst_success = max(worst_success, abs(success_probability_ud(family) - expected))
        for run in (orthogonalize_tpa(family), orthogonalize_sfg(family)):
            worst_success = max(worst_success, abs(run.success - expected))
            rows = run.conclusive / np.linalg.norm(run.conclusive, axis=1, keepdims=True)
            gram = rows.conj() @ rows.T
            worst_gram = max(
                worst_gram, float(np.abs(gram - np.eye(family.N)).max())
            )
    wrong = 0
    for mechanism in ("tpa", "sfg"):
        report = run_unambiguous(
            make_family(3, 2, EXAMPLE_COEFFS), mechanism, 1000000, seed=1234, shards=4
        )
        wrong += int(report.counts["wrong_conclusive"])
    acceptance(
        "contracted states are orthogonal and never misidentified",
        worst_gram <= 1e-10 and worst_success <= 1e-10 and wrong == 0,
        f"gram {worst_gram:.2e}, success dev {worst_success:.2e} (tol 1e-10), "
        f"{wrong} wrong conclusives in 2x10^6 trials",
    )


def test_mechanism_equivalence(acceptance):
    rng = np.random.default_rng(90210)
    worst = 0.0
    for N in range(3, 7):
        for _ in range(3):
            worst = max(worst, equivalence_residual(_random_family(rng, N, N - 1)))
    for family in (make_family(3, 2, EXAMPLE_COEFFS), coincident_family(3)):
        worst = max(worst, orthogonalize_tpa(family).equivalence_residual)
    acceptance(
        "absorption route equals the abstract contraction up to N = 6",
        worst <= 1e-10,
        f"max residual {worst:.2e}, tol 1e-10",
    )


def test_atom_detector_analytics(acceptance):
    basis = build_basis(2, 2, ())
    labels = two_photon_labels(basis)
    worst_ratio = 0.0
    worst_reference = 0.0
    worst_limit = 0.0
    for family in (coincident_family(3), make_family(3, 2, EXAMPLE_COEFFS)):
        states = family_states(family, basis, labels)
        for gamma in (0.5, 1.0, 2.0, 5.0):
            model = detector_atom_model(family, 1, 1.0, gamma)
            for state in states:
                result = atom_excitation_avg(model, state)
                if result.analytic_rabi_sqrt6 > 1e-18:
                    worst_ratio = max(
                        worst_ratio,
                        abs(result.numeric / result.analytic_rabi_sqrt6 - 1.0),
                    )
                    # the 24-state eigenbasis, apart from the closed form numeric is
                    worst_reference = max(
                        worst_reference,
                        abs(result.numeric / atom_excitation_reference(model, state) - 1.0),
                    )
        model = detector_atom_model(family, 1, 1.0, 0.01)
        for state in states:
            result = atom_excitation_avg(model, state)
            if result.detection_overlap > 1e-12:
                worst_limit = max(
                    worst_limit,
                    abs(result.numeric / result.detection_overlap - 1.0 / 6.0),
                )
    acceptance(
        "atom excitation matches its closed form and the small-width limit",
        max(worst_ratio, worst_reference) <= 1e-6 and worst_limit <= 1e-3,
        f"relative dev {worst_ratio:.2e}, against the 24-state reference "
        f"{worst_reference:.2e} (tol 1e-6), limit dev {worst_limit:.2e} (tol 1e-3)",
    )


def test_monte_carlo_coverage(acceptance):
    family = coincident_family(3)
    within = 0
    for seed in range(100):
        report = run_min_error(family, 100000, seed=seed)
        gap = abs(report.empirical["success_rate"] - report.analytic["success_rate"])
        if gap <= 3.0 * report.stderr["success_rate"]:
            within += 1
    acceptance(
        "sampled success rates track the analytic value",
        within >= 99,
        f"{within}/100 seeds within 3 sigma at 10^5 trials",
    )


def test_recovery_pipeline(acceptance):
    family = make_family(3, 2, EXAMPLE_COEFFS)
    analytic = recovery_pipeline_analytic(family)
    dev = abs(analytic["overall_success_probability"] - EXAMPLE_PIPELINE_SUCCESS)
    coincident = recovery_pipeline_analytic(coincident_family(3))
    dev = max(dev, abs(coincident["overall_success_probability"] - 5.0 / 6.0))
    report = run_sfg_recovery_pipeline(family, 100000, seed=2718)
    gap = abs(
        report.empirical["overall_success_rate"]
        - report.analytic["overall_success_rate"]
    )
    sigma = report.stderr["overall_success_rate"]
    acceptance(
        "conversion-recovery pipeline hits its composite success rate",
        dev <= 1e-12 and gap <= 3.0 * sigma,
        f"analytic dev {dev:.2e} (tol 1e-12), sampled gap {gap / sigma:.2f} sigma",
    )
