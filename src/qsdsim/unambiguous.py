"""Unambiguous discrimination of linearly independent cyclic families.

With N = M + 1 the family members can be mapped onto mutually orthogonal
states by a probabilistic amplitude contraction: every reference amplitude
is shrunk to the smallest modulus |c_min|, leaving

    |psi~_k> = |c_min| sum_l (c_l / |c_l|) e^{i 2 pi l k / N} |u_l>,

which is sqrt(P_D) times the square-root detection state mu_k, with
P_D = N |c_min|^2 the conclusive probability.  For the two-photon family
(N = 3) both physical contractions are simulated here: conditional
two-photon absorption (inconclusive branch destroys the photons) and
sum-frequency generation (inconclusive branch leaves one up-converted
photon whose ancilla state still carries k and can be re-discriminated).
Every member goes through the same operator, so a protocol is one matrix
product over the (N, dim) array of members, row k - 1 holding member k.
Each result is checked against its closed form to a threshold of `tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    sfg_cosines,
    sfg_schedule,
    sfg_unitary,
    tpa_conditional_operator,
    tpa_schedule,
)
from .families import (
    FamilyError,
    SymmetricFamily,
    embed_rows,
    family_to_json,
    make_family,
    phase_matrix,
    two_photon_labels,
)
from .fock import FockBasis, build_basis
from .minerror import srm_states_closed, success_probability_analytic
from .tolerances import (
    CLOSED_FORM_TOL,
    CONTRACTION_TOL,
    MIN_ERROR_GAP_TOL,
    ORTHOGONALITY_TOL,
    UNIFORM_MODULI_TOL,
    require_small,
)

# the contraction mechanisms `contract` runs, in the order the CLI lists them
MECHANISMS = ("tpa", "sfg")


def success_probability_ud(family: SymmetricFamily) -> float:
    """P_D = N min_l |c_l|^2, the optimal conclusive probability.

    Only linearly independent families (N == M + 1) admit unambiguous
    discrimination.  Sanity-checked against the minimum-error bound:
    P_D <= P_C, strictly unless all moduli are equal.  Clipped to [0, 1]:
    a uniform family normalized to float accuracy can give 1 + 2e-16.
    """
    if not family.linearly_independent:
        raise FamilyError(
            "linearly-dependent",
            f"unambiguous discrimination needs N == M + 1, got N = {family.N}, M = {family.M}",
        )
    p_d = float(np.clip(family.N * np.min(family.moduli) ** 2, 0.0, 1.0))
    uniform = np.ptp(family.moduli) <= UNIFORM_MODULI_TOL
    message = "P_D - P_C = {residual:.3e} violates the minimum-error bound"
    tol = CLOSED_FORM_TOL if uniform else -MIN_ERROR_GAP_TOL
    require_small(p_d - success_probability_analytic(family), tol, message)
    return p_d


def contracted_reference(family: SymmetricFamily, basis: FockBasis, labels) -> np.ndarray:
    """Closed-form contracted amplitudes |c_min| sum_l (c_l/|c_l|) e^{...} |u_l>, row k - 1."""
    return embed_rows(family, basis, labels, np.min(family.moduli) * family.unit_phases)


def _require_two_photon_triple(family: SymmetricFamily):
    if family.N != 3 or family.M != 2:
        raise ValueError(
            f"the physical contraction is simulated for N = 3, M = 2; got N = {family.N}, M = {family.M}"
        )


def _relative_drift(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-member max|values - reference|, each row divided by its largest reference modulus.

    The contracted rows have entries of size |c_min|, so an absolute
    deviation would pass any survivors once |c_min| is below the tolerance.
    """
    return np.max(np.abs(values - reference), axis=1) / np.max(np.abs(reference), axis=1)


def _ancilla_pattern(family: SymmetricFamily) -> tuple[float, complex]:
    """(a, e^{i (arg c_1 - arg c_0)} b) with a, b = sqrt(|c_0|^2 - |c_2|^2), sqrt(|c_1|^2 - |c_2|^2).

    The up-converted amplitudes on the A and B ancilla of member k are this
    pair times -(c_0 / |c_0|) (1, e^{i 2 pi k / N}).  Each is taken as
    |c_l| sqrt((1 - r)(1 + r)) with the cosine r of sfg_cosines, so moduli
    one rounding apart give the branch of the rotation the conversion applies.
    """
    r = np.array(sfg_cosines(family))
    a, b = family.moduli[:2] * np.sqrt((1.0 - r) * (1.0 + r))
    u0, u1, _ = family.unit_phases
    return a, u1 * u0.conjugate() * b


def survivor_gram(survivors: np.ndarray) -> np.ndarray:
    """Gram matrix <n_j|n_k> of the normalized survivor rows n_k.

    It is the identity for an orthogonalized family; |gram[j, k]|^2 is the
    probability that the von Neumann measurement along the n_j answers j
    for input n_k.  Each row is divided by its largest modulus before it is
    normalized, so rows near 1e-170 keep their direction where their
    squared norm would underflow.  A survivor that is not finite or has zero
    norm raises ValueError.
    """
    peaks = np.max(np.abs(survivors), axis=1, keepdims=True)
    if not np.all(np.isfinite(peaks)):
        k = int(np.argmin(np.isfinite(peaks[:, 0]))) + 1
        raise ValueError(f"the survivor of k = {k} is not finite and cannot be normalized")
    if not np.all(peaks > 0.0):
        k = int(np.argmin(peaks[:, 0] > 0.0)) + 1
        raise ValueError(f"the survivor of k = {k} has zero norm and cannot be normalized")
    unit = survivors / peaks
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    return unit.conj() @ unit.T


def orthonormal_survivor_gram(survivors: np.ndarray) -> tuple[np.ndarray, float]:
    """survivor_gram and its residual max|gram - I|, rejected above ORTHOGONALITY_TOL.

    Survivors further than that from orthonormal would let the projective
    measurement make wrong conclusive guesses, so neither a report nor a
    sample is taken from them: ValueError.
    """
    gram = survivor_gram(survivors)
    message = "states are not mutually orthogonal: max deviation {residual:.3e}"
    dev = np.max(np.abs(gram - np.eye(len(gram))))
    return gram, require_small(dev, ORTHOGONALITY_TOL, message, ValueError)


@dataclass(frozen=True)
class TpaResult:
    """Absorption-contracted family: subnormalized survivors (N, dim), row k - 1."""

    states: np.ndarray
    success: float
    schedule: tuple[float, float]


def orthogonalize_tpa(family: SymmetricFamily) -> TpaResult:
    """Run the no-jump absorption contraction on the two-photon family.

    Applies exp(-(gamma_11 T_0 / 2) n_1 (n_1 - 1)) and
    exp(-(gamma_12 T_1 / 2) n_1 n_2) to every member and checks the result
    against the closed contracted form to CONTRACTION_TOL relative to
    |c_min|.  The surviving squared norm (the conclusive probability) must
    be k-independent.
    """
    _require_two_photon_triple(family)
    schedule = tpa_schedule(family)
    basis = build_basis(2, 2, ())
    labels = two_photon_labels(basis)
    K0 = tpa_conditional_operator(basis, (1, 1), schedule[0])
    K1 = tpa_conditional_operator(basis, (1, 2), schedule[1])
    states = embed_rows(family, basis, labels, family.coeffs) @ K0.T @ K1.T
    drift = _relative_drift(states, contracted_reference(family, basis, labels))
    message = "absorption contraction drifted from closed form at k = {k}: {residual:.3e}"
    require_small(drift, CONTRACTION_TOL, message)
    norms2 = np.linalg.norm(states, axis=1) ** 2
    message = "conclusive probability depends on k: spread {residual:.3e}"
    require_small(np.ptp(norms2), CLOSED_FORM_TOL, message)
    return TpaResult(states, float(np.mean(norms2)), schedule)


@dataclass(frozen=True)
class SfgBranches:
    """Up-conversion output split into conclusive and inconclusive parts.

    conclusive[k-1] is the both-ancillas-empty component of member k as a
    field state (N, 6); inconclusive[k-1] its amplitudes on |0,0>|1_A 0_B>
    and |0,0>|0_A 1_B> (N, 2), the only support of the up-converted branch,
    with global phase fixed so that they match the reference pattern.
    success + inconclusive_probability is the input norm up to float error.
    """

    conclusive: np.ndarray
    inconclusive: np.ndarray
    success: float
    inconclusive_probability: float
    schedule: tuple[float, float]


def orthogonalize_sfg(family: SymmetricFamily) -> SfgBranches:
    """Run the coherent up-conversion contraction on the two-photon family.

    The (1,1) pair feeds ancilla A, the (1,2) pair ancilla B; two-level
    ancillas are exact for two-photon inputs, and each pair's rotation
    cosine is its amplitude ratio from sfg_cosines.  The both-ancillas-empty
    component is checked against the closed contracted form to
    CONTRACTION_TOL relative to |c_min|, and the ancilla-excited remainder
    against the single-excitation pattern (_ancilla_pattern) with anything
    outside it counted as leak, to an absolute CONTRACTION_TOL.
    """
    _require_two_photon_triple(family)
    schedule = sfg_schedule(family)
    enlarged = build_basis(2, 2, (2, 2))
    field_basis = build_basis(2, 2, ())
    r0, r1 = sfg_cosines(family)
    U = sfg_unitary(enlarged, (1, 1), r0, ancilla=0) @ sfg_unitary(enlarged, (1, 2), r1, ancilla=1)
    psi = embed_rows(family, enlarged, two_photon_labels(enlarged), family.coeffs)
    out = psi @ U.T
    anc_size = enlarged.ancilla_size
    conclusive = out[:, 0::anc_size]
    expected = contracted_reference(family, field_basis, two_photon_labels(field_basis))
    message = "conversion contraction drifted from closed form at k = {k}: {residual:.3e}"
    require_small(_relative_drift(conclusive, expected), CONTRACTION_TOL, message)

    branch = [enlarged.index_of((0, 0), (1, 0)), enlarged.index_of((0, 0), (0, 1))]
    # the branch carries the reference pattern times the global phase -c_0 / |c_0|
    amplitudes = -out[:, branch] * family.unit_phases[0].conjugate()
    rest = out.copy()
    rest[:, 0::anc_size] = 0.0
    rest[:, branch] = 0.0
    leak = np.linalg.norm(rest, axis=1)
    inc2 = np.sum(np.abs(amplitudes) ** 2, axis=1) + leak**2
    ref = np.array(_ancilla_pattern(family)) * phase_matrix(family)[:, :2]
    drift = np.maximum(np.max(np.abs(amplitudes - ref), axis=1), leak)
    message = "up-converted branch left the single-excitation pattern at k = {k}: {residual:.3e}"
    require_small(drift, CONTRACTION_TOL, message)

    succ2 = np.linalg.norm(conclusive, axis=1) ** 2
    input2 = np.linalg.norm(psi, axis=1) ** 2
    dev = np.maximum(np.ptp(succ2), np.max(np.abs(succ2 + inc2 - input2)))
    message = "branch probabilities depend on k or miss the input norm by {residual:.3e}"
    require_small(dev, CLOSED_FORM_TOL, message)
    return SfgBranches(conclusive, amplitudes, float(np.mean(succ2)), float(np.mean(inc2)), schedule)


def inconclusive_family(family: SymmetricFamily) -> SymmetricFamily | None:
    """Single-excitation family carried by the up-converted ancilla branch.

    Returns None when the branch is uninformative: whenever |c_0| or |c_1|
    does not strictly exceed |c_2|, one branch amplitude vanishes and the
    ancilla states differ by a global phase only (or the branch never
    occurs at all for an already-orthogonal family), or when a normalized
    amplitude is below the smallest normal float, which leaves P_C at 1/N.
    """
    if family.M != 2:
        raise ValueError("the up-conversion recovery applies to M = 2 families")
    m0, m1, m2 = family.moduli
    if m0 > m2 and m1 > m2:
        a, b = _ancilla_pattern(family)
        scale = np.sqrt(a**2 + abs(b) ** 2)
        coeffs = (a / scale, b / scale)
        if min(abs(c) for c in coeffs) >= np.finfo(float).tiny:
            return make_family(family.N, 1, coeffs)
    return None


def equivalence_check(family: SymmetricFamily, survivors: np.ndarray) -> float:
    """Max distance between the conclusive survivors of a contraction and sqrt(P_D) mu_k.

    Pits the simulated physical contraction against the closed square-root
    detection states scaled by sqrt(P_D) = sqrt(N) |c_min|, taken as that
    product so that it does not underflow with |c_min|^2; both sides should
    agree to float accuracy, confirming that the conclusive branch realizes
    exactly the minimum-error measurement.
    """
    basis = build_basis(2, 2, ())
    detection, _ = srm_states_closed(family, basis, two_photon_labels(basis))
    scale = np.sqrt(family.N) * np.min(family.moduli)
    return float(np.max(np.abs(survivors - scale * detection)))


def recovery_pipeline_analytic(family: SymmetricFamily) -> dict:
    """Overall correct-guess probability of the conversion + retry protocol.

    Conclusive events (probability P_D) identify k exactly; inconclusive
    ones leave the single-excitation ancilla family, which is then
    discriminated with its own optimal minimum-error measurement (or a
    uniform random guess when uninformative).
    """
    p_d = success_probability_ud(family)
    recovered = inconclusive_family(family)
    if recovered is None:
        p_rec = 1.0 / family.N
    else:
        p_rec = success_probability_analytic(recovered)
    return {
        "conclusive_probability": p_d,
        "recovered_family": recovered,
        "recovery_success_probability": p_rec,
        "overall_success_probability": p_d + (1.0 - p_d) * p_rec,
    }


def contract(family: SymmetricFamily, mechanism: str) -> tuple[np.ndarray, tuple[float, float]]:
    """The conclusive survivors (N, dim) and interaction products of one mechanism.

    `mechanism` is one of MECHANISMS: "tpa" for two-photon absorption,
    "sfg" for sum-frequency up-conversion.
    """
    if mechanism == "tpa":
        result = orthogonalize_tpa(family)
        return result.states, result.schedule
    branches = orthogonalize_sfg(family)
    return branches.conclusive, branches.schedule


def ud_report(family: SymmetricFamily, mechanism: str) -> dict:
    """JSON-ready summary of one physical unambiguous-discrimination run."""
    p_d = success_probability_ud(family)
    conclusive, schedule = contract(family, mechanism)
    recovered_payload = None
    if mechanism == "sfg":
        recovered = inconclusive_family(family)
        recovered_payload = "uninformative" if recovered is None else family_to_json(recovered)
    _, ortho_residual = orthonormal_survivor_gram(conclusive)
    return {
        "N": family.N,
        "M": family.M,
        "mechanism": mechanism,
        "interaction_products": list(schedule),
        "success_probability": p_d,
        "inconclusive_probability": 1.0 - p_d,
        "orthogonality_residual": ortho_residual,
        "equivalence_residual": equivalence_check(family, conclusive),
        "recovered_family": recovered_payload,
    }
