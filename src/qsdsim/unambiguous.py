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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelSchedule,
    sfg_schedule,
    sfg_unitary,
    tpa_conditional_operator,
    tpa_schedule,
)
from .families import (
    FamilyError,
    SymmetricFamily,
    family_states,
    make_family,
    phase_matrix,
    single_mode_embedding,
    two_photon_labels,
)
from .fock import FockBasis, StateVector, build_basis
from .minerror import srm_states_closed, srm_states_numeric, success_probability_analytic

ORTHOGONALITY_TOL = 1e-9


def success_probability_ud(family: SymmetricFamily) -> float:
    """P_D = N min_l |c_l|^2, the optimal conclusive probability.

    Only linearly independent families (N == M + 1) admit unambiguous
    discrimination.  Sanity-checked against the minimum-error bound:
    P_D <= P_C, strictly unless all moduli are equal.
    """
    if not family.linearly_independent:
        raise FamilyError(
            "linearly-dependent",
            f"unambiguous discrimination needs N == M + 1, got N = {family.N}, M = {family.M}",
        )
    p_d = float(family.N * np.min(family.moduli) ** 2)
    p_c = success_probability_analytic(family)
    uniform = np.ptp(family.moduli) <= 1e-12
    if p_d > p_c + 1e-12 or (not uniform and p_d >= p_c - 1e-15):
        raise RuntimeError(f"P_D = {p_d} vs P_C = {p_c} violates the minimum-error bound")
    return p_d


def contracted_reference(family: SymmetricFamily, basis: FockBasis, labels) -> np.ndarray:
    """Closed-form contracted amplitudes |c_min| sum_l (c_l/|c_l|) e^{...} |u_l>, row k - 1."""
    rows = np.zeros((family.N, basis.dimension), dtype=complex)
    phase_coeffs = np.asarray(family.coeffs) / family.moduli
    rows[:, list(labels)] = np.min(family.moduli) * phase_coeffs * phase_matrix(family)
    return rows


def _require_two_photon_triple(family: SymmetricFamily):
    if family.N != 3 or family.M != 2:
        raise ValueError(
            f"the physical contraction is simulated for N = 3, M = 2; got N = {family.N}, M = {family.M}"
        )


@dataclass(frozen=True)
class TpaResult:
    """Absorption-contracted family: subnormalized survivors and bookkeeping."""

    states: tuple[StateVector, ...]
    success: float
    jump_probability: float
    schedule: ChannelSchedule


def orthogonalize_tpa(family: SymmetricFamily) -> TpaResult:
    """Run the no-jump absorption contraction on the two-photon family.

    Applies exp(-(gamma_11 T_0 / 2) n_1 (n_1 - 1)) and
    exp(-(gamma_12 T_1 / 2) n_1 n_2) to each member and checks the result
    against the closed contracted form to 1e-10.  The surviving squared
    norm (the conclusive probability) must be k-independent.
    """
    _require_two_photon_triple(family)
    schedule = tpa_schedule(family)
    basis = build_basis(2, 2, ())
    labels = two_photon_labels(basis)
    K0 = tpa_conditional_operator(basis, (1, 1), schedule.products[0])
    K1 = tpa_conditional_operator(basis, (1, 2), schedule.products[1])
    expected = contracted_reference(family, basis, labels)
    survivors = []
    for k, psi in enumerate(family_states(family, basis, labels), start=1):
        out = K1.apply(K0.apply(psi))
        dev = np.max(np.abs(out.amplitudes - expected[k - 1]))
        if dev > 1e-10:
            raise RuntimeError(f"absorption contraction drifted from closed form at k = {k}: {dev:.3e}")
        survivors.append(out)
    norms2 = np.array([s.norm**2 for s in survivors])
    if np.ptp(norms2) > 1e-12:
        raise RuntimeError(f"conclusive probability depends on k: spread {np.ptp(norms2):.3e}")
    success = float(np.mean(norms2))
    return TpaResult(tuple(survivors), success, 1.0 - success, schedule)


@dataclass(frozen=True)
class SfgBranches:
    """Up-conversion output split into conclusive and inconclusive parts.

    total[k-1] is the full state on the enlarged (field x two ancilla)
    basis; conclusive[k-1] its both-ancillas-empty component as a plain
    field state; inconclusive[k-1] the ancilla-excited remainder on the
    enlarged basis, with global phase fixed so the first ancilla branch
    matches the reference pattern.  success + inconclusive_probability = 1
    up to float error.
    """

    total: tuple[StateVector, ...]
    conclusive: tuple[StateVector, ...]
    inconclusive: tuple[StateVector, ...]
    success: float
    inconclusive_probability: float
    schedule: ChannelSchedule


def ancilla_branch_amplitudes(state: StateVector) -> tuple[complex, complex]:
    """Amplitudes on |0,0>|1_A 0_B> and |0,0>|0_A 1_B> of an enlarged-basis state."""
    basis = state.basis
    if basis.ancilla_dims != (2, 2):
        raise ValueError("expected a basis with two two-level ancilla factors")
    return (
        complex(state.amplitudes[basis.index_of((0, 0), (1, 0))]),
        complex(state.amplitudes[basis.index_of((0, 0), (0, 1))]),
    )


def _inconclusive_reference(family: SymmetricFamily, k: int) -> tuple[complex, complex]:
    """Expected (A, B) ancilla amplitudes after phase fixing.

    a = sqrt(|c_0|^2 - |c_2|^2) on the A branch, and the B branch carries
    both the inherited coefficient phase difference and the family phase:
    e^{i (arg c_1 - arg c_0)} sqrt(|c_1|^2 - |c_2|^2) e^{i 2 pi k / N}.
    """
    m0, m1, m2 = family.moduli
    a = np.sqrt(max(m0**2 - m2**2, 0.0))
    b = np.sqrt(max(m1**2 - m2**2, 0.0))
    rel = (family.coeffs[1] / m1) * (family.coeffs[0] / m0).conjugate()
    return (complex(a), complex(rel * b * np.exp(2j * np.pi * k / family.N)))


def orthogonalize_sfg(family: SymmetricFamily) -> SfgBranches:
    """Run the coherent up-conversion contraction on the two-photon family.

    The (1,1) pair feeds ancilla A, the (1,2) pair ancilla B; two-level
    ancillas are exact for two-photon inputs.  The both-ancillas-empty
    component is checked against the closed contracted form  and the
    ancilla-excited remainder against the single-excitation pattern above,
    both to 1e-10.
    """
    _require_two_photon_triple(family)
    schedule = sfg_schedule(family)
    enlarged = build_basis(2, 2, (2, 2))
    field_basis = build_basis(2, 2, ())
    U = sfg_unitary(enlarged, (1, 1), schedule.products[0], ancilla=0) @ sfg_unitary(
        enlarged, (1, 2), schedule.products[1], ancilla=1
    )
    labels_enlarged = two_photon_labels(enlarged)
    labels_field = two_photon_labels(field_basis)
    expected = contracted_reference(family, field_basis, labels_field)
    anc_size = enlarged.ancilla_size

    totals, conclusives, inconclusives = [], [], []
    for k, psi in enumerate(family_states(family, enlarged, labels_enlarged), start=1):
        out = U.apply(psi)
        conc_amps = out.amplitudes[0::anc_size]
        dev = np.max(np.abs(conc_amps - expected[k - 1]))
        if dev > 1e-10:
            raise RuntimeError(f"conversion contraction drifted from closed form at k = {k}: {dev:.3e}")
        conclusive = StateVector(field_basis, conc_amps, normalized=False)

        residual = np.array(out.amplitudes, copy=True)
        residual[0::anc_size] = 0.0
        idx_a = enlarged.index_of((0, 0), (1, 0))
        idx_b = enlarged.index_of((0, 0), (0, 1))
        leak_vec = np.array(residual, copy=True)
        leak_vec[[idx_a, idx_b]] = 0.0
        leak = float(np.linalg.norm(leak_vec))
        inconclusive = StateVector(enlarged, residual, normalized=False)
        ref_a, ref_b = _inconclusive_reference(family, k)
        got_a, got_b = ancilla_branch_amplitudes(inconclusive)
        overlap = np.conj(ref_a) * got_a + np.conj(ref_b) * got_b
        if abs(overlap) > 1e-14:
            rotated = residual * (abs(overlap) / overlap)
            inconclusive = StateVector(enlarged, rotated, normalized=False)
            got_a, got_b = ancilla_branch_amplitudes(inconclusive)
            dev = max(abs(got_a - ref_a), abs(got_b - ref_b), leak)
            if dev > 1e-10:
                raise RuntimeError(
                    f"up-converted branch drifted from the single-excitation pattern at k = {k}: {dev:.3e}"
                )
        elif inconclusive.norm > 1e-10:
            raise RuntimeError(
                f"up-converted branch at k = {k} does not match the expected pattern at all"
            )
        totals.append(out)
        conclusives.append(conclusive)
        inconclusives.append(inconclusive)

    succ2 = np.array([s.norm**2 for s in conclusives])
    inc2 = np.array([s.norm**2 for s in inconclusives])
    if np.ptp(succ2) > 1e-12 or np.max(np.abs(succ2 + inc2 - 1.0)) > 1e-12:
        raise RuntimeError("branch probabilities are not k-independent or do not sum to one")
    return SfgBranches(
        tuple(totals),
        tuple(conclusives),
        tuple(inconclusives),
        float(np.mean(succ2)),
        float(np.mean(inc2)),
        schedule,
    )


def projective_discriminate(orthogonal_states, input_state: StateVector) -> np.ndarray:
    """Outcome probabilities of the von Neumann measurement along given states.

    The states are normalized internally and must be mutually orthogonal
    within 1e-9.  Probabilities may sum to less than the input norm when
    the input has support outside their span.
    """
    normalized = [s.normalized_copy() for s in orthogonal_states]
    rows = np.array([s.amplitudes for s in normalized])
    gram = rows.conj() @ rows.T
    off = np.max(np.abs(gram - np.eye(len(normalized))))
    if off > ORTHOGONALITY_TOL:
        raise ValueError(f"states are not mutually orthogonal: max deviation {off:.3e}")
    if input_state.basis != normalized[0].basis:
        raise ValueError("input state lives on a different basis")
    return np.abs(rows.conj() @ input_state.amplitudes) ** 2


def inconclusive_family(family: SymmetricFamily) -> SymmetricFamily | None:
    """Single-excitation family carried by the up-converted ancilla branch.

    Returns None when the branch is uninformative: whenever |c_0| or |c_1|
    does not strictly exceed |c_2|, one branch amplitude vanishes and the
    ancilla states differ by a global phase only (or the branch never
    occurs at all for an already-orthogonal family).
    """
    if family.M != 2:
        raise ValueError("the up-conversion recovery applies to M = 2 families")
    m0, m1, m2 = family.moduli
    if not (m0 > m2 and m1 > m2):
        return None
    a = np.sqrt(m0**2 - m2**2)
    b = np.sqrt(m1**2 - m2**2)
    scale = np.sqrt(a**2 + b**2)
    rel = (family.coeffs[1] / m1) * (family.coeffs[0] / m0).conjugate()
    return make_family(family.N, 1, (a / scale, rel * b / scale))


def equivalence_check(family: SymmetricFamily) -> float:
    """Max distance between absorption-simulated survivors and sqrt(P_D) mu_k.

    Pits the simulated physical contraction against the closed square-root
    detection states scaled by sqrt(P_D); both sides should agree to float
    accuracy, confirming that the conclusive branch realizes exactly the
    minimum-error measurement.
    """
    result = orthogonalize_tpa(family)
    basis = result.states[0].basis
    detection = srm_states_closed(family, basis, two_photon_labels(basis))
    scale = np.sqrt(success_probability_ud(family))
    return float(
        max(
            np.max(np.abs(s.amplitudes - scale * mu.amplitudes))
            for s, mu in zip(result.states, detection.vectors)
        )
    )


def equivalence_residual(family: SymmetricFamily) -> float:
    """Same comparison for any N = M + 1 family, via the numeric route.

    The contraction side is built abstractly (diagonal scaling to the
    smallest modulus) and the detection side from the numeric
    pseudo-inverse square root of the Gram sum, so the two paths share no
    intermediate formula.
    """
    if not family.linearly_independent:
        raise FamilyError(
            "linearly-dependent",
            f"equivalence holds for N == M + 1 families, got N = {family.N}, M = {family.M}",
        )
    basis, labels = single_mode_embedding(family)
    states = family_states(family, basis, labels)
    scaling = np.ones(basis.dimension)
    c_min = float(np.min(family.moduli))
    for l, idx in enumerate(labels):
        scaling[idx] = c_min / abs(family.coeffs[l])
    detection = srm_states_numeric(states)
    scale = np.sqrt(success_probability_ud(family))
    dev = 0.0
    for psi, mu in zip(states, detection.vectors):
        contracted = scaling * psi.amplitudes
        dev = max(dev, float(np.max(np.abs(contracted - scale * mu.amplitudes))))
    return dev


@dataclass(frozen=True)
class UnambiguousOutcome:
    """One branch of the unambiguous protocol for a given prepared state."""

    kind: str
    guess: int | None
    conditional_state: StateVector
    branch_probability: float

    def __post_init__(self):
        if self.kind not in ("conclusive", "inconclusive"):
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if (self.guess is None) != (self.kind == "inconclusive"):
            raise ValueError("conclusive outcomes carry a guess, inconclusive ones do not")
        if not 0.0 <= self.branch_probability <= 1.0 + 1e-12:
            raise ValueError(f"branch probability {self.branch_probability} outside [0, 1]")


def branch_outcomes(family: SymmetricFamily, mechanism: str, k: int) -> tuple[UnambiguousOutcome, ...]:
    """Nonzero-probability branches when state k enters the contraction.

    The conclusive branch identifies k with certainty.  The inconclusive
    conditional state is the field vacuum for absorption (both photons are
    destroyed) and the normalized up-converted ancilla state for
    conversion.
    """
    _require_two_photon_triple(family)
    if not 1 <= k <= family.N:
        raise ValueError(f"k must be in 1..{family.N}, got {k}")
    if mechanism == "tpa":
        result = orthogonalize_tpa(family)
        success = result.success
        survivor = result.states[k - 1]
        inconclusive_state = None
        if success < 1.0:
            vac = np.zeros(survivor.basis.dimension, dtype=complex)
            vac[survivor.basis.index_of((0, 0))] = 1.0
            inconclusive_state = StateVector(survivor.basis, vac)
    elif mechanism == "sfg":
        branches = orthogonalize_sfg(family)
        success = branches.success
        survivor = branches.conclusive[k - 1]
        inconclusive_state = None
        if branches.inconclusive_probability > 1e-15:
            inconclusive_state = branches.inconclusive[k - 1].normalized_copy()
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")

    outcomes = [
        UnambiguousOutcome("conclusive", k, survivor.normalized_copy(), success)
    ]
    if inconclusive_state is not None:
        outcomes.append(UnambiguousOutcome("inconclusive", None, inconclusive_state, 1.0 - success))
    total = sum(o.branch_probability for o in outcomes)
    if abs(total - 1.0) > 1e-12:
        raise RuntimeError(f"branch probabilities sum to {total}")
    return tuple(outcomes)


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


def ud_report(family: SymmetricFamily, mechanism: str) -> dict:
    """JSON-ready summary of one physical unambiguous-discrimination run."""
    from .families import family_to_json  # local import keeps module deps one-way

    p_d = success_probability_ud(family)
    if mechanism == "tpa":
        result = orthogonalize_tpa(family)
        schedule = result.schedule
        conclusive = result.states
        recovered_payload = None
    elif mechanism == "sfg":
        branches = orthogonalize_sfg(family)
        schedule = branches.schedule
        conclusive = branches.conclusive
        recovered = inconclusive_family(family)
        recovered_payload = "uninformative" if recovered is None else family_to_json(recovered)
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")

    normalized = [s.normalized_copy() for s in conclusive]
    rows = np.array([s.amplitudes for s in normalized])
    gram = rows.conj() @ rows.T
    ortho_residual = float(np.max(np.abs(gram - np.eye(len(normalized)))))
    return {
        "N": family.N,
        "M": family.M,
        "mechanism": mechanism,
        "interaction_products": list(schedule.products),
        "success_probability": p_d,
        "inconclusive_probability": 1.0 - p_d,
        "orthogonality_residual": ortho_residual,
        "equivalence_residual": equivalence_check(family),
        "recovered_family": recovered_payload,
    }
