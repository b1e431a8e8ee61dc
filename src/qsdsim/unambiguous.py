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
Both only scale the members' (N, 3) `families.reference_rows` and return
one `Contraction` record: the conclusive survivors, their squared norm
P_D, the schedule and, for sfg, the ancilla amplitudes.  Each result is
checked against its closed form to a threshold of `tolerances`; the
survivors are proven once, against sqrt(P_D) mu_k, and the record carries
that comparison's residual, which `ud_report` prints.  `survivor_gram`
alone computes the survivors' Gram matrix, its residual and their gate,
for the report and the sampler.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channels import sfg_rotations, sfg_schedule, tpa_schedule, tpa_survival
from .families import FamilyError, SymmetricFamily, family_to_json, make_family
from .families import phase_matrix, reference_rows
from .minerror import detection_rows, success_probability_analytic
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


def inconclusive_probability_ud(family: SymmetricFamily) -> float:
    """1 - P_D as sum_l (|c_l| - |c_min|)(|c_l| + |c_min|); with P_D, 1 to NORMALIZATION_TOL.

    No term cancels where 1.0 - P_D would, near P_D = 1.
    """
    c_min = np.min(family.moduli)
    return float(np.sum((family.moduli - c_min) * (family.moduli + c_min)))


def _require_two_photon_triple(family: SymmetricFamily):
    if family.N != 3 or family.M != 2:
        raise ValueError(
            f"the physical contraction is simulated for N = 3, M = 2; got N = {family.N}, M = {family.M}"
        )


def _ancilla_pattern(family: SymmetricFamily, rotations) -> tuple[float, complex]:
    """(a, e^{i (arg c_1 - arg c_0)} b) with a, b = sqrt(|c_0|^2 - |c_2|^2), sqrt(|c_1|^2 - |c_2|^2).

    The up-converted amplitudes on the A and B ancilla of member k are this
    pair times -(c_0 / |c_0|) (1, e^{i 2 pi k / N}).  Each is taken as
    |c_l| times the sine of the family's sfg_rotations, the branch of the
    rotation the conversion applies, accurate also for moduli a rounding apart.
    """
    (_, s0), (_, s1) = rotations
    a, b = family.moduli[:2] * np.array([s0, s1])
    u0, u1, _ = family.unit_phases
    return a, u1 * u0.conjugate() * b


def survivor_gram(survivors: np.ndarray) -> tuple[np.ndarray, float]:
    """(Gram matrix <n_j|n_k> of the normalized survivor rows n_k, its residual max|gram - I|).

    The one gate on the survivors: rows further than ORTHOGONALITY_TOL from
    orthonormal would let the projective measurement make wrong conclusive
    guesses, so neither a report nor a sample is taken from them
    (ValueError).  |gram[j, k]|^2 is the probability that the von Neumann
    measurement along the n_j answers j for input n_k.  Each row is divided
    by its largest modulus before it is normalized, so rows near 1e-170 keep
    their direction where their squared norm would underflow.  A survivor
    that is not finite or has zero norm raises ValueError.
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
    gram = unit.conj() @ unit.T
    message = "states are not mutually orthogonal: max deviation {residual:.3e}"
    dev = np.max(np.abs(gram - np.eye(len(gram))))
    return gram, require_small(dev, ORTHOGONALITY_TOL, message, ValueError)


class Contraction(NamedTuple):
    """One contraction run on the two-photon family, row k - 1 for member k.

    conclusive (N, 3) holds the survivors sqrt(P_D) mu_k as their amplitudes
    on |0,2>, |1,1>, |2,0> (l = 2, 1, 0, the order of the two-photon sector
    in a Fock basis) and success their k-independent squared norm.  The
    weight the contraction moved out of them, 1 - P_D, is not held: it is
    the input norm sum |c_l|^2 less success for tpa, and the mean squared
    norm of inconclusive for sfg.  schedule holds the interaction
    products.  For sfg, inconclusive (N, 2) holds the amplitudes on |0,0>|1_A 0_B> and |0,0>|0_A 1_B>, the only
    support of the up-converted branch, with global phase fixed so that
    they match the reference pattern; for tpa it is None, as the
    absorption jump destroys the photons.  An entry of either array that
    is exactly zero may carry either sign.  equivalence_residual is
    max|conclusive - sqrt(P_D) mu_k|, the one comparison that proved the
    survivors, and the value the report prints.
    """

    conclusive: np.ndarray
    success: float
    schedule: tuple[float, float]
    equivalence_residual: float
    inconclusive: np.ndarray | None = None


def _contracted(family: SymmetricFamily, factors, name: str):
    """The (amplitudes, out, succ2, equivalence residual) of every member scaled by `factors`.

    amplitudes are the members' reference_rows on |2,0>, |1,1>, |0,2>
    (l = 0, 1, 2).  out scales them by the three factors and
    holds them in Fock order, l = 2, 1, 0, as do the comparison and succ2,
    out's squared row norms: the order fixes the last bits of the survivor
    Gram matrix, so of orthogonality_residual.  out is compared once with
    sqrt(P_D) mu_k, taken as sqrt(N) |c_min| mu_k so that it does not
    underflow with |c_min|^2.  Each row's largest deviation must be at most
    CONTRACTION_TOL |c_min|, and the conclusive squared norm must be
    k-independent.  The residual is the largest deviation itself.
    """
    amplitudes = reference_rows(family)
    fock = [2, 1, 0]
    out = (amplitudes * factors)[:, fock]
    c_min = np.min(family.moduli)
    # math.sqrt: the same rounded root as np.sqrt, without numpy's scalar overhead
    expected = math.sqrt(family.N) * c_min * detection_rows(family)[:, fock]
    deviation = np.max(np.abs(out - expected), axis=1)
    # relative to |c_min|, the size of every expected entry: an absolute check
    # would pass any survivors once |c_min| is below the tolerance
    message = f"{name} contraction drifted from closed form at k = {{k}}: {{residual:.3e}}"
    require_small(deviation / c_min, CONTRACTION_TOL, message)
    succ2 = np.linalg.norm(out, axis=1) ** 2
    message = "conclusive probability depends on k: spread {residual:.3e}"
    require_small(np.ptp(succ2), CLOSED_FORM_TOL, message)
    return amplitudes, out, succ2, float(deviation.max())


def orthogonalize_tpa(family: SymmetricFamily) -> Contraction:
    """Run the no-jump absorption contraction on the two-photon family.

    Scales every member's amplitudes by the no-jump factors of
    tpa_survival, proven by _contracted.  The weight they remove is the
    probability that an absorption jump occurred, the inconclusive
    probability.
    """
    _require_two_photon_triple(family)
    schedule = tpa_schedule(family)
    _, out, succ2, residual = _contracted(family, tpa_survival(schedule), "absorption")
    return Contraction(out, float(np.mean(succ2)), schedule, residual)


def orthogonalize_sfg(family: SymmetricFamily) -> Contraction:
    """Run the coherent up-conversion contraction on the two-photon family.

    The (1,1) pair feeds ancilla A, the (1,2) pair ancilla B, each by the
    rotation sfg_rotations takes from the moduli: the survivors are the
    |2,0> and |1,1> amplitudes times the cosines, proven by _contracted,
    and the up-converted ones are the same amplitudes times minus the
    sines.  Those are checked against the single-excitation pattern
    (_ancilla_pattern), to an absolute CONTRACTION_TOL, and both branches
    together against the input norm.  The schedule and the pattern come
    from the same rotations.
    """
    _require_two_photon_triple(family)
    rotations = sfg_rotations(family)
    (r0, s0), (r1, s1) = rotations
    schedule = sfg_schedule(family, rotations)
    amplitudes, out, succ2, residual = _contracted(family, (r0, r1, 1.0), "conversion")

    # the up-converted -s_l c_l e^{i 2 pi l k / N} are the reference pattern times -c_0 / |c_0|
    branch = amplitudes[:, :2] * np.array([s0, s1]) * family.unit_phases[0].conjugate()
    inc2 = np.sum(np.abs(branch) ** 2, axis=1)
    ref = np.array(_ancilla_pattern(family, rotations)) * phase_matrix(family)[:, :2]
    drift = np.max(np.abs(branch - ref), axis=1)
    message = "up-converted branch left the single-excitation pattern at k = {k}: {residual:.3e}"
    require_small(drift, CONTRACTION_TOL, message)

    input2 = np.linalg.norm(amplitudes, axis=1) ** 2
    message = "branch probabilities miss the input norm by {residual:.3e}"
    require_small(np.abs(succ2 + inc2 - input2), CLOSED_FORM_TOL, message)
    return Contraction(out, float(np.mean(succ2)), schedule, residual, branch)


def inconclusive_family(family: SymmetricFamily) -> SymmetricFamily | None:
    """Single-excitation family carried by the up-converted ancilla branch.

    A |c_2| that exceeds |c_0| or |c_1| beyond a tie (see sfg_rotations)
    raises ScheduleError: the conversion cannot run.  Returns None when the
    branch is uninformative: whenever |c_0| or |c_1| ties with |c_2|, one
    branch amplitude vanishes and the ancilla states differ by a global
    phase only (or the branch never occurs at all for an already-orthogonal
    family), or when a normalized amplitude is below the smallest normal
    float, which leaves P_C at 1/N.
    """
    if family.M != 2:
        raise ValueError("the up-conversion recovery applies to M = 2 families")
    rotations = sfg_rotations(family)
    m0, m1, m2 = family.moduli
    if m0 > m2 and m1 > m2:
        a, b = _ancilla_pattern(family, rotations)
        scale = np.sqrt(a**2 + abs(b) ** 2)
        coeffs = (a / scale, b / scale)
        if min(abs(c) for c in coeffs) >= np.finfo(float).tiny:
            return make_family(family.N, 1, coeffs)
    return None


def recovery_pipeline_analytic(family: SymmetricFamily) -> dict:
    """Overall correct-guess probability P_D + (1 - P_D) P_rec of the conversion + retry protocol.

    Conclusive events (probability P_D) identify k exactly; the rest leave the
    single-excitation ancilla family, discriminated by its own optimal
    minimum-error measurement (P_rec; 1/N, a uniform guess, when uninformative).
    The retry weight is 1 - P_D, the complement of the sampler's Binomial(totals,
    P_D), not the moved weight sum_l |c_l|^2 - P_D that ud_report prints: the two
    differ by at most NORMALIZATION_TOL, and 1.0 - P_D is exact for P_D >= 1/2.
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


def contract(family: SymmetricFamily, mechanism: str) -> Contraction:
    """The `Contraction` of one mechanism: "tpa" for two-photon absorption,
    "sfg" for sum-frequency up-conversion (see MECHANISMS); KeyError for any other name."""
    return {"tpa": orthogonalize_tpa, "sfg": orthogonalize_sfg}[mechanism](family)


def ud_report(family: SymmetricFamily, mechanism: str) -> dict:
    """JSON-ready summary of one physical unambiguous-discrimination run."""
    p_d = success_probability_ud(family)
    run = contract(family, mechanism)
    recovered_payload = None
    if run.inconclusive is not None:
        recovered = inconclusive_family(family)
        recovered_payload = "uninformative" if recovered is None else family_to_json(recovered)
    return {
        "N": family.N,
        "M": family.M,
        "mechanism": mechanism,
        "interaction_products": list(run.schedule),
        "success_probability": p_d,
        "inconclusive_probability": inconclusive_probability_ud(family),
        "orthogonality_residual": survivor_gram(run.conclusive)[1],
        "equivalence_residual": run.equivalence_residual,
        "recovered_family": recovered_payload,
    }
