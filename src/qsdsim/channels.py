"""Physical mechanisms that realize the detection-state contraction.

Two routes shrink the reference-state amplitudes of a two-photon family to
a common magnitude:

* conditional two-photon absorption: no-jump evolution under
  exp(-(gamma/2) a_i^dag a_j^dag a_i a_j t), a diagonal operator in photon
  number, at the cost of an unrecoverable jump branch;
* sum-frequency generation: coherent pair conversion
  H = i (kappa/2) (a_i^dag a_j^dag b - a_i a_j b^dag) into ancilla modes,
  which keeps the rejected amplitude alive in a one-photon up-converted
  state.  On two-photon inputs it is a direct sum of 2 x 2 Givens
  rotations.

Both act only on the amplitudes over |2,0>, |1,1>, |0,2>, in closed form
from the ratios |c_2| / |c_l|: three no-jump factors (tpa_survival) and
two (cosine, sine) rotations (sfg_rotations), with no matrix exponential.

Also here: a four-level atom whose two-photon transitions realize the
square-root measurement of the N = 3 family, with its excitation
probability averaged over an exponential waiting-time distribution.  The
coupling joins |e> to one bright combination of the ground levels, so the
average is a closed form in eta, Gamma and the overlap of the atom's
preparation with the field; no field or atom operator is built and
nothing is diagonalized.  Its input checks come from `tolerances`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .families import SymmetricFamily, phase_matrix, read_only, two_photon_labels
from .fock import build_basis
from .tolerances import NORMALIZATION_TOL, UNIFORM_MODULI_TOL, require_small

# where |2,0>, |1,1>, |0,2> sit among the atom field's 6 amplitudes on build_basis(2, 2)
_PAIRS = read_only(np.array(two_photon_labels(build_basis(2, 2))))


class ScheduleError(ValueError):
    """No nonnegative interaction times produce the requested contraction."""


def _contractible_moduli(family: SymmetricFamily, mechanism: str) -> np.ndarray:
    """The moduli of an M = 2 family whose |c_2| is the smallest: ScheduleError otherwise.

    A |c_0| or |c_1| that |c_2| exceeds by at most a relative UNIFORM_MODULI_TOL
    ties and is returned raised to |c_2|.  The moduli are finite and normal,
    so |c_2| / |c_l| lies in (0, 1]: the schedules' products are finite,
    >= 0 and on the principal branch.
    """
    m0, m1, m2 = family.moduli.tolist()
    for name, m in (("c_0", m0), ("c_1", m1)):
        if m2 > (1.0 + UNIFORM_MODULI_TOL) * m:
            # repr: the rule rejects excesses down to UNIFORM_MODULI_TOL, past any fixed precision
            raise ScheduleError(
                f"|c_2| = {m2!r} exceeds |{name}| = {m!r}; "
                f"{mechanism} can only shrink amplitudes toward the smallest one"
            )
    return np.maximum(family.moduli, m2)


def tpa_schedule(family: SymmetricFamily) -> tuple[float, float]:
    """Absorption products (rate x time) that level all amplitudes down to |c_2|.

    gamma_11 T_0 = ln(|c_0| / |c_2|) empties the doubly occupied mode 1
    component (its generator eigenvalue is 2), gamma_12 T_1 =
    2 ln(|c_1| / |c_2|) the coincident component.
    """
    m0, m1, m2 = _contractible_moduli(family, "absorption")
    return float(np.log(m0 / m2)), float(2.0 * np.log(m1 / m2))


def tpa_survival(schedule: tuple[float, float]) -> np.ndarray:
    """No-jump factors on |2,0>, |1,1>, |0,2> of the absorption schedule (p_0, p_1).

    exp(-(p/2) a_i^dag a_j^dag a_i a_j) is diagonal in photon number, with
    generator n_1 (n_1 - 1) = (2, 0, 0) for the (1,1) pair at p_0 and
    n_1 n_2 = (0, 1, 0) for (1,2) at p_1, so the factors are
    (e^{-p_0}, e^{-p_1 / 2}, 1).  The squared norm they remove is the
    probability that an absorption jump occurred.
    """
    p0, p1 = schedule
    return np.exp([-p0, -0.5 * p1, 0.0])


def sfg_rotations(family: SymmetricFamily) -> tuple[tuple[float, float], tuple[float, float]]:
    """Conversion rotations (cosine, sine) = (|c_2|, sqrt(|c_l|^2 - |c_2|^2)) / |c_l|, l = 0, 1.

    Pair l takes |pair>|0> to cosine |pair>|0> - sine |0,0>|1> on its own
    ancilla (|pair> = |2,0>, |1,1>), the exact pair conversion on two photons.

    The sine is sqrt((1 - r)(1 + r)) with 1 - r taken as (|c_l| - |c_2|) / |c_l|,
    not from the rounded cosine r: for moduli a few roundings apart 1 - r
    is a multiple of 2^-53, and its square root would miss the sine by up
    to half of itself.  Both ratios stay clear of underflow at any normal
    moduli.
    """
    m0, m1, m2 = _contractible_moduli(family, "up-conversion")
    return tuple(
        (float(m2 / m), math.sqrt((m - m2) / m * ((m + m2) / m))) for m in (float(m0), float(m1))
    )


def sfg_schedule(family: SymmetricFamily, rotations=None) -> tuple[float, float]:
    """Conversion products (rate x time) that rotate all amplitudes down to |c_2|.

    The (1,1) pair rotates |2,0>|0>_A toward |0,0>|1>_A at angle
    product / sqrt(2), the (1,2) pair |1,1>|0>_B toward |0,0>|1>_B at
    product / 2, so with the rotations of sfg_rotations

        kappa_11 T_0 = sqrt(2) arccos(|c_2| / |c_0|)
        kappa_12 T_1 = 2 arccos(|c_2| / |c_1|),

    each angle taken as atan2(sine, cosine), which stays accurate where
    arccos of a cosine near 1 does not.  A caller that holds the family's
    sfg_rotations already passes them as rotations.
    """
    (r0, s0), (r1, s1) = sfg_rotations(family) if rotations is None else rotations
    return math.sqrt(2.0) * math.atan2(s0, r0), 2.0 * math.atan2(s1, r1)


class AtomFieldModel:
    """Four-level atom coupled to two-photon transitions of a two-mode field.

    H = eta (a_1^2 |e><g_0| + sqrt(2) a_1 a_2 |e><g_1| + a_2^2 |e><g_2|) + h.c.

    alpha are the ground-state amplitudes (alpha_0, alpha_1, alpha_2) the
    atom is prepared in, held as one read-only array; Gamma is the rate of the
    exponential waiting-time distribution used when averaging the excitation
    probability.  A non-finite eta, a Gamma that is not finite and > 0 and
    an alpha off unit norm raise ValueError.
    """

    __slots__ = ("eta", "Gamma", "alpha")

    def __init__(self, eta: float, Gamma: float, alpha):
        if not np.isfinite(eta):
            raise ValueError("eta must be finite")
        if not (np.isfinite(Gamma) and Gamma > 0.0):
            raise ValueError(f"Gamma must be finite and > 0, got {Gamma}")
        alpha = read_only(np.array([complex(a) for a in alpha]))
        message = "alpha must be unit norm: ||alpha| - 1| = {residual:.3e}"
        norm = np.sqrt(np.sum(np.abs(alpha) ** 2))
        require_small(abs(norm - 1.0), NORMALIZATION_TOL, message, ValueError)
        self.eta, self.Gamma, self.alpha = eta, Gamma, alpha


class ExcitationResult(NamedTuple):
    """Waiting-time averaged excitation probability, three ways.

    numeric is the exact average of atom_excitation_avg.  The two closed
    forms differ in the effective Rabi frequency of the bright two-photon
    transition: with the Hamiltonian above it is sqrt(6) eta (each
    two-photon matrix element carries a bosonic sqrt(2)), giving numeric,

        overlap * 4 eta^2 / (Gamma^2 + 24 eta^2),

    while normalizing every matrix element to eta gives sqrt(3) eta and

        overlap * 2 eta^2 / (Gamma^2 + 12 eta^2).

    Both reduce to gamma_to_zero_limit = overlap / 6 as Gamma -> 0, with
    detection_overlap = |sum_l alpha_l beta_l|^2 and beta the field amplitudes.
    """

    numeric: float
    analytic_rabi_sqrt6: float
    analytic_rabi_sqrt3: float
    detection_overlap: float
    gamma_to_zero_limit: float


def atom_excitation_avg(model: AtomFieldModel, field) -> ExcitationResult:
    """Average excitation probability under exponential waiting times.

    field holds the 6 amplitudes of a two-photon state over build_basis(2, 2),
    such as one row of family_states on that basis.  a_1^2 |2,0>,
    sqrt(2) a_1 a_2 |1,1> and a_2^2 |0,2> are each sqrt(2) |0,0>, so H joins
    |0,0>|e> to the bright state 3^{-1/2} sum_l |pair_l>|g_l> at Rabi
    frequency sqrt(6) eta, and the prepared state's bright amplitude is
    3^{-1/2} sum_l alpha_l beta_l.  So P_e(t) = overlap sin^2(sqrt(6) eta t) / 3,
    whose average over the waiting time is overlap * 4 eta^2 / (Gamma^2 + 24 eta^2),
    exact at any Gamma.  eta and Gamma enter divided by max(Gamma, |eta|),
    so any finite eta and Gamma > 0 stay in range.
    """
    field = np.asarray(field, dtype=complex)
    beta = field[_PAIRS]
    mass = np.abs(field) ** 2
    outside = np.sum(mass) - np.sum(mass[_PAIRS])
    message = "field state carries probability {residual:.3e} outside the two-photon sector"
    require_small(outside, NORMALIZATION_TOL, message, ValueError)

    overlap = float(np.abs(np.sum(model.alpha * beta)) ** 2)
    scale = max(model.Gamma, abs(model.eta))
    gamma, eta = model.Gamma / scale, model.eta / scale
    eta2, g2 = eta * eta, gamma * gamma
    bright = overlap * 4.0 * eta2 / (g2 + 24.0 * eta2)
    return ExcitationResult(
        numeric=bright,
        analytic_rabi_sqrt6=bright,
        analytic_rabi_sqrt3=overlap * 2.0 * eta2 / (g2 + 12.0 * eta2),
        detection_overlap=overlap,
        gamma_to_zero_limit=overlap / 6.0,
    )


def detector_atom_coefficients(family: SymmetricFamily, k: int) -> np.ndarray:
    """Unit-norm atom preparation whose excitation selects detection state k, read-only.

    alpha_l = 3^{-1/2} (c_l / |c_l|)^* e^{-i 2 pi l k / N}, the conjugated
    phase pattern of detection state mu_k.  For a field with reference
    amplitudes beta this gives

        |sum_l alpha_l beta_l|^2 = (N / 3) |<mu_k|field>|^2,

    so for N = 3 the excitation probability measures |<mu_k|field>|^2
    exactly and the three preparations k = 1..3 realize the full
    square-root measurement.
    """
    if family.M != 2:
        raise ValueError("the detector atom has three ground states; need M = 2")
    if not 1 <= k <= family.N:
        raise ValueError(f"k must be in 1..{family.N}, got {k}")
    return read_only((family.unit_phases * phase_matrix(family)[k - 1]).conj() / np.sqrt(3.0))


def detector_atom_model(family: SymmetricFamily, k: int, eta: float, Gamma: float) -> AtomFieldModel:
    return AtomFieldModel(eta=eta, Gamma=Gamma, alpha=detector_atom_coefficients(family, k))
