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
probability averaged over an exponential waiting-time distribution.  Its
coupling is written on the four states it connects, from its sqrt(2)
matrix elements; no field or atom operator is built.  Its input checks
and level-degeneracy threshold come from `tolerances`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .families import SymmetricFamily, phase_matrix, two_photon_labels
from .fock import build_basis
from .tolerances import DEGENERACY_TOL, NORMALIZATION_TOL, UNIFORM_MODULI_TOL, require_small

# three ground levels, whose amplitudes AtomFieldModel.alpha holds, and the excited one
ATOM_LEVELS = 4


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


@dataclass(frozen=True)
class AtomFieldModel:
    """Four-level atom coupled to two-photon transitions of a two-mode field.

    H = eta (a_1^2 |e><g_0| + sqrt(2) a_1 a_2 |e><g_1| + a_2^2 |e><g_2|) + h.c.

    alpha are the ground-state amplitudes (alpha_0, alpha_1, alpha_2) the
    atom is prepared in; Gamma is the rate of the exponential waiting-time
    distribution used when averaging the excitation probability.
    """

    eta: float
    Gamma: float
    alpha: tuple[complex, complex, complex]

    def __post_init__(self):
        if not np.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if not (np.isfinite(self.Gamma) and self.Gamma > 0.0):
            raise ValueError(f"Gamma must be finite and > 0, got {self.Gamma}")
        al = tuple(complex(a) for a in self.alpha)
        message = "alpha must be unit norm: ||alpha| - 1| = {residual:.3e}"
        require_small(abs(np.linalg.norm(al) - 1.0), NORMALIZATION_TOL, message, ValueError)
        object.__setattr__(self, "alpha", al)


class ExcitationResult(NamedTuple):
    """Waiting-time averaged excitation probability, three ways.

    numeric comes from the eigendecomposition of H on the four states it
    couples, averaged in closed form over the waiting time (see
    atom_excitation_avg).  The two closed forms differ in the effective
    Rabi frequency of the bright two-photon transition: with the
    Hamiltonian above it is sqrt(6) eta (each two-photon matrix element
    carries a bosonic sqrt(2)), giving

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


@functools.cache
def _unit_coupling_spectrum() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dw, V, v_e) of the unit coupling H_1 on the four states it connects, read-only.

    H_1 is the H of AtomFieldModel at eta = 1.  a_1^2 |2,0>,
    sqrt(2) a_1 a_2 |1,1> and a_2^2 |0,2> are each sqrt(2) |0,0>, so H_1
    couples |0,0>|e> to each |pair_l>|g_l> (|pair_l> = |2,0>, |1,1>,
    |0,2>) with sqrt(2) and, below the two-photon cutoff, annihilates every
    other field x atom state.  Its block over the four, |0,0>|e> first and
    then |pair_l>|g_l> in order of l, holds the whole spectrum
    {-sqrt(6), 0, 0, sqrt(6)}: H_1 = V diag(w) V^dag, dw[m, n] = w_m - w_n
    with split degenerate levels rejoined, and v_e[m] = <e|m> on
    |e> = |0,0>|e>.  In this order the two bright eigenvectors come out
    with equal ground parts, to the bit.  It depends on neither the model
    nor the field, so it is computed once per process.
    """
    coupling = np.zeros((ATOM_LEVELS, ATOM_LEVELS))
    coupling[0, 1:] = coupling[1:, 0] = math.sqrt(2.0)
    w, V = np.linalg.eigh(coupling)
    dw = w[:, None] - w[None, :]
    dw[np.abs(dw) <= DEGENERACY_TOL] = 0.0
    excited = V[0]
    for arr in (dw, V, excited):
        arr.setflags(write=False)
    return dw, V, excited


def atom_excitation_avg(model: AtomFieldModel, field) -> ExcitationResult:
    """Average excitation probability under exponential waiting times.

    field holds the 6 amplitudes of a two-photon state over build_basis(2, 2),
    such as one row of family_states on that basis.  Of the products
    beta_l alpha_g of the prepared state only the three beta_l alpha_l on
    the coupled |pair_l>|g_l> evolve (see _unit_coupling_spectrum); the
    rest never excite.  With H = sum_m w_m |m><m| on the four coupled
    states, x = V^dag psi(0) and E_mn = <e|m><n|e>,

        int_0^inf Gamma e^{-Gamma t} P_e(t) dt
            = Re sum_mn x_m x_n^* E_mn Gamma / (Gamma + i (w_m - w_n)),

    exact and at a cost independent of Gamma.  The ground-state
    preparation has P_e(0) = sum_mn x_m x_n^* E_mn = 0, which is
    subtracted, so the summand is -i (w_m - w_n) / (Gamma + i (w_m - w_n))
    and each term keeps its accuracy at large Gamma.  H = eta H_1 is
    diagonalized at eta = 1, once per process, and eta and Gamma enter
    divided by max(Gamma, |eta|), so any finite eta and Gamma > 0 stay in
    range.
    """
    field = np.asarray(field, dtype=complex)
    labels = list(two_photon_labels(build_basis(2, 2)))
    beta = field[labels]
    outside = np.linalg.norm(field) ** 2 - np.linalg.norm(beta) ** 2
    message = "field state carries probability {residual:.3e} outside the two-photon sector"
    require_small(outside, NORMALIZATION_TOL, message, ValueError)

    psi0 = np.zeros(ATOM_LEVELS, dtype=complex)
    psi0[1:] = beta * np.asarray(model.alpha)

    dw, V, excited = _unit_coupling_spectrum()
    scale = max(model.Gamma, abs(model.eta))
    gamma, eta = model.Gamma / scale, model.eta / scale
    kernel = np.zeros_like(dw, dtype=complex)
    np.divide(-1j * eta * dw, gamma + 1j * eta * dw, out=kernel, where=dw != 0.0)
    amps = (V.conj().T @ psi0) * excited  # x_m <e|m>
    numeric = float(np.sum(np.outer(amps, amps.conj()) * kernel).real)

    overlap = float(np.abs(np.sum(np.asarray(model.alpha) * beta)) ** 2)
    eta2, g2 = eta * eta, gamma * gamma
    return ExcitationResult(
        numeric=numeric,
        analytic_rabi_sqrt6=overlap * 4.0 * eta2 / (g2 + 24.0 * eta2),
        analytic_rabi_sqrt3=overlap * 2.0 * eta2 / (g2 + 12.0 * eta2),
        detection_overlap=overlap,
        gamma_to_zero_limit=overlap / 6.0,
    )


def detector_atom_coefficients(family: SymmetricFamily, k: int) -> tuple[complex, complex, complex]:
    """Unit-norm atom preparation whose excitation selects detection state k.

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
    alpha = (family.unit_phases * phase_matrix(family)[k - 1]).conj() / np.sqrt(3.0)
    return (complex(alpha[0]), complex(alpha[1]), complex(alpha[2]))


def detector_atom_model(family: SymmetricFamily, k: int, eta: float, Gamma: float) -> AtomFieldModel:
    return AtomFieldModel(eta=eta, Gamma=Gamma, alpha=detector_atom_coefficients(family, k))
