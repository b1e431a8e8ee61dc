"""Cyclic families of nonorthogonal pure states.

A family is defined by N >= M + 1 states

    |psi_k> = sum_{l=0}^{M} c_l exp(i 2 pi l k / N) |u_l>,   k = 1..N,

over an orthonormal reference set {|u_l>}, with every c_l nonzero and
sum |c_l|^2 = 1.  The states are connected by the cyclic shift
|psi_k> -> |psi_{k+1}> implemented by phase rotations of the |u_l>.

The physically central instance here is the two-photon family produced by
interfering a photon pair coincident in a dual-rail mode: equal splitting
with a relative phase 2 pi k / N gives coefficients (1/2, 1/sqrt(2), 1/2)
over |2,0>, |1,1>, |0,2>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, Operator, StateVector, basis_state, build_basis, creation_matrix

NORMALIZATION_TOL = 1e-9

COINCIDENT_COEFFS = (0.5 + 0j, 1.0 / np.sqrt(2.0) + 0j, 0.5 + 0j)


class FamilyError(ValueError):
    """Family parameter validation failure, tagged with a stable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class SymmetricFamily:
    """Validated parameter set (N, M, coefficients) of a cyclic family."""

    N: int
    M: int
    coeffs: tuple[complex, ...]

    @property
    def linearly_independent(self) -> bool:
        """True when N == M + 1 (states span an N-dim space)."""
        return self.N == self.M + 1

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(np.asarray(self.coeffs))


def make_family(N: int, M: int, coeffs, protocol_ordering: bool = False) -> SymmetricFamily:
    """Validate parameters and build a SymmetricFamily.

    coeffs holds c_0..c_M.  With protocol_ordering=True the two-photon
    absorption / up-conversion ordering constraint |c_2| <= |c_0|, |c_1| is
    enforced as an error; otherwise a violated ordering only warns.
    """
    cs = tuple(complex(c) for c in coeffs)
    if len(cs) != M + 1:
        raise FamilyError(
            "coeff-count", f"expected M + 1 = {M + 1} coefficients, got {len(cs)}"
        )
    if N < M + 1:
        raise FamilyError("too-few-states", f"need N >= M + 1, got N = {N}, M = {M}")
    mags = np.abs(np.asarray(cs))
    if not np.all(np.isfinite(mags)):
        bad = int(np.argmin(np.isfinite(mags)))
        raise FamilyError(
            "non-finite-coefficient", f"coefficient c_{bad} = {cs[bad]} is not finite"
        )
    if np.any(mags == 0.0):
        bad = int(np.argmin(mags))
        raise FamilyError("zero-coefficient", f"coefficient c_{bad} is zero")
    total = float(np.sum(mags**2))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise FamilyError(
            "not-normalized", f"sum |c_l|^2 = {total:.12f} differs from 1 beyond tolerance"
        )
    if M >= 2 and (mags[-1] > mags[0] or mags[-1] > mags[1]):
        msg = (
            f"|c_{M}| = {mags[-1]:.6f} exceeds |c_0| or |c_1|; "
            "the absorption/up-conversion schedules need |c_M| to be smallest"
        )
        if protocol_ordering:
            raise FamilyError("coefficient-ordering", msg)
        warnings.warn(msg, stacklevel=2)
    return SymmetricFamily(int(N), int(M), cs)


def normalized_family(N: int, M: int, coeffs, **kwargs) -> SymmetricFamily:
    """Rescale coefficients to unit total weight, then validate."""
    cs = np.asarray([complex(c) for c in coeffs])
    nrm = np.linalg.norm(cs)
    if nrm == 0.0:
        raise FamilyError("zero-coefficient", "all coefficients are zero")
    return make_family(N, M, cs / nrm, **kwargs)


def family_phases(family: SymmetricFamily, k: int) -> np.ndarray:
    """exp(i 2 pi l k / N) for l = 0..M."""
    ls = np.arange(family.M + 1)
    return np.exp(2j * np.pi * ls * k / family.N)


def family_states(family: SymmetricFamily, basis: FockBasis, labels) -> list[StateVector]:
    """Embed the family into a Fock basis via reference-state indices.

    labels[l] is the flat basis index playing the role of |u_l>.  The
    indices must be distinct; orthonormality is then automatic.
    """
    labels = tuple(int(i) for i in labels)
    if len(labels) != family.M + 1:
        raise ValueError(f"need {family.M + 1} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError("reference labels must be distinct basis indices")
    if any(not 0 <= i < basis.dimension for i in labels):
        raise ValueError("reference label out of basis range")
    states = []
    for k in range(1, family.N + 1):
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[list(labels)] = np.asarray(family.coeffs) * family_phases(family, k)
        states.append(StateVector(basis, amps, normalized=True))
    return states


def single_mode_embedding(family: SymmetricFamily) -> tuple[FockBasis, tuple[int, ...]]:
    """Generic embedding |u_l> = |l> of one mode truncated at M photons."""
    basis = build_basis(1, family.M, ())
    labels = tuple(basis.index_of((n,)) for n in range(family.M + 1))
    return basis, labels


def two_photon_labels(basis: FockBasis) -> tuple[int, int, int]:
    """Indices of |2,0>, |1,1>, |0,2> (all ancillas in level 0)."""
    if basis.mode_count != 2 or basis.max_total_photons < 2:
        raise ValueError("need a two-mode basis holding at least two photons")
    zeros = (0,) * len(basis.ancilla_dims)
    return (
        basis.index_of((2, 0), zeros),
        basis.index_of((1, 1), zeros),
        basis.index_of((0, 2), zeros),
    )


def two_photon_basis(basis: FockBasis) -> tuple[StateVector, StateVector, StateVector]:
    """Reference states u_0 = |2,0>, u_1 = |1,1>, u_2 = |0,2>.

    Built by applying normalized creation monomials to the vacuum rather
    than by direct index placement, so the ladder conventions are exercised.
    """
    if basis.mode_count != 2 or basis.max_total_photons < 2:
        raise ValueError("need a two-mode basis holding at least two photons")
    zeros = (0,) * len(basis.ancilla_dims)
    vac = basis_state(basis, (0, 0), zeros)
    a1d = creation_matrix(basis, 0)
    a2d = creation_matrix(basis, 1)
    u0 = a1d.apply(a1d.apply(vac))  # a1^dag^2 |vac> = sqrt(2) |2,0>
    u1 = a2d.apply(a1d.apply(vac))
    u2 = a2d.apply(a2d.apply(vac))
    return (
        u0.normalized_copy(),
        u1.normalized_copy(),
        u2.normalized_copy(),
    )


def coincident_family(N: int) -> SymmetricFamily:
    """Two-photon family from a coincident pair split with phase 2 pi k / N.

    b_k^dag = (a_1^dag + e^{i 2 pi k / N} a_2^dag) / sqrt(2) prepared as
    2^{-1/2} (b_k^dag)^2 |vac> gives c = (1/2, 1/sqrt(2), 1/2) over the
    two-photon reference states.  The ladder-operator construction is
    re-derived here and compared against the closed coefficients.
    """
    if N < 3:
        raise ValueError(f"the two-photon family needs N >= 3, got {N}")
    family = make_family(N, 2, COINCIDENT_COEFFS)

    basis = build_basis(2, 2, ())
    labels = two_photon_labels(basis)
    expected = family_states(family, basis, labels)
    vac = basis_state(basis, (0, 0))
    a1d = creation_matrix(basis, 0).matrix
    a2d = creation_matrix(basis, 1).matrix
    for k in range(1, N + 1):
        bkd = (a1d + np.exp(2j * np.pi * k / N) * a2d) / np.sqrt(2.0)
        amps = (bkd @ (bkd @ vac.amplitudes)) / np.sqrt(2.0)
        dev = np.max(np.abs(amps - expected[k - 1].amplitudes))
        if dev > 1e-12:
            raise RuntimeError(
                f"ladder construction of the coincident family broke at k = {k}: dev = {dev:.3e}"
            )
    return family


def cyclic_shift_operator(family: SymmetricFamily, basis: FockBasis, labels) -> Operator:
    """Unitary with |psi_k> -> |psi_{k+1}>: phase e^{i 2 pi l / N} on |u_l>."""
    labels = tuple(int(i) for i in labels)
    diag = np.ones(basis.dimension, dtype=complex)
    for l, idx in enumerate(labels):
        diag[idx] = np.exp(2j * np.pi * l / family.N)
    return Operator.unitary(basis, np.diag(diag))


def family_to_json(family: SymmetricFamily) -> dict:
    return {
        "N": family.N,
        "M": family.M,
        "coeffs": [[z.real, z.imag] for z in family.coeffs],
    }


def family_from_json(payload: dict) -> SymmetricFamily:
    coeffs = [complex(re, im) for re, im in payload["coeffs"]]
    return make_family(int(payload["N"]), int(payload["M"]), coeffs)
