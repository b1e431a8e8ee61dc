"""Cyclic families of nonorthogonal pure states.

A family is defined by N >= M + 1 states

    |psi_k> = sum_{l=0}^{M} c_l exp(i 2 pi l k / N) |u_l>,   k = 1..N,

over an orthonormal reference set {|u_l>}, with every c_l nonzero and
sum |c_l|^2 = 1.  The states are connected by the cyclic shift
|psi_k> -> |psi_{k+1}> implemented by phase rotations of the |u_l>.  Each
phase e^{i 2 pi l k / N} is entry (l k) mod N of `roots_of_unity(N)`, so
its error does not grow with M, and `root_error(N)` is the one proof of
that table: a bound on its 2-norm distance from the exact roots, from one
length-N FFT, from which the detection-state and multiport checks derive
theirs.

The physically central instance here is the two-photon family produced by
interfering a photon pair coincident in a dual-rail mode: equal splitting
with a relative phase 2 pi k / N gives coefficients (1/2, 1/sqrt(2), 1/2)
over |2,0>, |1,1>, |0,2>, constants here (COINCIDENT_COEFFS).  `make_family`
checks c against `tolerances` and keeps c_l, |c_l| and c_l / |c_l| as
read-only arrays, which no other layer derives again, and `reference_rows`
alone builds the member rows c_l e^{i 2 pi l k / N} from them.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from typing import NamedTuple

import numpy as np

from .fock import FockBasis, build_basis
from .tolerances import FFT_EPS_PER_LEVEL, NORMALIZATION_TOL, UNIFORM_MODULI_TOL

COINCIDENT_COEFFS = (0.5 + 0j, 1.0 / np.sqrt(2.0) + 0j, 0.5 + 0j)


class FamilyError(ValueError):
    """Family parameter validation failure, tagged with a stable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def read_only(array: np.ndarray) -> np.ndarray:
    """array itself, flagged read-only: a write to it raises ValueError."""
    array.setflags(write=False)
    return array


class SymmetricFamily(NamedTuple):
    """Validated N, M and c_0..c_M of a cyclic family, with its moduli and unit phases.

    coeffs holds c_l, moduli |c_l| and unit_phases c_l / |c_l|: read-only arrays
    built once by make_family.  A family cannot be hashed; == between two may raise.
    """

    N: int
    M: int
    coeffs: np.ndarray
    moduli: np.ndarray
    unit_phases: np.ndarray

    @property
    def linearly_independent(self) -> bool:
        """True when N == M + 1 (states span an N-dim space)."""
        return self.N == self.M + 1


def make_family(N: int, M: int, coeffs, protocol_ordering: bool = False) -> SymmetricFamily:
    """Validate parameters and build a SymmetricFamily.

    N and M are integers, FamilyError("non-integer-size") otherwise, and
    coeffs holds c_0..c_M.  The ordering |c_M| <= |c_0|, |c_1| matters
    only to the two-photon absorption / up-conversion schedules, which
    reject a family that violates it beyond a relative UNIFORM_MODULI_TOL
    with ScheduleError.  With protocol_ordering=True it is enforced here as
    well, as FamilyError("coefficient-ordering"); otherwise it is not checked.
    """
    try:
        N, M = operator.index(N), operator.index(M)
    except TypeError:
        raise FamilyError("non-integer-size", f"N = {N!r} and M = {M!r} must be integers") from None
    cs = np.array([complex(c) for c in coeffs], dtype=complex)
    if len(cs) != M + 1:
        raise FamilyError(
            "coeff-count", f"expected M + 1 = {M + 1} coefficients, got {len(cs)}"
        )
    if N < M + 1:
        raise FamilyError("too-few-states", f"need N >= M + 1, got N = {N}, M = {M}")
    mags = np.abs(cs)
    if not np.all(np.isfinite(mags)):
        bad = int(np.argmin(np.isfinite(mags)))
        raise FamilyError(
            "non-finite-coefficient", f"coefficient c_{bad} = {complex(cs[bad])} is not finite"
        )
    tiny = np.finfo(float).tiny
    if np.any(mags < tiny):
        # a subnormal modulus has lost its relative precision; its phase c / |c| is noise
        bad = int(np.argmin(mags))
        c = complex(cs[bad])
        detail = "is zero" if mags[bad] == 0.0 else f"= {c} is below {tiny:.4e} in modulus"
        raise FamilyError("zero-coefficient", f"coefficient c_{bad} {detail}")
    with np.errstate(over="ignore"):  # a modulus above 1e154 sums to inf: not normalized
        total = float(np.sum(mags**2))
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise FamilyError(
            "not-normalized", f"sum |c_l|^2 = {total:.12f} differs from 1 beyond tolerance"
        )
    if protocol_ordering and M >= 2 and mags[-1] > (1.0 + UNIFORM_MODULI_TOL) * min(mags[:2]):
        raise FamilyError(
            "coefficient-ordering",
            f"|c_{M}| = {float(mags[-1])!r} exceeds "
            f"min(|c_0|, |c_1|) = {float(min(mags[:2]))!r}; "
            "the absorption/up-conversion schedules need |c_M| to be smallest",
        )
    return SymmetricFamily(N, M, read_only(cs), read_only(mags), read_only(cs / mags))


def roots_of_unity(N: int) -> np.ndarray:
    """The N roots e^{i 2 pi m / N}, m = 0..N - 1, from which every family phase is taken."""
    return np.exp(2j * np.pi * np.arange(N) / N)


def root_error(N: int) -> float:
    """A proven bound on the 2-norm distance of roots_of_unity(N) from the exact roots.

    The unitary DFT keeps 2-norms and takes the exact roots to sqrt(N) at
    index 1 mod N and zero elsewhere, so the distance is at most that of
    the table's computed FFT from this image plus the FFT's own rounding,
    FFT_EPS_PER_LEVEL log2 N eps times the table's 2-norm.  A NaN or
    infinite root makes the bound NaN or inf, without a warning.
    """
    roots = roots_of_unity(N)
    with np.errstate(invalid="ignore"):
        image = np.fft.fft(roots, norm="ortho")
        image[1 % N] -= np.sqrt(N)
        fft_error = FFT_EPS_PER_LEVEL * math.log2(N) * sys.float_info.epsilon * np.linalg.norm(roots)
        return float(np.linalg.norm(image) + fft_error)


def phase_matrix(family: SymmetricFamily) -> np.ndarray:
    """N x (M + 1) array of exp(i 2 pi l k / N): row k - 1 holds member k's phases.

    Entry (k - 1, l) is roots_of_unity(N)[(l k) mod N], so entries equal in
    exact arithmetic are equal in bits.  The states are this matrix times
    c_l, the square-root detection states times c_l / |c_l| / sqrt N.
    """
    exponents = np.arange(1, family.N + 1)[:, None] * np.arange(family.M + 1) % family.N
    return roots_of_unity(family.N)[exponents]


def reference_rows(family: SymmetricFamily) -> np.ndarray:
    """The (N, M + 1) amplitudes c_l e^{i 2 pi l k / N} of the members: row k - 1 is member k."""
    return family.coeffs * phase_matrix(family)


def family_states(family: SymmetricFamily, basis: FockBasis, labels) -> np.ndarray:
    """The members in a Fock basis, (N, dim): reference_rows at the flat indices labels[l] of |u_l>.

    This is the one place a family enters a Fock basis, for the atom's field
    input; every other layer works on the M + 1 amplitudes.
    """
    rows = np.zeros((family.N, basis.dimension), dtype=complex)
    rows[:, list(labels)] = reference_rows(family)
    return rows


def two_photon_labels(basis: FockBasis) -> tuple[int, int, int]:
    """Indices of |2,0>, |1,1>, |0,2> (all ancillas in level 0) in a two-mode, two-photon basis."""
    return tuple(basis.index_of(modes) for modes in ((2, 0), (1, 1), (0, 2)))


@functools.cache
def two_photon_basis() -> tuple[FockBasis, np.ndarray]:
    """(build_basis(2, 2), the read-only index array of its two_photon_labels), once per process.

    The atom takes its field as the 6 amplitudes on this basis, so it reads
    the labels here rather than enumerate the basis on every call.
    """
    basis = build_basis(2, 2)
    return basis, read_only(np.array(two_photon_labels(basis)))


def coincident_family(N: int) -> SymmetricFamily:
    """Two-photon family from a coincident pair split with phase 2 pi k / N.

    b_k^dag = (a_1^dag + e^{i 2 pi k / N} a_2^dag) / sqrt(2) prepared as
    2^{-1/2} (b_k^dag)^2 |vac> gives c = (1/2, 1/sqrt(2), 1/2) over the
    two-photon reference states: (b_k^dag)^2 |vac> = (sqrt(2) |2,0>
    + 2 z |1,1> + sqrt(2) z^2 |0,2>) / 2 with z = e^{i 2 pi k / N}.
    """
    return make_family(N, 2, COINCIDENT_COEFFS)


def family_to_json(family: SymmetricFamily) -> dict:
    return {
        "N": family.N,
        "M": family.M,
        "coeffs": [[z.real, z.imag] for z in family.coeffs.tolist()],
    }
