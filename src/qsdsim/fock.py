"""Dense complex linear algebra over truncated multimode Fock bases.

The Hilbert space is a direct sum of photon-number sectors, truncated at a
total photon number, optionally tensored with extra finite-level subsystems
(detector atoms, up-converted modes).  Dimensions in this package stay below
~50, so everything is dense and eigendecomposition-based.

Basis ordering convention (load-bearing for serialized vectors): occupation
tuples are enumerated by total photon number first, then lexicographically
within each number sector.  With ancillas, the flat index is

    index = occupation_index * prod(ancilla_dims) + ravel(ancilla levels)

with ancilla levels raveled row-major (first ancilla slowest).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-9


@dataclass(frozen=True)
class FockBasis:
    """Enumerated occupation-number basis for a small multimode field.

    Attributes:
        mode_count: number of bosonic modes (>= 1).
        max_total_photons: truncation of the total photon number (>= 0).
        occupations: ordered tuple of occupation tuples, one entry per mode.
        ancilla_dims: dimensions of extra finite-level tensor factors.
    """

    mode_count: int
    max_total_photons: int
    occupations: tuple[tuple[int, ...], ...]
    ancilla_dims: tuple[int, ...] = ()

    @property
    def ancilla_size(self) -> int:
        return int(np.prod(self.ancilla_dims, dtype=int)) if self.ancilla_dims else 1

    @property
    def dimension(self) -> int:
        return len(self.occupations) * self.ancilla_size

    def occupation_index(self, occupation: tuple[int, ...]) -> int:
        """Position of an occupation tuple in the enumeration."""
        try:
            return self.occupations.index(tuple(occupation))
        except ValueError:
            raise KeyError(f"occupation {occupation} not in basis") from None

    def index_of(self, occupation, ancilla_levels=()) -> int:
        """Flat index of |occupation> x |ancilla_levels>."""
        levels = tuple(ancilla_levels)
        if len(levels) != len(self.ancilla_dims):
            raise ValueError(
                f"expected {len(self.ancilla_dims)} ancilla levels, got {len(levels)}"
            )
        flat = 0
        for lev, dim in zip(levels, self.ancilla_dims):
            if not 0 <= lev < dim:
                raise ValueError(f"ancilla level {lev} out of range for dim {dim}")
            flat = flat * dim + lev
        return self.occupation_index(occupation) * self.ancilla_size + flat


def build_basis(mode_count: int, max_total_photons: int, ancilla_dims=()) -> FockBasis:
    """Enumerate all occupation tuples with total <= max_total_photons.

    Ordering is by total photon number, then lexicographic by tuple, so two
    constructions with the same parameters are identical.
    """
    if mode_count < 1:
        raise ValueError("mode_count must be >= 1")
    if max_total_photons < 0:
        raise ValueError("max_total_photons must be >= 0")
    dims = tuple(int(d) for d in ancilla_dims)
    if any(d < 1 for d in dims):
        raise ValueError("ancilla dimensions must be >= 1")
    occs = [
        t
        for t in itertools.product(range(max_total_photons + 1), repeat=mode_count)
        if sum(t) <= max_total_photons
    ]
    occs.sort(key=lambda t: (sum(t), t))
    return FockBasis(mode_count, max_total_photons, tuple(occs), dims)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a FockBasis.

    `normalized=True` asserts unit norm; unnormalized vectors (conditioned
    branches, raw ladder-operator images) carry normalized=False.
    """

    basis: FockBasis
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != self.basis.dimension:
            raise ValueError(
                f"amplitude length {amps.shape[0]} != basis dimension {self.basis.dimension}"
            )
        if self.normalized:
            nrm = np.linalg.norm(amps)
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state flagged normalized but |norm - 1| = {abs(nrm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.basis is not self.basis and other.basis != self.basis:
            raise ValueError("states live on different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def state_from_amplitudes(basis: FockBasis, amplitudes) -> StateVector:
    """Wrap raw amplitudes, auto-detecting the normalized flag."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(amps)
    return StateVector(basis, amps, normalized=abs(nrm - 1.0) <= NORM_TOL)


def basis_state(basis: FockBasis, occupation, ancilla_levels=()) -> StateVector:
    """Unit vector |occupation> x |ancilla_levels>."""
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[basis.index_of(occupation, ancilla_levels)] = 1.0
    return StateVector(basis, vec, normalized=True)


@dataclass(frozen=True)
class Operator:
    """Square complex matrix over a FockBasis with a declared kind tag.

    kind "hermitian" and "unitary" are verified at construction to the
    module tolerances; "general" carries no constraint.
    """

    basis: FockBasis
    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dimension
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        if self.kind == "hermitian":
            dev = np.max(np.abs(mat - mat.conj().T))
            if dev > HERMITICITY_TOL:
                raise ValueError(f"hermitian kind violated: max|A - A^dag| = {dev:.3e}")
        elif self.kind == "unitary":
            dev = np.max(np.abs(mat.conj().T @ mat - np.eye(d)))
            if dev > UNITARITY_TOL:
                raise ValueError(f"unitary kind violated: max|A^dag A - I| = {dev:.3e}")
        elif self.kind != "general":
            raise ValueError(f"unknown operator kind {self.kind!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def hermitian(cls, basis: FockBasis, matrix) -> "Operator":
        return cls(basis, matrix, kind="hermitian")

    @classmethod
    def unitary(cls, basis: FockBasis, matrix) -> "Operator":
        return cls(basis, matrix, kind="unitary")

    @classmethod
    def general(cls, basis: FockBasis, matrix) -> "Operator":
        return cls(basis, matrix, kind="general")

    def dagger(self) -> "Operator":
        kind = self.kind if self.kind in ("hermitian", "unitary") else "general"
        return Operator(self.basis, self.matrix.conj().T, kind=kind)

    def apply(self, state: StateVector) -> StateVector:
        """Apply to a state; the result's normalized flag is auto-detected."""
        if state.basis != self.basis:
            raise ValueError("operator and state bases differ")
        return state_from_amplitudes(self.basis, self.matrix @ state.amplitudes)

    def __matmul__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if other.basis != self.basis:
            raise ValueError("operator bases differ")
        kind = "unitary" if self.kind == other.kind == "unitary" else "general"
        return Operator(self.basis, self.matrix @ other.matrix, kind=kind)


def annihilation_matrix(basis: FockBasis, mode: int) -> Operator:
    """Bosonic annihilation operator for one mode (0-based index).

    <n - e_mode| a |n> = sqrt(n_mode); identity on all ancilla factors.
    Transitions out of the truncated basis are dropped, so a^dag restricted
    to sectors below the cutoff still satisfies [a, a^dag] = 1.
    """
    if not 0 <= mode < basis.mode_count:
        raise ValueError(f"mode {mode} out of range for {basis.mode_count} modes")
    n_occ = len(basis.occupations)
    field = np.zeros((n_occ, n_occ), dtype=complex)
    for col, occ in enumerate(basis.occupations):
        if occ[mode] > 0:
            target = list(occ)
            target[mode] -= 1
            field[basis.occupation_index(tuple(target)), col] = np.sqrt(occ[mode])
    return Operator(basis, np.kron(field, np.eye(basis.ancilla_size)), kind="general")


def creation_matrix(basis: FockBasis, mode: int) -> Operator:
    return annihilation_matrix(basis, mode).dagger()


def _ancilla_embedding(basis: FockBasis, which: int, local: np.ndarray) -> np.ndarray:
    """kron(I_field, I, ..., local, ..., I) for ancilla factor `which`."""
    if not 0 <= which < len(basis.ancilla_dims):
        raise ValueError(
            f"ancilla index {which} out of range; basis has {len(basis.ancilla_dims)} ancillas"
        )
    mat = np.eye(len(basis.occupations), dtype=complex)
    for pos, dim in enumerate(basis.ancilla_dims):
        mat = np.kron(mat, local if pos == which else np.eye(dim))
    return mat


def ancilla_lowering_matrix(basis: FockBasis, which: int) -> Operator:
    """Truncated bosonic lowering operator on one ancilla factor."""
    dim = basis.ancilla_dims[which] if which < len(basis.ancilla_dims) else None
    if dim is None:
        raise ValueError(f"no ancilla at index {which}")
    local = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    return Operator(basis, _ancilla_embedding(basis, which, local), kind="general")


def ancilla_transition_matrix(basis: FockBasis, which: int, upper: int, lower: int) -> Operator:
    """|upper><lower| on one ancilla factor, identity elsewhere."""
    dim = basis.ancilla_dims[which]
    local = np.zeros((dim, dim), dtype=complex)
    local[upper, lower] = 1.0
    return Operator(basis, _ancilla_embedding(basis, which, local), kind="general")


def matrix_exponential(A: Operator, scalar: complex = 1.0) -> Operator:
    """exp(scalar * A) for a Hermitian or anti-Hermitian exponent scalar * A.

    Both go through a Hermitian eigendecomposition, which also certifies
    unitarity of exp(-i H t).  Every exponent in this package is one of the
    two; any other exponent raises ValueError.
    """
    X = complex(scalar) * A.matrix
    scale = max(1.0, float(np.max(np.abs(X))) if X.size else 0.0)
    if np.max(np.abs(X + X.conj().T)) <= 1e-12 * scale:
        # X = -iH with H Hermitian; exp(X) = V exp(-i w) V^dag
        w, V = np.linalg.eigh(1j * X)
        mat = (V * np.exp(-1j * w)) @ V.conj().T
        return Operator(A.basis, mat, kind="unitary")
    if np.max(np.abs(X - X.conj().T)) <= 1e-12 * scale:
        w, V = np.linalg.eigh(X)
        mat = (V * np.exp(w)) @ V.conj().T
        return Operator(A.basis, mat, kind="hermitian")
    raise ValueError("matrix_exponential needs a Hermitian or anti-Hermitian exponent")


class InverseSqrtResult(NamedTuple):
    operator: "Operator"
    effective_rank: int


def inv_sqrt_psd(A: Operator, rank_threshold: float = 1e-12) -> InverseSqrtResult:
    """Pseudo-inverse square root of a Hermitian PSD operator.

    Eigenvalues at or below rank_threshold * (largest eigenvalue) are
    treated as exact zeros.  The result R satisfies R A R = projector onto
    the support of A.
    """
    mat = A.matrix
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"inv_sqrt_psd needs a Hermitian input; max|A - A^dag| = {dev:.3e}")
    w, V = np.linalg.eigh(mat)
    top = float(w[-1]) if w.size else 0.0
    if w.size and w[0] < -HERMITICITY_TOL * max(1.0, top):
        raise ValueError(f"input is not PSD: smallest eigenvalue {w[0]:.3e}")
    keep = w > rank_threshold * max(top, 0.0)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    R = (V * inv) @ V.conj().T
    return InverseSqrtResult(Operator.hermitian(A.basis, R), int(np.count_nonzero(keep)))
