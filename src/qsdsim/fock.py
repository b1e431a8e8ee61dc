"""Truncated multimode Fock bases and dense matrices over them.

The Hilbert space is a direct sum of photon-number sectors, truncated at a
total photon number, optionally tensored with extra finite-level subsystems
(detector atoms, up-converted modes).  Dimensions in this package stay below
~50, so everything is dense.  States and operators are plain ndarrays: a
state is a length-`dimension` amplitude vector (a family is an
(N, dimension) array, row k - 1 for member k), an operator a
(dimension, dimension) matrix.  FockBasis gives the index of each basis
state; the functions here build the ladder and ancilla matrices and
pseudo-inverse square roots.

Basis ordering convention (load-bearing for serialized vectors): occupation
tuples are enumerated by total photon number first, then lexicographically
within each number sector.  With ancillas, the flat index is

    index = occupation_index * prod(ancilla_dims) + ravel(ancilla levels)

with ancilla levels raveled row-major (first ancilla slowest).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10


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


def annihilation_matrix(basis: FockBasis, mode: int) -> np.ndarray:
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
    return np.kron(field, np.eye(basis.ancilla_size))


def ancilla_transition_matrix(basis: FockBasis, which: int, upper: int, lower: int) -> np.ndarray:
    """|upper><lower| on ancilla factor `which`, identity elsewhere.

    Raises ValueError for an ancilla index or a level outside the basis.
    """
    dims = basis.ancilla_dims
    if not 0 <= which < len(dims):
        raise ValueError(f"ancilla index {which} out of range; basis has {len(dims)} ancillas")
    if not (0 <= upper < dims[which] and 0 <= lower < dims[which]):
        raise ValueError(
            f"ancilla levels ({upper}, {lower}) out of range for dimension {dims[which]}"
        )
    local = np.zeros((dims[which], dims[which]), dtype=complex)
    local[upper, lower] = 1.0
    mat = np.eye(len(basis.occupations), dtype=complex)
    for pos, dim in enumerate(dims):
        mat = np.kron(mat, local if pos == which else np.eye(dim))
    return mat


def inv_sqrt_psd(A: np.ndarray, rank_threshold: float = 1e-12) -> np.ndarray:
    """Pseudo-inverse square root R of a Hermitian PSD matrix A.

    Eigenvalues at or below rank_threshold * (largest eigenvalue) are
    treated as exact zeros.  R satisfies R A R = projector onto the
    support of A.
    """
    dev = np.max(np.abs(A - A.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"inv_sqrt_psd needs a Hermitian input; max|A - A^dag| = {dev:.3e}")
    w, V = np.linalg.eigh(A)
    top = float(w[-1]) if w.size else 0.0
    if w.size and w[0] < -HERMITICITY_TOL * max(1.0, top):
        raise ValueError(f"input is not PSD: smallest eigenvalue {w[0]:.3e}")
    keep = w > rank_threshold * max(top, 0.0)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    return (V * inv) @ V.conj().T
