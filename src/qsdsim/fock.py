"""Truncated multimode Fock bases and dense matrices over them.

The Hilbert space is a direct sum of photon-number sectors, truncated at a
total photon number, optionally tensored with extra finite-level subsystems
(detector atoms, up-converted modes).  Dimensions in this package stay below
~50, so everything is dense.  States and operators are plain ndarrays: a
state is a length-`dimension` amplitude vector (a family is an
(N, dimension) array, row k - 1 for member k), an operator a
(dimension, dimension) matrix.  FockBasis gives the index of each basis
state; the functions here build the ladder and ancilla matrices.

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
        return self.occupations.index(tuple(occupation))

    def index_of(self, occupation, ancilla_levels=()) -> int:
        """Flat index of |occupation> x |ancilla_levels>, one in-range level per ancilla."""
        flat = 0
        for lev, dim in zip(ancilla_levels, self.ancilla_dims):
            flat = flat * dim + lev
        return self.occupation_index(occupation) * self.ancilla_size + flat


def build_basis(mode_count: int, max_total_photons: int, ancilla_dims=()) -> FockBasis:
    """Enumerate all occupation tuples with total <= max_total_photons.

    Ordering is by total photon number, then lexicographic by tuple, so two
    constructions with the same parameters are identical.
    """
    dims = tuple(int(d) for d in ancilla_dims)
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

    `which` indexes basis.ancilla_dims, and both levels lie below that
    factor's dimension.
    """
    dims = basis.ancilla_dims
    local = np.zeros((dims[which], dims[which]), dtype=complex)
    local[upper, lower] = 1.0
    mat = np.eye(len(basis.occupations), dtype=complex)
    for pos, dim in enumerate(dims):
        mat = np.kron(mat, local if pos == which else np.eye(dim))
    return mat
