"""Truncated multimode Fock bases: the index of every basis state.

The Hilbert space is a direct sum of photon-number sectors, truncated at a
total photon number, optionally tensored with extra finite-level subsystems.
States are plain ndarrays: a state is a length-`dimension` amplitude
vector (a family is an (N, dimension) array, row k - 1 for member k).
FockBasis gives the index of each basis state.  The package builds no
operator on these bases: the channels and the atom act only on the few
amplitudes they touch.

Basis ordering convention (load-bearing for serialized vectors): occupation
tuples are enumerated by total photon number first, then lexicographically
within each number sector.  With ancillas, the flat index is

    index = occupation_index * prod(ancilla_dims) + ravel(ancilla levels)

with ancilla levels raveled row-major (first ancilla slowest).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FockBasis:
    """Enumerated occupation-number basis for a small multimode field.

    Attributes:
        occupations: ordered tuple of occupation tuples, one entry per mode.
        ancilla_dims: dimensions of extra finite-level tensor factors.
    """

    occupations: tuple[tuple[int, ...], ...]
    ancilla_dims: tuple[int, ...] = ()

    @property
    def ancilla_size(self) -> int:
        return math.prod(self.ancilla_dims)

    @property
    def dimension(self) -> int:
        return len(self.occupations) * self.ancilla_size

    def occupation_index(self, occupation: tuple[int, ...]) -> int:
        """Position of an occupation tuple in the enumeration."""
        return self.occupations.index(tuple(occupation))

    def index_of(self, occupation) -> int:
        """Flat index of |occupation> with every ancilla in level 0."""
        return self.occupation_index(occupation) * self.ancilla_size


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
    return FockBasis(tuple(occs), dims)

