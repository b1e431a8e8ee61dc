"""The cost laws of a symmetric family, checked as exponents of tracemalloc peaks.

A family's reports need O(N) memory, and the atom's average costs the same
at any Gamma.  A traced peak is deterministic where a timing is not, so the
exponent of the peak fitted in N (in 1/Gamma for the atom) is a tier-1 check.
Each measured call runs once untraced first, because a first call in a
process peaks higher: the atom peaked at 2.4 KiB on its first call and at
1.8 KiB on every later one.
"""

import math

import numpy as np
import pytest

from qsdsim.channels import atom_excitation_avg, detector_atom_model
from qsdsim.cli import _family_validate
from qsdsim.families import coincident_family, family_states, make_family, two_photon_labels
from qsdsim.fock import build_basis
from qsdsim.minerror import min_error_report
from qsdsim.multiport import multiport_report
from reference import peak_bytes

SIZES = [2**p for p in range(12, 17)]
# each report at N, its family built inside the traced call
LINEAR_IN_N = {
    "min_error_report": lambda N: min_error_report(make_family(N, 3, np.full(4, 0.5))),
    "multiport_report": lambda N: multiport_report(make_family(N, 1, (0.8, 0.6))),
    "coincident_family": coincident_family,
    "family_validate": lambda N: _family_validate(make_family(N, N - 1, np.full(N, N**-0.5)), None),
}


def _peak_exponents(call, xs):
    """The exponent of call(x)'s traced peak in x, fitted over xs[: i + 1], for i = 1, 2, ...

    Each fit is yielded as soon as its size is measured, so a call whose
    peak grows as N^2 fails at the second size, not after allocating
    32 GiB at N = 2^16.
    """
    call(xs[0])
    logs = []
    for x in xs:
        logs.append((math.log(x), math.log(peak_bytes(call, x)[1])))
        if len(logs) > 1:
            yield np.polyfit(*zip(*logs), 1)[0]


@pytest.mark.parametrize("name", LINEAR_IN_N)
def test_peak_grows_at_most_linearly_in_n(name):
    # measured: min_error_report 0.16 -> 2.0 MiB and multiport_report 0.45 -> 5.1 MiB
    # from N = 2^12 to 2^16, exponents 0.90 and 0.89; the family validate payload at
    # M = N - 1 exponent 1.00; the coincident family 1.7 KiB at every N
    for exponent in _peak_exponents(LINEAR_IN_N[name], SIZES):
        assert exponent <= 1.1


def test_atom_peak_is_flat_in_gamma():
    # the same 1.8 KiB from Gamma = 1 to 1e-12: no grid or series that grows as Gamma -> 0
    family = coincident_family(3)
    basis = build_basis(2, 2)
    field = family_states(family, basis, two_photon_labels(basis))[0]

    def average(inverse_gamma):
        return atom_excitation_avg(detector_atom_model(family, 1, 1.0, 1.0 / inverse_gamma), field)

    for exponent in _peak_exponents(average, [10.0**e for e in range(0, 13, 3)]):
        assert abs(exponent) <= 0.01
