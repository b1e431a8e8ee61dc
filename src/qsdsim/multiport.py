"""Linear multiport realizing the square-root measurement on one photon.

A single photon shared between two modes with relative phase 2 pi k / N,

    |psi_k> = c_0 |1, 0, ...> + c_1 e^{i 2 pi k / N} |0, 1, 0, ...>,

is discriminated optimally by an N-port interferometer followed by photon
counting: the transfer matrix below sends detection state mu_j to output
port j, so a click at port j implements outcome j of the square-root
measurement.  Column 1 carries the coefficient phase difference; columns
r >= 2 form the conjugate discrete-Fourier pattern, the conjugates of the
N roots of `families.roots_of_unity`.  The multiport is held as those N
roots: its unitarity bound is a closed form in `families.root_error`, the
proven distance of that table from the exact roots, and the click table,
which depends on k - j only, is the circulant of the column port N gives.
A report holds both as their generators: the transfer matrix as the N
roots and the column-1 constant (`serialize.Fourier`), the click table as
its one row (`serialize.Circulant`), so each is encoded from its N + 1 or
N distinct values and neither builds an N x N array.  The unitarity and
click-table checks take their thresholds from `tolerances`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .families import SymmetricFamily, phase_matrix, root_error, roots_of_unity
from .minerror import success_probability_analytic
from .serialize import Circulant, Fourier
from .tolerances import CLOSED_FORM_TOL, UNITARITY_TOL, require_small


@dataclass(frozen=True)
class MultiportUnitary:
    """N x N transfer matrix from input modes to output (detector) ports, held as N roots.

    Row j (1-based) collects at detector j.  Only the first two columns are
    fed by the single-photon family; the rest complete the unitary.  Column
    1 is the constant e^{i phase_offset} / sqrt(N); past it, U_{jr} is
    roots[(j (r - 1) - 1) mod N], where roots[m - 1] stands for
    e^{-i 2 pi m / N} / sqrt(N).  N is len(roots), and `matrix` gives the
    N + 1 distinct entries in the layout of `serialize.Fourier`.
    build_multiport is the constructor: it proves unitarity and makes roots
    read-only.
    """

    roots: np.ndarray
    phase_offset: float

    @property
    def N(self) -> int:
        return len(self.roots)

    @property
    def _column_0(self) -> complex:
        return np.exp(1j * self.phase_offset) / np.sqrt(self.N)

    @property
    def matrix(self) -> Fourier:
        """The transfer matrix as its N + 1 distinct [re, im] entries: the rolled roots,
        roots[(m - 1) mod N] at row m, then the column-1 constant at row N."""
        values = np.append(np.roll(self.roots, 1), self._column_0)
        return Fourier(values.view(np.float64).reshape(self.N + 1, 2))


def build_multiport(N: int, arg_c0: float = 0.0, arg_c1: float = 0.0) -> MultiportUnitary:
    """Transfer matrix U_{j1} = e^{i (arg c_1 - arg c_0)} / sqrt(N),
    U_{jr} = e^{-i 2 pi j (r - 1) / N} / sqrt(N) for r >= 2.

    The column-1 phase compensates the coefficient phase difference so a
    click at port j corresponds to detection state mu_j for any complex
    (c_0, c_1) pair.  For r >= 2, U_{jr} depends on j (r - 1) mod N only:
    the N roots e^{-i 2 pi m / N} / sqrt(N), m = 1..N, gathered from the
    family roots at (-m) mod N, are all the multiport holds, so entries
    equal in exact arithmetic are equal in bits (and U_{N2} is exactly real).

    Unitarity is proved in O(N log N) before any root is gathered.  The
    gathered roots are within root_error(N) of the exact ones in 2-norm,
    and the 1/sqrt(N) scaling rounds each by at most 2 eps of its modulus.
    Column r >= 2 takes each root at most N times, so its error has 2-norm
    at most sqrt(N) d with d = (root_error(N) (1 + 2 eps) +
    ||e^{i phase}| - 1|) / sqrt(N) + 2 eps, which bounds column 1's error
    as well, whose phase leaves it orthogonal to the rest.  With
    orthonormal exact columns, max|U^H U - I| <= 2 sqrt(N) d + N d^2,
    which must not exceed UNITARITY_TOL (ValueError).  A NaN or infinite
    root or phase offset makes the bound NaN or inf, which fails.
    """
    eps = sys.float_info.epsilon
    phase_offset = float(arg_c1 - arg_c0)
    modulus_error = abs(abs(np.exp(1j * phase_offset)) - 1.0)
    d = (root_error(N) * (1.0 + 2 * eps) + modulus_error) / math.sqrt(N) + 2 * eps
    message = "transfer matrix is not the closed-form unitary: |U^H U - I| bound {residual:.3e}"
    require_small(2.0 * math.sqrt(N) * d + N * d * d, UNITARITY_TOL, message, ValueError)
    roots = roots_of_unity(N)[-np.arange(1, N + 1) % N] / np.sqrt(N)
    roots.setflags(write=False)
    return MultiportUnitary(roots, phase_offset)


class MultiportMinError(NamedTuple):
    """p_correct, the click table p(j|k) (row k, column j) as its row, the multiport."""

    p_correct: float
    table: Circulant
    multiport: MultiportUnitary


def min_error_single_photon(family: SymmetricFamily) -> MultiportMinError:
    """Run every family member through the matched multiport.

    Member k enters as the mode amplitudes (c_0, c_1 e^{i 2 pi k / N}, 0,
    ..., 0), so only the first two columns of the transfer matrix act.
    p(j|k) depends on k - j only, so the click table is the circulant of
    its column N, which port N's two entries (U_{N1}, U_{N2}) give for all
    members in one (N, 2) x (2,) product.  The diagonal mean of the click
    table is the minimum-error success probability (|c_0| + |c_1|)^2 / N;
    this equality is asserted here since both sides are exact.
    """
    if family.M != 1:
        raise ValueError("the multiport takes single-photon (M = 1) families")
    mp = build_multiport(family.N, *np.angle(family.coeffs))
    inputs = np.asarray(family.coeffs) * phase_matrix(family)
    table = Circulant(np.abs(inputs @ np.array([mp._column_0, mp.roots[-1]])) ** 2)
    p_correct = float(np.mean(np.full(family.N, table.row[-1])))  # the diagonal, row[-1] N times
    dev = abs(p_correct - success_probability_analytic(family))
    require_small(dev, CLOSED_FORM_TOL, "multiport diagonal is off P_C by {residual:.3e}")
    return MultiportMinError(p_correct, table, mp)


def multiport_report(family: SymmetricFamily) -> dict:
    """JSON-ready summary: transfer matrix, click table, success probability."""
    result = min_error_single_photon(family)
    mp = result.multiport
    return {
        "N": family.N,
        "phase_offset": mp.phase_offset,
        "matrix": mp.matrix,
        "success_probability": result.p_correct,
        "click_table": result.table,
    }
