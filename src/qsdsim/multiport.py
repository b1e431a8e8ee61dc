"""Linear multiport realizing the square-root measurement on one photon.

A single photon shared between two modes with relative phase 2 pi k / N,

    |psi_k> = c_0 |1, 0, ...> + c_1 e^{i 2 pi k / N} |0, 1, 0, ...>,

is discriminated optimally by an N-port interferometer followed by photon
counting: the transfer matrix below sends detection state mu_j to output
port j, so a click at port j implements outcome j of the square-root
measurement.  Column 1 carries the coefficient phase difference; columns
r >= 2 form the conjugate discrete-Fourier pattern, whose entries are N
roots of unity.  The multiport is held as those N roots: its unitarity is
checked with one length-N FFT, and the click table, which depends on
k - j only, is the circulant of the column port N gives.  The unitarity
and click-table checks take their thresholds from `tolerances`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .families import SymmetricFamily, phase_matrix
from .minerror import _circulant, success_probability_analytic
from .tolerances import CLOSED_FORM_TOL, FFT_EPS_PER_LEVEL, UNITARITY_TOL, require_small

# entries of the int64 gather index that `MultiportUnitary.matrix` builds at a time (1 MiB)
_GATHER_BLOCK = 1 << 17


@dataclass(frozen=True)
class MultiportUnitary:
    """N x N transfer matrix from input modes to output (detector) ports, held as N roots.

    Row j (1-based) collects at detector j.  Only the first two columns are
    fed by the single-photon family; the rest complete the unitary.  Column
    1 is the constant e^{i phase_offset} / sqrt(N); past it, U_{jr} is
    roots[(j (r - 1) - 1) mod N], where roots[m - 1] stands for
    e^{-i 2 pi m / N} / sqrt(N).  N is len(roots), and `matrix` builds the
    dense matrix on demand.

    Construction proves unitarity in O(N log N).  Write the roots as exact
    roots plus delta.  Column r >= 2 takes each root at most N times, so its
    error has 2-norm at most sqrt(N) |delta|_2; column 1 is exact up to the
    modulus of its constant, whose phase leaves it orthogonal to the rest.
    With d = |delta|_2 + ||U_{j1}| - 1/sqrt(N)| and orthonormal exact
    columns, max|U^H U - I| <= 2 sqrt(N) d + N d^2, which must not exceed
    UNITARITY_TOL.  The unitary DFT keeps 2-norms and takes the exact roots
    to e^{-i 2 pi / N} at index N - 1, zero elsewhere, so |delta|_2 is at
    most the distance of the roots' computed FFT from that delta plus the
    FFT's own rounding (FFT_EPS_PER_LEVEL).  A NaN root makes the bound NaN, which fails.
    """

    roots: np.ndarray
    phase_offset: float

    def __post_init__(self):
        roots = np.asarray(self.roots, dtype=complex)
        if roots.ndim != 1:
            raise ValueError(f"roots shape {roots.shape} is not (N,)")
        if not math.isfinite(self.phase_offset):
            offset = f"phase offset {self.phase_offset} is not finite"
            raise ValueError(f"transfer matrix is not the closed-form unitary: {offset}")
        N = len(roots)
        image = np.fft.fft(roots, norm="ortho")
        image[-1] -= np.exp(-2j * np.pi / N)
        fft_error = FFT_EPS_PER_LEVEL * math.log2(N) * sys.float_info.epsilon
        d = np.linalg.norm(image) + fft_error + abs(abs(self._column_0) - 1.0 / np.sqrt(N))
        message = "transfer matrix is not the closed-form unitary: |U^H U - I| bound {residual:.3e}"
        require_small(2.0 * np.sqrt(N) * d + N * d**2, UNITARITY_TOL, message, ValueError)
        roots.setflags(write=False)
        object.__setattr__(self, "roots", roots)

    @property
    def N(self) -> int:
        return len(self.roots)

    @property
    def _column_0(self) -> complex:
        return np.exp(1j * self.phase_offset) / np.sqrt(self.N)

    @property
    def matrix(self) -> np.ndarray:
        """The dense transfer matrix, gathered from the roots a block of rows at a time.

        Each block's index takes at most _GATHER_BLOCK entries, so no N x N
        index array is built; column 1 is then set to its constant.
        """
        N = self.N
        rolled = np.roll(self.roots, 1)
        mat = np.empty((N, N), dtype=complex)
        step = max(1, _GATHER_BLOCK // N)
        for start in range(0, N, step):
            # roots[(j (r - 1) - 1) mod N] is the rolled roots at j (r - 1) mod N
            index = np.arange(start + 1, min(start + step, N) + 1)[:, None] * np.arange(N)
            index %= N
            # "clip" (a no-op on these indices) writes to out unbuffered
            rolled.take(index, out=mat[start : start + len(index)], mode="clip")
        mat[:, 0] = self._column_0
        return mat


def build_multiport(N: int, arg_c0: float = 0.0, arg_c1: float = 0.0) -> MultiportUnitary:
    """Transfer matrix U_{j1} = e^{i (arg c_1 - arg c_0)} / sqrt(N),
    U_{jr} = e^{-i 2 pi j (r - 1) / N} / sqrt(N) for r >= 2.

    The column-1 phase compensates the coefficient phase difference so a
    click at port j corresponds to detection state mu_j for any complex
    (c_0, c_1) pair.  For r >= 2, U_{jr} depends on j (r - 1) mod N only:
    the N roots e^{-i 2 pi m / N} / sqrt(N), m = 1..N, are computed once
    and are all the multiport holds, so entries equal in exact arithmetic
    are equal in bits.
    """
    if N < 2:
        raise ValueError(f"need at least two ports, got N = {N}")
    roots = np.exp(-2j * np.pi * np.arange(1, N + 1) / N) / np.sqrt(N)
    return MultiportUnitary(roots=roots, phase_offset=float(arg_c1 - arg_c0))


class MultiportMinError(NamedTuple):
    """p_correct, the full click table p(j|k) (row k, column j), the multiport."""

    p_correct: float
    table: np.ndarray
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
    table = _circulant(np.abs(inputs @ np.array([mp._column_0, mp.roots[-1]])) ** 2)
    p_correct = float(np.mean(np.diag(table)))
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
        # the complex matrix viewed as (N, N, 2) real and imaginary parts
        "matrix": mp.matrix[..., None].view(np.float64),
        "success_probability": result.p_correct,
        "click_table": result.table,
    }
