"""Linear multiport realizing the square-root measurement on one photon.

A single photon shared between two modes with relative phase 2 pi k / N,

    |psi_k> = c_0 |1, 0, ...> + c_1 e^{i 2 pi k / N} |0, 1, 0, ...>,

is discriminated optimally by an N-port interferometer followed by photon
counting: the transfer matrix below sends detection state mu_j to output
port j, so a click at port j implements outcome j of the square-root
measurement.  Column 1 carries the coefficient phase difference; columns
r >= 2 form the conjugate discrete-Fourier pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .families import SymmetricFamily, phase_matrix
from .minerror import success_probability_analytic

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class MultiportUnitary:
    """N x N transfer matrix from input modes to output (detector) ports.

    Row j (1-based) collects at detector j.  Only the first two columns are
    fed by the single-photon family; the rest complete the unitary.
    """

    N: int
    matrix: np.ndarray
    phase_offset: float

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.N, self.N):
            raise ValueError(f"matrix shape {mat.shape} != ({self.N}, {self.N})")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(self.N)))
        if dev > UNITARITY_TOL:
            raise ValueError(f"transfer matrix is not unitary: max deviation {dev:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def build_multiport(N: int, arg_c0: float = 0.0, arg_c1: float = 0.0) -> MultiportUnitary:
    """Transfer matrix U_{j1} = e^{i (arg c_1 - arg c_0)} / sqrt(N),
    U_{jr} = e^{-i 2 pi j (r - 1) / N} / sqrt(N) for r >= 2.

    The column-1 phase compensates the coefficient phase difference so a
    click at port j corresponds to detection state mu_j for any complex
    (c_0, c_1) pair.  For r >= 2, U_{jr} depends on j (r - 1) mod N only:
    the N roots e^{-i 2 pi m / N} / sqrt(N), m = 1..N, are computed once
    and indexed, so entries equal in exact arithmetic are equal in bits.
    """
    if N < 2:
        raise ValueError(f"need at least two ports, got N = {N}")
    offset = float(arg_c1 - arg_c0)
    js = np.arange(1, N + 1)
    roots = np.exp(-2j * np.pi * js / N) / np.sqrt(N)
    mat = np.empty((N, N), dtype=complex)
    mat[:, 0] = np.exp(1j * offset) / np.sqrt(N)
    mat[:, 1:] = roots[(js[:, None] * np.arange(1, N) - 1) % N]
    return MultiportUnitary(N=N, matrix=mat, phase_offset=offset)


class MultiportMinError(NamedTuple):
    """p_correct, the full click table p(j|k) (row k, column j), the multiport."""

    p_correct: float
    table: np.ndarray
    multiport: MultiportUnitary


def min_error_single_photon(family: SymmetricFamily) -> MultiportMinError:
    """Run every family member through the matched multiport.

    Member k enters as the mode amplitudes (c_0, c_1 e^{i 2 pi k / N}, 0,
    ..., 0), so only the first two columns of the transfer matrix act; all
    members pass them in one (N, 2) x (2, N) product.  The
    diagonal mean of the click table is the minimum-error success
    probability (|c_0| + |c_1|)^2 / N; this equality is asserted here
    since both sides are exact.
    """
    if family.M != 1:
        raise ValueError("the multiport takes single-photon (M = 1) families")
    mp = build_multiport(
        family.N,
        arg_c0=float(np.angle(family.coeffs[0])),
        arg_c1=float(np.angle(family.coeffs[1])),
    )
    inputs = np.asarray(family.coeffs) * phase_matrix(family)
    table = np.abs(inputs @ mp.matrix[:, :2].T) ** 2
    p_correct = float(np.mean(np.diag(table)))
    expected = success_probability_analytic(family)
    if abs(p_correct - expected) > 1e-12:
        raise RuntimeError(
            f"multiport diagonal {p_correct} disagrees with analytic success {expected}"
        )
    return MultiportMinError(p_correct, table, mp)


def multiport_report(family: SymmetricFamily) -> dict:
    """JSON-ready summary: transfer matrix, click table, success probability."""
    result = min_error_single_photon(family)
    mp = result.multiport
    return {
        "N": family.N,
        "phase_offset": mp.phase_offset,
        "matrix": np.stack([mp.matrix.real, mp.matrix.imag], axis=-1),
        "success_probability": result.p_correct,
        "click_table": result.table,
    }
