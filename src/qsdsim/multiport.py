"""Linear multiport realizing the square-root measurement on one photon.

A single photon shared between two modes with relative phase 2 pi k / N,

    |psi_k> = c_0 |1, 0, ...> + c_1 e^{i 2 pi k / N} |0, 1, 0, ...>,

is discriminated optimally by an N-port interferometer followed by photon
counting: the transfer matrix below sends detection state mu_j to output
port j, so a click at port j implements outcome j of the square-root
measurement.  Column 1 carries the coefficient phase difference; columns
r >= 2 form the conjugate discrete-Fourier pattern, the conjugates of the
N roots of `families.roots_of_unity`.  The multiport is held as its N + 1
distinct entries in a `serialize.Fourier`, whose docstring states their
layout: its unitarity bound is a closed form in `families.root_error`, the
proven distance of the root table from the exact roots, and the click
table, which depends on k - j only, is the `serialize.Circulant` of the
column port N gives, proven by `minerror.proven_circulant`.  Neither is
built or encoded as an N x N array.  `multiport_report` runs the family
through the device and returns its one record, the report dict.  The
unitarity and click-table checks take their thresholds from `tolerances`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .families import SymmetricFamily, read_only, reference_rows, root_error, roots_of_unity
from .minerror import proven_circulant
from .serialize import Fourier
from .tolerances import UNITARITY_TOL, require_small


def build_multiport(N: int, phase_offset: float) -> Fourier:
    """Transfer matrix U_{j1} = e^{i phase_offset} / sqrt(N),
    U_{jr} = e^{-i 2 pi j (r - 1) / N} / sqrt(N) for r >= 2, as its read-only `Fourier` values.

    phase_offset = arg c_1 - arg c_0 compensates the coefficient phase
    difference so a click at port j corresponds to detection state mu_j
    for any complex (c_0, c_1) pair.  For r >= 2, U_{jr} depends on
    j (r - 1) mod N only: the N roots e^{-i 2 pi m / N} / sqrt(N),
    m = 0..N - 1, gathered from the family roots at (-m) mod N, are all
    the matrix holds past column 1, so entries equal in exact arithmetic
    are equal in bits (and U_{N2} is exactly real).

    Unitarity is proved in O(N log N) before any root is gathered.  The
    gathered roots are within root_error(N) of the exact ones in 2-norm,
    and the 1/sqrt(N) scaling rounds each by at most 2 eps of its modulus.
    Column r >= 2 takes each root at most N times, so its error has 2-norm
    at most sqrt(N) d with d = (root_error(N) (1 + 2 eps) +
    ||e^{i phase}| - 1|) / sqrt(N) + 2 eps, which bounds column 1's error
    as well, whose phase leaves it orthogonal to the rest.  With
    orthonormal exact columns, max|U^H U - I| <= 2 sqrt(N) d + N d^2,
    which must not exceed UNITARITY_TOL (ValueError).  A NaN or infinite
    root or phase offset makes the bound NaN or inf, which fails; a phase
    offset that is not finite counts as an infinite modulus error unexponentiated.
    """
    eps = sys.float_info.epsilon
    finite = math.isfinite(phase_offset)
    modulus_error = abs(abs(np.exp(1j * phase_offset)) - 1.0) if finite else math.inf
    d = (root_error(N) * (1.0 + 2 * eps) + modulus_error) / math.sqrt(N) + 2 * eps
    message = "transfer matrix is not the closed-form unitary: |U^H U - I| bound {residual:.3e}"
    require_small(2.0 * math.sqrt(N) * d + N * d * d, UNITARITY_TOL, message, ValueError)
    values = np.append(roots_of_unity(N)[-np.arange(N) % N], np.exp(1j * phase_offset)) / np.sqrt(N)
    return Fourier(read_only(values.view(np.float64).reshape(N + 1, 2)))


def multiport_report(family: SymmetricFamily) -> dict:
    """Run every family member through the matched multiport: the JSON-ready
    N, phase offset, transfer matrix, success probability and click table.

    Member k enters as the mode amplitudes (c_0, c_1 e^{i 2 pi k / N}, 0,
    ..., 0), so only the first two columns of the transfer matrix act.
    p(j|k) depends on k - j only, so the click table is the circulant of
    its column N, which port N's two entries (U_{N1}, U_{N2}), value rows
    N and 0, give for all members in one (N, 2) x (2,) product.  The
    table's diagonal is the minimum-error success probability
    (|c_0| + |c_1|)^2 / N, and `proven_circulant` checks its row.
    """
    if family.M != 1:
        raise ValueError("the multiport takes single-photon (M = 1) families")
    arg_0, arg_1 = np.angle(family.coeffs)
    phase_offset = float(arg_1 - arg_0)
    matrix = build_multiport(family.N, phase_offset)
    port_n = matrix.values[[family.N, 0]].view(complex)[:, 0]
    table = proven_circulant(family, np.abs(reference_rows(family) @ port_n) ** 2)
    return {
        "N": family.N,
        "phase_offset": phase_offset,
        "matrix": matrix,
        "success_probability": float(table.row[-1]),
        "click_table": table,
    }
