"""Square-root (pretty good) measurement for equiprobable cyclic families.

For the symmetric states the weighted Gram sum Phi = sum_k |psi_k><psi_k|
is diagonal in the reference basis, Phi = N sum_l |c_l|^2 |u_l><u_l|, and
the square-root detection states

    |mu_k> = Phi^{-1/2} |psi_k> = N^{-1/2} sum_l (c_l / |c_l|) e^{i 2 pi l k / N} |u_l>

minimize the error probability (Hausladen and Wootters, J. Mod. Opt. 41,
2385 (1994); optimal for symmetric states by Ban et al., Int. J. Theor.
Phys. 36, 1269 (1997)).  The detection states come from this closed
phase-only formula, the success probability from its analytic value
P_C = (sum_l |c_l|)^2 / N.  Detection rows are (N, M + 1) arrays of
amplitudes over |u_0>..|u_M>, row k - 1 for member k; no Fock basis is
needed.  Every phase comes from `families.roots_of_unity`, so the bound
on every overlap against its geometric sum and the completeness residual
max|sum_k |mu_k><mu_k| - I| against the identity I on the reference span
are both closed forms in `families.root_error`, the proven distance of
that table from the exact roots, proved with no Gram matrix, (M + 1) x
(M + 1) array or eigendecomposition; the thresholds come from `tolerances`.
The outcome table p(j|k) depends on k - j only: its one row of N values
is one length-N FFT of the moduli, and a report holds that row as a
`serialize.Circulant`, which lays the table out from it.  Before a row
becomes a table, `proven_circulant` checks it against two closed forms;
the multiport's click table passes the same check.
`min_error_report` builds no detection row: it reports the proven
completeness residual and the closed-form norms |mu_k|^2 = (M + 1) / N,
in O(N log N) time and O(N) memory at any M.
"""

from __future__ import annotations

import sys

import numpy as np

from .families import SymmetricFamily, phase_matrix, root_error
from .serialize import Circulant
from .tolerances import CLOSED_FORM_TOL, COMPLETENESS_TOL, GEOMETRIC_SUM_TOL, require_small


def srm_residual(family: SymmetricFamily) -> float:
    """Proven completeness residual of the closed-form detection rows over |u_0>..|u_M>.

    Both bounds are proved from root_error(N) alone, before any row is
    built.  Let nu_k be the closed form with exact roots and the computed
    unit phases rescaled to modulus 1, so that sum_k nu_k nu_k^dag is the
    identity I on |u_0>..|u_M> and every overlap is the geometric sum

        <nu_j|nu_k> = (1/N) (e^{i 2 pi (k-j)(M+1)/N} - 1) / (e^{i 2 pi (k-j)/N} - 1)

    with (M+1)/N on the diagonal.  Each root is within root_error(N) of its
    exact value, and the unit phase, the product and the 1/sqrt(N) scaling
    add at most 32 eps of the entry's modulus, so every entry of
    e_k = mu_k - nu_k is at most a / sqrt(N), a = root_error(N) (1 + 32 eps)
    + 32 eps.  Hence every overlap <nu_j|e_k> + <e_j|nu_k> + <e_j|e_k> is
    off by at most (M + 1) (2 a + a^2) / N, to which (M + 1) eps |mu_j|
    |mu_k| is added for a float64 evaluation of it (RuntimeError past
    GEOMETRIC_SUM_TOL), and every entry of S - I = sum_k (nu_k e_k^dag +
    e_k nu_k^dag + e_k e_k^dag) by at most 2 a + a^2, the residual returned
    (ValueError past COMPLETENESS_TOL).  A NaN or infinite root fails the
    first check.  Off the diagonal the sums vanish if N == M + 1 and are at
    least 1/N in modulus otherwise.
    """
    N, M = family.N, family.M
    eps = sys.float_info.epsilon
    a = root_error(N) * (1.0 + 32 * eps) + 32 * eps
    overlap = (M + 1) / N * (2.0 * a + a * a + (M + 1) * eps * (1.0 + a) * (1.0 + a))
    message = "overlaps disagree with the geometric sum: dev = {residual:.3e}"
    require_small(overlap, GEOMETRIC_SUM_TOL, message)
    message = "detection states do not resolve identity on their span: residual {residual:.3e}"
    return require_small(2.0 * a + a * a, COMPLETENESS_TOL, message, ValueError)


def detection_rows(family: SymmetricFamily) -> np.ndarray:
    """The (N, M + 1) detection rows from the phase-only closed form over |u_0>..|u_M>.

    Row k - 1 holds mu_k.  srm_residual(family) proves them without building them.
    """
    return family.unit_phases * phase_matrix(family) / np.sqrt(family.N)


def success_probability_analytic(family: SymmetricFamily) -> float:
    """P_C = (sum_l |c_l|)^2 / N for the square-root measurement."""
    return float(np.sum(family.moduli) ** 2 / family.N)


def error_probability(family: SymmetricFamily) -> float:
    """P_E = sum_l |c_l|^2 - P_C, the table's off-diagonal mass; with P_C, 1 to NORMALIZATION_TOL.

    The two-pass sum of squares of the N zero-padded moduli about their
    mean m, less the square of their sum over N (the rounding of m), so no
    term cancels where 1.0 - P_C would, near P_C = 1; equal moduli give 0.
    """
    N, M = family.N, family.M
    mean = np.sum(family.moduli) / N
    deviations = family.moduli - mean
    squares = np.sum(deviations * deviations) + (N - M - 1) * mean * mean
    total = np.sum(deviations) - (N - M - 1) * mean
    return float(squares - total * total / N)


def proven_circulant(family: SymmetricFamily, row: np.ndarray) -> Circulant:
    """The p(j|k) table of the family's square-root measurement held as row, once row is proven.

    The diagonal entry row[-1] must equal P_C, and the row must sum to the
    family's own sum_l |c_l|^2 (Parseval; make_family accepts a norm up to
    NORMALIZATION_TOL off 1), both to CLOSED_FORM_TOL (RuntimeError).  A
    NaN entry fails.
    """
    deviation = (
        abs(row[-1] - success_probability_analytic(family)),
        abs(np.sum(row) - np.sum(family.moduli**2)),
    )
    message = "table row is off its closed forms (diagonal P_C, sum |c|^2) by {residual:.3e}"
    require_small(deviation, CLOSED_FORM_TOL, message)
    return Circulant(row)


def outcome_table(family: SymmetricFamily) -> Circulant:
    """Matrix p(j|k) of the square-root measurement (row k, column j): the proven `Circulant`."""
    return proven_circulant(family, _outcome_row(family))


def _outcome_row(family: SymmetricFamily) -> np.ndarray:
    """Column N of the outcome table, whose entry k - 1 is p(j|k) at k - j = k mod N.

    <mu_j|psi_k> = N^{-1/2} sum_l |c_l| e^{i 2 pi l (k - j) / N} depends on
    k - j only, and |sum_l |c_l| e^{i 2 pi l k / N}|^2 / N is the squared
    modulus of the real moduli's zero-padded length-N FFT at k mod N.
    """
    p = np.abs(np.fft.fft(family.moduli, n=family.N)) ** 2 / family.N
    return np.concatenate((p[1:], p[:1]))  # np.roll(p, -1), whose fixed cost dominates at small N


def min_error_report(family: SymmetricFamily) -> dict:
    """JSON-ready summary of the square-root measurement for a family, built from closed forms."""
    completeness_residual = srm_residual(family)
    p_c = success_probability_analytic(family)
    return {
        "N": family.N,
        "M": family.M,
        "success_probability": p_c,
        "error_probability": error_probability(family),
        "detection_norms_squared": np.full(family.N, (family.M + 1) / family.N),
        "completeness_residual": completeness_residual,
        "orthogonal": family.linearly_independent,
        "outcome_table": outcome_table(family),
    }
