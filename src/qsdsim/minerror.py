"""Square-root (pretty good) measurement for equiprobable cyclic families.

For the symmetric states the weighted Gram sum Phi = sum_k |psi_k><psi_k|
is diagonal in the reference basis, Phi = N sum_l |c_l|^2 |u_l><u_l|, and
the square-root detection states

    |mu_k> = Phi^{-1/2} |psi_k> = N^{-1/2} sum_l (c_l / |c_l|) e^{i 2 pi l k / N} |u_l>

minimize the error probability (Hausladen and Wootters, J. Mod. Opt. 41,
2385 (1994); optimal for symmetric states by Ban et al., Int. J. Theor.
Phys. 36, 1269 (1997)).  The detection states come from this closed
phase-only formula, the success probability from its analytic value
P_C = (sum_l |c_l|)^2 / N.  States are (N, dim) arrays with row k - 1 for
member k.  One pass over the errors of the rows against the closed form
bounds both every overlap against its geometric sum and the completeness
residual max|sum_k |mu_k><mu_k| - P| against the projector P onto the
label span; the thresholds come from `tolerances`.  The outcome table
p(j|k) depends on k - j only: its one row of N values is one length-N FFT
of the moduli, and a report holds the row and a circulant index (a
`serialize.Gathered`), from which the table's codes are taken when encoded.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .families import SymmetricFamily, embed_rows, phase_matrix, single_mode_embedding
from .fock import FockBasis
from .serialize import Gathered
from .tolerances import COMPLETENESS_TOL, GEOMETRIC_SUM_TOL, require_small


def srm_states_closed(
    family: SymmetricFamily, basis: FockBasis, labels
) -> tuple[np.ndarray, float]:
    """Detection states from the phase-only closed form, with their completeness residual.

    Returns the (N, dim) rows, row k - 1 holding mu_k, and a proven bound
    on max|sum_k |mu_k><mu_k| - P| for P the projector onto the labels.
    Before returning, each row is compared with the closed form gathered
    again from phase_matrix, which checks the embedding and the scaling.
    The row errors bound every overlap against the geometric-sum expression

        <mu_j|mu_k> = (1/N) (e^{i 2 pi (k-j)(M+1)/N} - 1) / (e^{i 2 pi (k-j)/N} - 1)

    and the diagonal (M+1)/N (RuntimeError past GEOMETRIC_SUM_TOL), then
    the completeness residual (ValueError past COMPLETENESS_TOL), so a NaN
    anywhere fails.  Off the diagonal the sums vanish if N == M + 1 and are
    at least 1/N in modulus otherwise.
    """
    rows = embed_rows(family, basis, labels, family.unit_phases) / np.sqrt(family.N)
    overlap, completeness = _row_error_bounds(rows, family, labels)
    message = "overlaps disagree with the geometric sum at k = {k}: dev = {residual:.3e}"
    require_small(overlap, GEOMETRIC_SUM_TOL, message)
    message = "detection states do not resolve identity on their span: residual {residual:.3e}"
    return rows, require_small(completeness, COMPLETENESS_TOL, message, ValueError)


def _row_error_bounds(
    rows: np.ndarray, family: SymmetricFamily, labels
) -> tuple[np.ndarray, float]:
    """Per row k a bound on max_j |<mu_j|mu_k> - geometric sum|, and one on max|S - P|.

    Both come from one O(N dim) pass over the row errors.  nu_k, the closed
    form from phase_matrix and the unit phases, has entries of modulus
    1/sqrt(N) or 0, so with e_k = mu_k - nu_k the overlap error
    <nu_j|e_k> + <e_j|nu_k> + <e_j|e_k> is at most
    (|e_j|_1 + |e_k|_1) / sqrt(N) + |e_j|_2 |e_k|_2.  Since sum_k nu_k nu_k^dag
    is P exactly, S - P = sum_k (nu_k e_k^dag + e_k nu_k^dag + e_k e_k^dag),
    whose entries are at most (2 / sqrt(N)) sum_k |e_k|_inf + sum_k |e_k|_inf^2.
    """
    N, M = family.N, family.M
    err = rows.copy()
    err[:, list(labels)] -= family.unit_phases * phase_matrix(family) / np.sqrt(N)
    eps = np.finfo(float).eps
    # an infinite or overflowing error makes the bounds inf or NaN, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(err)
        l1, l2 = np.sum(size, axis=1), np.linalg.norm(err, axis=1)
        bound = (l1 + np.max(l1)) / np.sqrt(N) + l2 * np.max(l2)
        # rounding: a few eps per closed-form entry, and dim eps / 2 times
        # |mu_j| |mu_k| <= (M + 1) / N + (1 + sqrt(M + 1)) bound per overlap
        gamma = (rows.shape[1] + 32) * eps
        overlap = bound + gamma * ((2.0 + np.sqrt(M + 1)) * bound + 2.0 * (M + 1) / N)
        # |e_k|_inf against the exact nu_k: the computed entry misses its unit
        # phase c_l / |c_l| and its root of unity by a few eps, 32 eps / sqrt(N)
        # in all; the sums round by at most N eps relative
        e_max = np.max(size, axis=1) + 32 * eps / np.sqrt(N)
        completeness = (2.0 * np.sum(e_max) / np.sqrt(N) + np.sum(e_max**2)) * (1.0 + (N + 8) * eps)
    return overlap, completeness


def success_probability_analytic(family: SymmetricFamily) -> float:
    """P_C = (sum_l |c_l|)^2 / N for the square-root measurement."""
    return float(np.sum(family.moduli) ** 2 / family.N)


def outcome_table(family: SymmetricFamily) -> np.ndarray:
    """Matrix p(j|k) of the square-root measurement (row k, column j).

    A copy of the circulant view of the row: numpy gathers through the
    strided circulant index of a report's table several times slower.
    """
    return _circulant_view(_outcome_row(family)).copy()


def _outcome_row(family: SymmetricFamily) -> np.ndarray:
    """Column N of the outcome table, whose entry k - 1 is p(j|k) at k - j = k mod N.

    <mu_j|psi_k> = N^{-1/2} sum_l |c_l| e^{i 2 pi l (k - j) / N} depends on
    k - j only, and |sum_l |c_l| e^{i 2 pi l k / N}|^2 / N is the squared
    modulus of the real moduli's zero-padded length-N FFT at k mod N.
    """
    p = np.abs(np.fft.fft(family.moduli, n=family.N)) ** 2 / family.N
    return np.concatenate((p[1:], p[:1]))  # np.roll(p, -1), whose fixed cost dominates at small N


def _circulant(row: np.ndarray) -> Gathered:
    """The N x N table t[k, j] = row[(k - j - 1) mod N] of a p(j|k) that depends on k - j only.

    row[k - 1] is p(j|k) at k - j = k mod N, i.e. column N of the table.
    The table is held as the row and its index, the circulant view of
    0..N - 1, so no N x N array is built.
    """
    return Gathered(row, _circulant_view(np.arange(len(row))))


def _circulant_view(a: np.ndarray) -> np.ndarray:
    """The read-only N x N view t[k, j] = a[(k - j - 1) mod N] of a length-N array.

    t[k, j] = wide[N - 1 + k - j] with wide[i] = a[(i - N) mod N], so the
    view strides over the 2N - 1 entries of wide.
    """
    N = len(a)
    wide = a[(np.arange(2 * N - 1) - N) % N]
    step = wide.strides[0]
    return as_strided(wide[N - 1 :], shape=(N, N), strides=(step, -step), writeable=False)


def min_error_report(family: SymmetricFamily) -> dict:
    """JSON-ready summary of the square-root measurement for a family."""
    rows, completeness_residual = srm_states_closed(family, *single_mode_embedding(family))
    p_c = success_probability_analytic(family)
    return {
        "N": family.N,
        "M": family.M,
        "success_probability": p_c,
        "error_probability": 1.0 - p_c,
        "detection_norms_squared": (np.linalg.norm(rows, axis=1) ** 2).tolist(),
        "completeness_residual": completeness_residual,
        "orthogonal": family.linearly_independent,
        "outcome_table": _circulant(_outcome_row(family)),
    }
