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
member k: the rows are filled from the phase matrix and checked row by
row against the closed form, and a DetectionSet holds the mu_k rows with
their completeness residual.  Both checks take their thresholds from `tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .families import SymmetricFamily, embed_rows, phase_matrix, single_mode_embedding
from .fock import FockBasis
from .tolerances import COMPLETENESS_TOL, GEOMETRIC_SUM_TOL, require_small


@dataclass(frozen=True)
class DetectionSet:
    """Subnormalized detection states mu_k resolving identity on their span.

    rows is the (N, dim) array whose row k - 1 holds mu_k.  Construction
    fails if sum_k |mu_k><mu_k| deviates from the projector onto the span
    by more than COMPLETENESS_TOL in max norm.  `orthogonal` records
    whether the mu_k are mutually orthogonal (for the closed form, exactly
    when N == M + 1), i.e. whether the measurement is a projective one.
    """

    rows: np.ndarray
    completeness_residual: float
    orthogonal: bool

    def __post_init__(self):
        message = "detection states do not resolve identity on their span: residual {residual:.3e}"
        require_small(self.completeness_residual, COMPLETENESS_TOL, message, ValueError)

    @property
    def norms_squared(self) -> np.ndarray:
        return np.linalg.norm(self.rows, axis=1) ** 2


def _completeness_residual(mu_rows: np.ndarray) -> float:
    """max|S - P| with S = sum mu mu^dag and P the projector onto span(mu)."""
    S = mu_rows.conj().T @ mu_rows
    w, V = np.linalg.eigh(S)
    # S is a projector when complete, so its spectrum splits near {0, 1}
    P = (V * (w > 0.5)) @ V.conj().T
    return float(np.max(np.abs(S - P)))


def srm_states_closed(family: SymmetricFamily, basis: FockBasis, labels) -> DetectionSet:
    """Detection states from the phase-only closed form.

    Before returning, each row is compared with the closed form evaluated
    again, which bounds every overlap against the geometric-sum expression

        <mu_j|mu_k> = (1/N) (e^{i 2 pi (k-j)(M+1)/N} - 1) / (e^{i 2 pi (k-j)/N} - 1)

    and the diagonal (M+1)/N, so a NaN anywhere fails the check.  Off the
    diagonal the sums vanish if N == M + 1 and are at least 1/N in modulus otherwise.
    """
    phase_coeffs = np.asarray(family.coeffs) / family.moduli
    rows = embed_rows(family, basis, labels, phase_coeffs) / np.sqrt(family.N)
    message = "overlaps disagree with the geometric sum at k = {k}: dev = {residual:.3e}"
    require_small(_geometric_sum_bound(rows, phase_coeffs, labels), GEOMETRIC_SUM_TOL, message)
    return DetectionSet(rows, _completeness_residual(rows), family.linearly_independent)


def _geometric_sum_bound(rows: np.ndarray, phase_coeffs: np.ndarray, labels) -> np.ndarray:
    """Per row k, a bound on max_j |<mu_j|mu_k> - geometric sum|, in O(N dim).

    nu_k, the closed form with l k reduced mod N in integers, has entries of
    modulus 1/sqrt(N) or 0, so with e_k = mu_k - nu_k the overlap error
    <nu_j|e_k> + <e_j|nu_k> + <e_j|e_k> is at most
    (|e_j|_1 + |e_k|_1) / sqrt(N) + |e_j|_2 |e_k|_2.
    """
    N, M = len(rows), len(phase_coeffs) - 1
    err = rows.copy()
    exponents = np.arange(M + 1) * np.arange(1, N + 1)[:, None] % N
    err[:, list(labels)] -= phase_coeffs * np.exp(2j * np.pi / N * exponents) / np.sqrt(N)
    # an infinite or overflowing error makes the bound inf or NaN, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        l1, l2 = np.sum(np.abs(err), axis=1), np.linalg.norm(err, axis=1)
        bound = (l1 + np.max(l1)) / np.sqrt(N) + l2 * np.max(l2)
        # rounding: a few eps per closed-form entry, and dim eps / 2 times
        # |mu_j| |mu_k| <= (M + 1) / N + (1 + sqrt(M + 1)) bound per overlap
        gamma = (rows.shape[1] + 32) * np.finfo(float).eps
        return bound + gamma * ((2.0 + np.sqrt(M + 1)) * bound + 2.0 * (M + 1) / N)


def success_probability_analytic(family: SymmetricFamily) -> float:
    """P_C = (sum_l |c_l|)^2 / N for the square-root measurement."""
    return float(np.sum(family.moduli) ** 2 / family.N)


def outcome_table(family: SymmetricFamily) -> np.ndarray:
    """Matrix p(j|k) of the square-root measurement (row k, column j).

    <mu_j|psi_k> = N^{-1/2} sum_l |c_l| e^{i 2 pi l (k - j) / N} depends on
    k - j only, so the table is the circulant of the one row
    |phase_matrix @ |c||^2 / N, whose entry k - 1 is p(j|k) at k - j = k mod N.
    """
    return _circulant(np.abs(phase_matrix(family) @ family.moduli) ** 2 / family.N)


def _circulant(row: np.ndarray) -> np.ndarray:
    """The N x N table t[k, j] = row[(k - j - 1) mod N] of a p(j|k) that depends on k - j only.

    row[k - 1] is p(j|k) at k - j = k mod N, i.e. column N of the table.
    """
    N = len(row)
    # t[k, j] = wide[N - 1 + k - j] with wide[i] = row[(i - N) mod N]: a
    # strided view of wide, copied, and no N x N index array
    wide = row[(np.arange(2 * N - 1) - N) % N]
    step = wide.strides[0]
    return as_strided(wide[N - 1 :], shape=(N, N), strides=(step, -step)).copy()


def min_error_report(family: SymmetricFamily) -> dict:
    """JSON-ready summary of the square-root measurement for a family."""
    detection = srm_states_closed(family, *single_mode_embedding(family))
    p_c = success_probability_analytic(family)
    return {
        "N": family.N,
        "M": family.M,
        "success_probability": p_c,
        "error_probability": 1.0 - p_c,
        "detection_norms_squared": detection.norms_squared.tolist(),
        "completeness_residual": detection.completeness_residual,
        "orthogonal": detection.orthogonal,
        "outcome_table": outcome_table(family),
    }
