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
member k: the rows are filled from the phase matrix, and a DetectionSet
holds the mu_k rows with their completeness residual.  The completeness,
orthogonality and geometric-sum thresholds live in `tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .families import SymmetricFamily, embed_rows, phase_matrix, single_mode_embedding
from .fock import FockBasis
from .tolerances import COMPLETENESS_TOL, GEOMETRIC_SUM_TOL, ORTHOGONALITY_TOL, require_small

# entries of one block of Gram rows in srm_states_closed: 1 MiB of complex
GRAM_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class DetectionSet:
    """Subnormalized detection states mu_k resolving identity on their span.

    rows is the (N, dim) array whose row k - 1 holds mu_k.  Construction
    fails if sum_k |mu_k><mu_k| deviates from the projector onto the span
    by more than COMPLETENESS_TOL in max norm.  `orthogonal` records
    whether the mu_k are mutually orthogonal, i.e. whether the measurement
    is an ordinary projective one.
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


def _finalize(rows: np.ndarray, max_overlap: float) -> DetectionSet:
    """DetectionSet of the mu_k rows, given max |<mu_j|mu_k>| over j != k."""
    return DetectionSet(
        rows=rows,
        completeness_residual=_completeness_residual(rows),
        orthogonal=bool(max_overlap <= ORTHOGONALITY_TOL),
    )


def srm_states_closed(family: SymmetricFamily, basis: FockBasis, labels) -> DetectionSet:
    """Detection states from the phase-only closed form.

    Before returning, every pairwise overlap is checked against the
    geometric-sum expression

        <mu_j|mu_k> = (1/N) (e^{i 2 pi (k-j)(M+1)/N} - 1) / (e^{i 2 pi (k-j)/N} - 1)

    and the diagonal (M+1)/N, row by row, so a NaN anywhere fails the check.
    """
    N, M = family.N, family.M
    phase_coeffs = np.asarray(family.coeffs) / family.moduli
    rows = embed_rows(family, basis, labels, phase_coeffs) / np.sqrt(N)

    # <mu_j|mu_k> depends on k - j only: one geometric sum per offset
    z = np.exp(2j * np.pi * np.arange(1, N) / N)
    per_offset = np.concatenate(([M + 1.0], (z ** (M + 1) - 1.0) / (z - 1.0))) / N
    # the Gram matrix is compared in blocks of rows, so no N x N array is formed
    ks = np.arange(N)
    step = max(1, GRAM_BLOCK_ENTRIES // N)
    dev, overlap = np.empty(N), np.empty(N)
    for start in range(0, N, step):
        js = ks[start : start + step]
        gram = rows[js].conj() @ rows.T
        dev[js] = np.max(np.abs(gram - per_offset[(ks - js[:, None]) % N]), axis=1)
        gram[np.arange(len(js)), js] = 0.0
        overlap[js] = np.max(np.abs(gram), axis=1)
    message = "overlaps disagree with the geometric sum at k = {k}: dev = {residual:.3e}"
    require_small(dev, GEOMETRIC_SUM_TOL, message)
    return _finalize(rows, float(np.max(overlap)))


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
