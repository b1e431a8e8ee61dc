"""Square-root (pretty good) measurement for equiprobable cyclic families.

For the symmetric states the weighted Gram sum Phi = sum_k |psi_k><psi_k|
is diagonal in the reference basis, Phi = N sum_l |c_l|^2 |u_l><u_l|, and
the square-root detection states

    |mu_k> = Phi^{-1/2} |psi_k> = N^{-1/2} sum_l (c_l / |c_l|) e^{i 2 pi l k / N} |u_l>

minimize the error probability.  Both routes are implemented: the numeric
pseudo-inverse square root and the closed phase-only formula, together with
the analytic success probability P_C = (sum_l |c_l|)^2 / N.  States are
(N, dim) arrays with row k - 1 for member k: the numeric route maps the
member rows through Phi^{-1/2} in one matrix product, the closed route
fills the rows from the phase matrix, and a DetectionSet holds the mu_k
rows with their completeness residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import SymmetricFamily, phase_matrix, single_mode_embedding
from .fock import FockBasis, inv_sqrt_psd

COMPLETENESS_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9


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
        if self.completeness_residual > COMPLETENESS_TOL:
            raise ValueError(
                f"detection states do not resolve identity on their span: "
                f"residual {self.completeness_residual:.3e}"
            )

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


def _finalize(rows: np.ndarray, gram: np.ndarray) -> DetectionSet:
    """DetectionSet of the mu_k rows, given their Gram matrix rows.conj() @ rows.T."""
    off = gram - np.diag(np.diag(gram))
    return DetectionSet(
        rows=rows,
        completeness_residual=_completeness_residual(rows),
        orthogonal=bool(np.max(np.abs(off)) <= ORTHOGONALITY_TOL),
    )


def gram_sum_operator(rows: np.ndarray) -> np.ndarray:
    """Phi = sum_k |psi_k><psi_k| of the (N, dim) member rows."""
    return rows.T @ rows.conj()


def srm_states_numeric(rows: np.ndarray, rank_threshold: float = 1e-12) -> DetectionSet:
    """Detection states Phi^{-1/2} |psi_k> of the (N, dim) member rows, numerically.

    Phases come out with <mu_k|psi_k> real positive automatically, since
    Phi^{-1/2} is PSD; this is asserted rather than imposed.
    """
    R = inv_sqrt_psd(gram_sum_operator(rows), rank_threshold=rank_threshold)
    mu = rows @ R.T
    olap = np.sum(mu.conj() * rows, axis=1)
    bad = np.flatnonzero((olap.real < 0) | (np.abs(olap.imag) > 1e-10))
    if bad.size:
        raise RuntimeError(
            f"square-root states lost their phase convention: <mu|psi> = {olap[bad[0]]} "
            f"at k = {bad[0] + 1}"
        )
    return _finalize(mu, mu.conj() @ mu.T)


def srm_states_closed(family: SymmetricFamily, basis: FockBasis, labels) -> DetectionSet:
    """Detection states from the phase-only closed form.

    Before returning, every pairwise overlap is checked against the
    geometric-sum expression

        <mu_j|mu_k> = (1/N) (e^{i 2 pi (k-j)(M+1)/N} - 1) / (e^{i 2 pi (k-j)/N} - 1)

    and the diagonal (M+1)/N.
    """
    labels = tuple(int(i) for i in labels)
    if len(labels) != family.M + 1 or len(set(labels)) != len(labels):
        raise ValueError("labels must be M + 1 distinct basis indices")
    N, M = family.N, family.M
    rows = np.zeros((N, basis.dimension), dtype=complex)
    phase_coeffs = np.asarray(family.coeffs) / family.moduli
    rows[:, list(labels)] = phase_coeffs * phase_matrix(family) / np.sqrt(N)

    # <mu_j|mu_k> depends on k - j only: one geometric sum per offset
    z = np.exp(2j * np.pi * np.arange(1, N) / N)
    per_offset = np.concatenate(([M + 1.0], (z ** (M + 1) - 1.0) / (z - 1.0))) / N
    ks = np.arange(N)
    expected = per_offset[(ks[None, :] - ks[:, None]) % N]
    gram = rows.conj() @ rows.T
    dev = np.max(np.abs(gram - expected))
    if dev > 1e-10:
        raise RuntimeError(f"closed-form overlaps disagree with the geometric sum: dev = {dev:.3e}")
    return _finalize(rows, gram)


def success_probability_analytic(family: SymmetricFamily) -> float:
    """P_C = (sum_l |c_l|)^2 / N for the square-root measurement."""
    return float(np.sum(family.moduli) ** 2 / family.N)


def outcome_table(family: SymmetricFamily) -> np.ndarray:
    """Matrix p(j|k) of the square-root measurement (row k, column j).

    <mu_j|psi_k> = N^{-1/2} sum_l |c_l| e^{i 2 pi l (k - j) / N} depends on
    k - j only, so the table is the circulant of the one row
    |phase_matrix @ |c||^2 / N, whose entry k - 1 is p(j|k) at k - j = k mod N.
    """
    row = np.abs(phase_matrix(family) @ family.moduli) ** 2 / family.N
    ks = np.arange(family.N)
    return row[(ks[:, None] - ks[None, :] - 1) % family.N]


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
