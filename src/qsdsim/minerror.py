"""Square-root (pretty good) measurement for equiprobable cyclic families.

For the symmetric states the weighted Gram sum Phi = sum_k |psi_k><psi_k|
is diagonal in the reference basis, Phi = N sum_l |c_l|^2 |u_l><u_l|, and
the square-root detection states

    |mu_k> = Phi^{-1/2} |psi_k> = N^{-1/2} sum_l (c_l / |c_l|) e^{i 2 pi l k / N} |u_l>

minimize the error probability.  Both routes are implemented: the numeric
pseudo-inverse square root and the closed phase-only formula, together with
the analytic success probability P_C = (sum_l |c_l|)^2 / N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import SymmetricFamily, family_phases, family_states, single_mode_embedding
from .fock import FockBasis, Operator, StateVector, inv_sqrt_psd

COMPLETENESS_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9


class SupportError(ValueError):
    """Input state has weight outside the span resolved by the detection set."""

    def __init__(self, leakage: float):
        super().__init__(
            f"state carries probability {leakage:.3e} outside the measurement support"
        )
        self.leakage = leakage


@dataclass(frozen=True)
class DetectionSet:
    """Subnormalized detection states mu_k resolving identity on their span.

    Construction fails if sum_k |mu_k><mu_k| deviates from the projector
    onto the span by more than COMPLETENESS_TOL in max norm.  `orthogonal`
    records whether the mu_k are mutually orthogonal, i.e. whether the
    measurement is an ordinary projective one.
    """

    vectors: tuple[StateVector, ...]
    completeness_residual: float
    orthogonal: bool

    def __post_init__(self):
        if self.completeness_residual > COMPLETENESS_TOL:
            raise ValueError(
                f"detection states do not resolve identity on their span: "
                f"residual {self.completeness_residual:.3e}"
            )

    @property
    def basis(self) -> FockBasis:
        return self.vectors[0].basis

    @property
    def norms_squared(self) -> np.ndarray:
        return np.array([v.norm**2 for v in self.vectors])

    def matrix(self) -> np.ndarray:
        """Stack of detection-state amplitude rows (N x dim)."""
        return np.array([v.amplitudes for v in self.vectors])


def _completeness_residual(mu_rows: np.ndarray) -> float:
    """max|S - P| with S = sum mu mu^dag and P the projector onto span(mu)."""
    S = mu_rows.conj().T @ mu_rows
    w, V = np.linalg.eigh(S)
    # S is a projector when complete, so its spectrum splits near {0, 1}
    P = (V * (w > 0.5)) @ V.conj().T
    return float(np.max(np.abs(S - P)))


def _finalize(vectors: list[StateVector]) -> DetectionSet:
    rows = np.array([v.amplitudes for v in vectors])
    gram = rows.conj() @ rows.T
    off = gram - np.diag(np.diag(gram))
    return DetectionSet(
        vectors=tuple(vectors),
        completeness_residual=_completeness_residual(rows),
        orthogonal=bool(np.max(np.abs(off)) <= ORTHOGONALITY_TOL),
    )


def gram_sum_operator(states) -> Operator:
    """Phi = sum_k |psi_k><psi_k| over a shared basis."""
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    basis = states[0].basis
    mat = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for s in states:
        if s.basis != basis:
            raise ValueError("states live on different bases")
        mat += np.outer(s.amplitudes, s.amplitudes.conj())
    return Operator.hermitian(basis, mat)


def srm_states_numeric(states, rank_threshold: float = 1e-12) -> DetectionSet:
    """Detection states Phi^{-1/2} |psi_k| from the numeric matrix route.

    Phases come out with <mu_k|psi_k> real positive automatically, since
    Phi^{-1/2} is PSD; this is asserted rather than imposed.
    """
    states = list(states)
    phi = gram_sum_operator(states)
    R = inv_sqrt_psd(phi, rank_threshold=rank_threshold).operator
    vectors = []
    for s in states:
        mu = R.apply(s)
        olap = mu.inner(s)
        if olap.real < 0 or abs(olap.imag) > 1e-10:
            raise RuntimeError(f"square-root states lost their phase convention: <mu|psi> = {olap}")
        vectors.append(mu)
    return _finalize(vectors)


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
    phase_coeffs = np.asarray(family.coeffs) / np.abs(family.coeffs)
    vectors = []
    for k in range(1, N + 1):
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[list(labels)] = phase_coeffs * family_phases(family, k) / np.sqrt(N)
        vectors.append(StateVector(basis, amps, normalized=False))

    rows = np.array([v.amplitudes for v in vectors])
    gram = rows.conj() @ rows.T
    expected = np.empty((N, N), dtype=complex)
    for j in range(N):
        for k in range(N):
            if j == k:
                expected[j, k] = (M + 1) / N
            else:
                z = np.exp(2j * np.pi * (k - j) / N)
                expected[j, k] = (z ** (M + 1) - 1.0) / (z - 1.0) / N
    dev = np.max(np.abs(gram - expected))
    if dev > 1e-10:
        raise RuntimeError(f"closed-form overlaps disagree with the geometric sum: dev = {dev:.3e}")
    return _finalize(vectors)


def success_probability_analytic(family: SymmetricFamily) -> float:
    """P_C = (sum_l |c_l|)^2 / N for the square-root measurement."""
    return float(np.sum(family.moduli) ** 2 / family.N)


def outcome_distribution(detection: DetectionSet, state: StateVector) -> np.ndarray:
    """p(j) = |<mu_j|state>|^2; errors if the state leaks out of the span."""
    if state.basis != detection.basis:
        raise ValueError("state and detection set live on different bases")
    amps = detection.matrix().conj() @ state.amplitudes
    probs = np.abs(amps) ** 2
    leakage = state.norm**2 - float(np.sum(probs))
    if leakage > COMPLETENESS_TOL:
        raise SupportError(leakage)
    return probs


def outcome_table(family: SymmetricFamily, basis: FockBasis = None, labels=None) -> np.ndarray:
    """Matrix p(j|k) of the square-root measurement on every family member."""
    if basis is None:
        basis, labels = single_mode_embedding(family)
    detection = srm_states_closed(family, basis, labels)
    states = family_states(family, basis, labels)
    return np.array([outcome_distribution(detection, s) for s in states])


def min_error_report(family: SymmetricFamily) -> dict:
    """JSON-ready summary of the square-root measurement for a family."""
    basis, labels = single_mode_embedding(family)
    detection = srm_states_closed(family, basis, labels)
    table = outcome_table(family, basis, labels)
    p_c = success_probability_analytic(family)
    return {
        "N": family.N,
        "M": family.M,
        "success_probability": p_c,
        "error_probability": 1.0 - p_c,
        "detection_norms_squared": detection.norms_squared.tolist(),
        "completeness_residual": detection.completeness_residual,
        "orthogonal": detection.orthogonal,
        "outcome_table": table,
    }
