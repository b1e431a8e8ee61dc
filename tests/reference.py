"""The tests' independent references: the numeric square-root measurement
and the report encoders.

The library builds the detection states from the closed phase-only form
mu_k = N^{-1/2} sum_l (c_l / |c_l|) e^{i 2 pi l k / N} |u_l>.  This module
builds them the long way, as Phi^{-1/2} |psi_k> with Phi = sum_k
|psi_k><psi_k| inverted through its eigendecomposition, so the two routes
share no formula, and judges them by its own completeness residual
against the projector onto the span of S = sum_k |mu_k><mu_k|, found from
the eigendecomposition of S.  The library bounds the overlaps and the
completeness of its rows from one pass over their errors against the
closed form; geometric_sum_deviation and label_completeness_deviation are
the direct checks those bounds stand for: every overlap of the full N x N
Gram matrix against the geometric sum, and S against the projector onto
the labels in extended precision.

Every bound on a phase or a multiport root is derived from
families.root_error, the proven distance of the table of N roots from the
exact ones.  install_root_table swaps a changed table into every module
that binds roots_of_unity, root_moves draws such changes, and
root_table_distance and unitarity_deviation are the extended-precision
quantities the bounds stand for.

serialize formats each distinct value of an array once, lays a
Circulant table out from its diagonals and a Fourier transfer matrix
from strided slices of its value rows; reference_dumps and
reference_table_csv densify both with reference_dense, a plain gather
(fourier_dense for the transfer matrix), and format every element on
its own, through the standard library's JSON encoder and a per-cell
loop, so the two share no code.  assert_same_text compares two texts of
any size by digest and first differing offset.

single_mode is the embedding |u_l> = |l> of one mode at M photons, the
reference basis of the detection rows the tests build and check.

recovery_overall_decimal is the conversion + retry success probability
of float moduli in 50-digit decimal arithmetic, in which the differences
of squares |c_l|^2 - |c_2|^2 stay accurate for moduli a rounding apart.
"""

from __future__ import annotations

import decimal
import hashlib
import importlib
import json
import pkgutil

import numpy as np
from hypothesis import strategies as st

import qsdsim
from qsdsim.families import (
    FamilyError,
    SymmetricFamily,
    embed_rows,
    family_states,
    roots_of_unity,
)
from qsdsim.fock import FockBasis, build_basis
from qsdsim.serialize import Circulant, Fourier
from qsdsim.unambiguous import success_probability_ud

HERMITICITY_TOL = 1e-10
# eigenvalues at or below this fraction of the largest count as exact zeros
RANK_THRESHOLD = 1e-12


def inv_sqrt_psd(A: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root R of a Hermitian PSD matrix A.

    Eigenvalues at or below RANK_THRESHOLD * (largest eigenvalue) are
    treated as exact zeros.  R satisfies R A R = projector onto the
    support of A.
    """
    dev = np.max(np.abs(A - A.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"inv_sqrt_psd needs a Hermitian input; max|A - A^dag| = {dev:.3e}")
    w, V = np.linalg.eigh(A)
    top = float(w[-1]) if w.size else 0.0
    if w.size and w[0] < -HERMITICITY_TOL * max(1.0, top):
        raise ValueError(f"input is not PSD: smallest eigenvalue {w[0]:.3e}")
    keep = w > RANK_THRESHOLD * max(top, 0.0)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    return (V * inv) @ V.conj().T


def gram_sum_operator(rows: np.ndarray) -> np.ndarray:
    """Phi = sum_k |psi_k><psi_k| of the (N, dim) member rows."""
    return rows.T @ rows.conj()


def srm_states_numeric(rows: np.ndarray) -> np.ndarray:
    """Detection states Phi^{-1/2} |psi_k> of the (N, dim) member rows, numerically.

    Phases come out with <mu_k|psi_k> real positive automatically, since
    Phi^{-1/2} is PSD; this is asserted rather than imposed.
    """
    R = inv_sqrt_psd(gram_sum_operator(rows))
    mu = rows @ R.T
    olap = np.sum(mu.conj() * rows, axis=1)
    bad = np.flatnonzero((olap.real < 0) | (np.abs(olap.imag) > 1e-10))
    if bad.size:
        raise RuntimeError(
            f"square-root states lost their phase convention: <mu|psi> = {olap[bad[0]]} "
            f"at k = {bad[0] + 1}"
        )
    return mu


def completeness_residual(mu_rows: np.ndarray) -> float:
    """max|S - P| with S = sum mu mu^dag and P the projector onto span(mu), from eigh."""
    S = mu_rows.conj().T @ mu_rows
    w, V = np.linalg.eigh(S)
    # S is a projector when complete, so its spectrum splits near {0, 1}
    P = (V * (w > 0.5)) @ V.conj().T
    return float(np.max(np.abs(S - P)))


def label_completeness_deviation(rows: np.ndarray, labels) -> float:
    """max|S - P| in extended precision, P the projector onto the label indices.

    S = sum_k |mu_k><mu_k| of the (N, dim) rows is summed in np.clongdouble.
    Its diagonal adds N equal terms, so the sum's own rounding grows like
    N times the extended-precision eps: 2e-17 at N = 200, where the
    library's bound is about 1.5e-14, but 1.1e-14 at N = 10^6 for an exact
    residual of 8e-17.  A NaN or infinite row gives NaN, without the
    product, which extended precision runs far slower on such entries.
    """
    if not np.isfinite(rows).all():
        return float("nan")
    R = rows.astype(np.clongdouble)
    with np.errstate(over="ignore"):
        S = R.conj().T @ R
        S[list(labels), list(labels)] -= 1
        return float(np.max(np.abs(S)))


def _sin_pi(r: np.ndarray, N: int) -> np.ndarray:
    """sin(pi r / N) of integers r, reduced in integers to an angle in [0, pi / 2]."""
    r = r % (2 * N)
    sign = np.where(r < N, 1.0, -1.0)
    r = r % N
    return sign * np.sin(np.pi * np.minimum(r, N - r) / N)


def geometric_sum_deviation(rows: np.ndarray, M: int) -> np.ndarray:
    """max_k |<mu_j|mu_k> - g(k - j)| of each row j of the (N, dim) detection states.

    g(d) = (1/N) sum_{l=0}^{M} e^{i 2 pi l d / N} is the overlap of the
    closed-form states, evaluated as the Dirichlet kernel
    e^{i pi d M / N} sin(pi d (M + 1) / N) / (N sin(pi d / N)) with every
    angle reduced in integers, so it is accurate to a few eps relative to
    (M + 1) / N.  The overlaps come from the full N x N Gram matrix.
    """
    N = len(rows)
    d = np.arange(1, N)
    per_offset = np.empty(N, dtype=complex)
    per_offset[0] = (M + 1) / N
    per_offset[1:] = np.exp(1j * np.pi * (d * M % (2 * N)) / N) * _sin_pi(d * (M + 1), N)
    per_offset[1:] /= N * _sin_pi(d, N)
    ks = np.arange(N)
    # an infinite entry makes its overlaps inf or NaN, which is the point
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows.conj() @ rows.T
        return np.max(np.abs(gram - per_offset[(ks - ks[:, None]) % N]), axis=1)


def install_root_table(patch, change) -> None:
    """Make change(table) the table of N roots of every qsdsim module that binds roots_of_unity.

    change takes a fresh copy of the library's table and returns the table to use.
    """
    for info in pkgutil.iter_modules(qsdsim.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"qsdsim.{info.name}")
            if "roots_of_unity" in vars(module):
                patch.setattr(module, "roots_of_unity", lambda N: change(roots_of_unity(N)))


def root_moves(N: int):
    """Up to three moves (m, size, along) of roots of an N-root table.

    Root m moves by size, along its phase or not: finite from 1e-17 to 10,
    NaN or infinite.  apply_root_moves applies them.
    """
    finite = st.builds(
        lambda exponent, phase: 10.0**exponent * np.exp(1j * phase),
        st.floats(-17.0, 1.0),
        st.floats(-np.pi, np.pi),
    )
    special = st.sampled_from([float("nan"), float("inf"), float("-inf"), complex(0.0, float("inf"))])
    move = st.tuples(st.integers(0, N - 1), st.one_of(finite, special), st.booleans())
    return st.lists(move, max_size=3)


def apply_root_moves(roots: np.ndarray, moves) -> np.ndarray:
    with np.errstate(all="ignore"):
        for m, size, along in moves:
            roots[m] += size * (roots[m] / abs(roots[m]) if along else 1.0)
    return roots


def _exact_roots(N: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi m / N, m = 0..N - 1, in np.longdouble."""
    angles = 8 * np.arctan(np.longdouble(1)) * np.arange(N, dtype=np.longdouble) / N
    return np.cos(angles), np.sin(angles)


def root_table_distance(table: np.ndarray) -> float:
    """The 2-norm distance of a table of N roots from e^{i 2 pi m / N}, in np.longdouble."""
    cos, sin = _exact_roots(len(table))
    re, im = table.real.astype(np.longdouble), table.imag.astype(np.longdouble)
    return float(np.sqrt(np.sum((re - cos) ** 2 + (im - sin) ** 2)))


def unitarity_deviation(U: np.ndarray) -> float:
    """max|U^H U - I| of a square matrix, in np.clongdouble; a NaN or infinite entry gives NaN."""
    if not np.isfinite(U).all():
        return float("nan")
    V = U.astype(np.clongdouble)
    with np.errstate(over="ignore"):
        gram = V.conj().T @ V
        gram[np.diag_indices(len(V))] -= 1
        return float(np.max(np.abs(gram)))


def outcome_row_reference(family: SymmetricFamily) -> np.ndarray:
    """Column N of the outcome table, p(j|k) at k - j = k mod N, in extended precision.

    Entry k - 1 is |sum_l |c_l| e^{i 2 pi l k / N}|^2 / N.  The N roots are
    evaluated once in np.longdouble and each row gathers them by (l k) mod N
    and sums in np.longdouble, so this route shares no code with the
    library's FFT.  Rows go in blocks of at most 2^20 gathered entries.
    """
    N, M = family.N, family.M
    cos, sin = _exact_roots(N)
    moduli = family.moduli.astype(np.longdouble)
    row = np.empty(N, dtype=np.longdouble)
    step = max(1, 2**20 // (M + 1))
    for start in range(0, N, step):
        ks = np.arange(start + 1, min(start + step, N) + 1)
        index = ks[:, None] * np.arange(M + 1) % N
        row[start : start + len(ks)] = (cos[index] @ moduli) ** 2 + (sin[index] @ moduli) ** 2
    return row / N


def single_mode(family: SymmetricFamily) -> tuple[FockBasis, tuple[int, ...]]:
    """The embedding |u_l> = |l> of one mode truncated at M photons: (basis, labels 0..M).

    The basis lists one mode's occupations by photon number, so |n> sits at index n.
    """
    return build_basis(1, family.M), tuple(range(family.M + 1))


def equivalence_residual(family: SymmetricFamily) -> float:
    """Max distance between the abstract contraction and sqrt(P_D) mu_k, numerically.

    For any N = M + 1 family: the contraction side is built abstractly
    (diagonal scaling to the smallest modulus) and the detection side from
    the numeric pseudo-inverse square root of the Gram sum, so the two
    paths share no intermediate formula.
    """
    if not family.linearly_independent:
        raise FamilyError(
            "linearly-dependent",
            f"equivalence holds for N == M + 1 families, got N = {family.N}, M = {family.M}",
        )
    basis, labels = single_mode(family)
    scaling = np.ones(basis.dimension)
    scaling[list(labels)] = np.min(family.moduli) / family.moduli
    contracted = scaling * embed_rows(family, basis, labels, family.coeffs)
    detection = srm_states_numeric(family_states(family, basis, labels))
    scale = np.sqrt(success_probability_ud(family))
    return float(np.max(np.abs(contracted - scale * detection)))


def recovery_overall_decimal(N: int, moduli) -> float:
    """P_D + (1 - P_D) P_C of the ancilla family for moduli (|c_0|, |c_1|, |c_2|), |c_2| the least.

    The ancilla amplitudes are a, b = sqrt(|c_0|^2 - |c_2|^2), sqrt(|c_1|^2 - |c_2|^2),
    and their family's P_C is (a + b)^2 / ((a^2 + b^2) N).  Each float converts
    to its decimal exactly; at 50 digits a difference of squares of moduli
    one rounding apart, about 1e-16 of the squares, still has over 30
    correct digits.
    """
    with decimal.localcontext(decimal.Context(prec=50)):
        m0, m1, m2 = (decimal.Decimal(float(m)) for m in moduli)
        a, b = ((m * m - m2 * m2).sqrt() for m in (m0, m1))
        p_d = N * m2 * m2
        p_rec = (a + b) ** 2 / ((a * a + b * b) * N)
        return float(p_d + (1 - p_d) * p_rec)


# ---------------------------------------------------------------- encoders
# The encoding dumps must reproduce byte for byte: round every float to 10
# significant digits, then run the standard library encoder.


def reference_float(x) -> float:
    x = float(x)
    if x == 0.0 or not np.isfinite(x):
        return x
    return float(f"{x:.10g}")


def fourier_dense(matrix: Fourier) -> np.ndarray:
    """The (N, N, 2) real and imaginary parts of a Fourier transfer matrix, gathered from
    its documented layout: with 1-based j and r, U_jr is value row j (r - 1) mod N for
    r >= 2 and row N for r = 1."""
    N = len(matrix.values) - 1
    index = np.arange(1, N + 1)[:, None] * np.arange(N) % N
    index[:, 0] = N
    return matrix.values[index]


def reference_dense(arr) -> np.ndarray:
    """The dense array of a report table: t[k, j] = row[(k - j - 1) mod N] of a Circulant,
    fourier_dense of a Fourier matrix, and any other array as it is."""
    if isinstance(arr, Circulant):
        N = len(arr.row)
        return arr.row[(np.arange(N)[:, None] - np.arange(N) - 1) % N]
    if isinstance(arr, Fourier):
        return fourier_dense(arr)
    return np.asarray(arr)


def reference_round(obj):
    if isinstance(obj, dict):
        return {str(k): reference_round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_round(v) for v in obj]
    if isinstance(obj, (np.ndarray, Circulant, Fourier)):
        return reference_round(reference_dense(obj).tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return reference_float(obj)
    return obj


def reference_dumps(payload) -> str:
    return json.dumps(reference_round(payload), indent=2, sort_keys=True) + "\n"


def reference_table_csv(table) -> str:
    lines = ["k,j,p"]
    for k, row in enumerate(reference_dense(table).astype(float), start=1):
        for j, p in enumerate(row, start=1):
            lines.append(f"{k},{j},{reference_float(p):.10g}")
    return "\n".join(lines) + "\n"


def assert_same_text(text: str, want: str) -> None:
    """Fail unless two texts are equal, naming their SHA-256 digests and first differing offset.

    pytest's own diff of two multi-megabyte strings runs for minutes.
    """
    digests = [hashlib.sha256(t.encode()).hexdigest() for t in (text, want)]
    if digests[0] != digests[1]:
        n = min(len(text), len(want))
        a, b = (np.frombuffer(t[:n].encode("utf-32-le"), dtype=np.uint32) for t in (text, want))
        differ = np.flatnonzero(a != b)
        offset = int(differ[0]) if len(differ) else n
        raise AssertionError(
            f"texts differ from offset {offset} ({len(text)} and {len(want)} characters, "
            f"SHA-256 {digests[0]} and {digests[1]}): "
            f"{text[offset:offset + 40]!r} != {want[offset:offset + 40]!r}"
        )
