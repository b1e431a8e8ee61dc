"""The tests' independent references: the numeric square-root measurement,
the report encoders and the Fock operators the library does without.

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

The library builds no operator on a Fock basis.  annihilation_matrix and
ancilla_transition_matrix are the dense ladder and ancilla-level matrices
of one, from which the references below write each process out in full.
coincident_ladder_states prepares the coincident family from its ladder
operators, 2^{-1/2} (b_k^dag)^2 |vac>, where the library states its
coefficients.  The library runs both contractions as closed-form scalings
of the three two-photon amplitudes.  contraction_reference runs them from
their Hamiltonians instead: ladder-operator generators on a Fock basis
with three-level ancillas, exponentiated by scipy.linalg.expm at the
reported schedule, and contraction_deviation measures a `Contraction`
record against it; moved_weight reads off a record's arrays the weight
its contraction moved out of the survivors.  The library diagonalizes
the atom's coupling on the four states it connects;
atom_field_hamiltonian is the whole 24 x 24 coupling on the field x atom
basis, and atom_excitation_reference its waiting-time average from that
eigendecomposition.  flat_index spells out the flat index of a state
with its ancilla levels, which the library only ever takes at level 0.

random_coeffs draws the normalized coefficients of the seeded tests, and
peak_bytes measures the traced memory peak of one call.

probability_oracles evaluates every analytic probability a report prints
from the float moduli in 60-digit mpmath: P_C, P_D, the conversion +
retry rates, and the ones that cancel in 1 - P, the error probability P_E
and the inconclusive probability 1 - P_D, as the sums they are.
ten_digits rounds such a value to the 10 significant digits a report
prints.
"""

from __future__ import annotations

import decimal
import hashlib
import importlib
import json
import pkgutil
import tracemalloc

import mpmath
import numpy as np
import scipy.linalg
from hypothesis import strategies as st

import qsdsim
from qsdsim.channels import ATOM_LEVELS, AtomFieldModel, sfg_schedule, tpa_schedule
from qsdsim.families import (
    FamilyError,
    SymmetricFamily,
    family_states,
    phase_matrix,
    roots_of_unity,
    two_photon_labels,
)
from qsdsim.fock import FockBasis, build_basis
from qsdsim.serialize import Circulant, Fourier
from qsdsim.tolerances import DEGENERACY_TOL, UNIFORM_MODULI_TOL
from qsdsim.unambiguous import Contraction, success_probability_ud

HERMITICITY_TOL = 1e-10
# the atom's excited level, after its three ground levels
ATOM_EXCITED = 3
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
    states = family_states(family, *single_mode(family))
    contracted = states * (np.min(family.moduli) / family.moduli)
    detection = srm_states_numeric(states)
    scale = np.sqrt(success_probability_ud(family))
    return float(np.max(np.abs(contracted - scale * detection)))


def annihilation_matrix(basis: FockBasis, mode: int) -> np.ndarray:
    """Bosonic annihilation operator for one mode (0-based index).

    <n - e_mode| a |n> = sqrt(n_mode); identity on all ancilla factors.
    Transitions out of the truncated basis are dropped, so a^dag restricted
    to sectors below the cutoff still satisfies [a, a^dag] = 1.
    """
    n_occ = len(basis.occupations)
    field = np.zeros((n_occ, n_occ), dtype=complex)
    for col, occ in enumerate(basis.occupations):
        if occ[mode] > 0:
            target = list(occ)
            target[mode] -= 1
            field[basis.occupation_index(tuple(target)), col] = np.sqrt(occ[mode])
    return np.kron(field, np.eye(basis.ancilla_size))


def ancilla_transition_matrix(basis: FockBasis, which: int, upper: int, lower: int) -> np.ndarray:
    """|upper><lower| on ancilla factor `which`, identity elsewhere.

    `which` indexes basis.ancilla_dims, and both levels lie below that
    factor's dimension.
    """
    dims = basis.ancilla_dims
    local = np.zeros((dims[which], dims[which]), dtype=complex)
    local[upper, lower] = 1.0
    mat = np.eye(len(basis.occupations), dtype=complex)
    for pos, dim in enumerate(dims):
        mat = np.kron(mat, local if pos == which else np.eye(dim))
    return mat


def coincident_ladder_states(family: SymmetricFamily) -> np.ndarray:
    """(N, 6) amplitudes of 2^{-1/2} (b_k^dag)^2 |vac> on build_basis(2, 2), row k - 1 for member k.

    b_k^dag = (a_1^dag + z a_2^dag) / sqrt(2) with z = e^{i 2 pi k / N}
    taken from the family's phase_matrix, applied twice to the vacuum
    through the ladder matrices.
    """
    basis = build_basis(2, 2)
    vac = basis.index_of((0, 0))
    a1d, a2d = (annihilation_matrix(basis, m).conj().T for m in (0, 1))
    # row k - 1 of each stage belongs to b_k^dag
    z = phase_matrix(family)[:, 1:2]
    once = (a1d[:, vac] + z * a2d[:, vac]) / np.sqrt(2.0)
    twice = (once @ a1d.T + z * (once @ a2d.T)) / np.sqrt(2.0)
    return twice / np.sqrt(2.0)


def flat_index(basis: FockBasis, occupation, ancilla_levels=()) -> int:
    """Flat index of |occupation> x |ancilla_levels>, one level per ancilla (level 0 if left out).

    The levels ravel row-major, first ancilla slowest, below the occupation
    index times the ancilla size: the ordering convention fock documents.
    """
    flat = 0
    for level, dim in zip(ancilla_levels, basis.ancilla_dims):
        flat = flat * dim + level
    return basis.occupation_index(occupation) * basis.ancilla_size + flat


def contraction_reference(family: SymmetricFamily, mechanism: str):
    """(survivors, branch, outside) of one contraction of the members, from its Hamiltonian.

    "tpa" exponentiates the no-jump generators -(1/2) a_1^dag a_1^dag a_1 a_1
    and -(1/2) a_1^dag a_2^dag a_1 a_2 on build_basis(2, 2); "sfg" the pair
    conversions (1/2)(a_1^dag a_1^dag b_A - a_1 a_1 b_A^dag) and
    (1/2)(a_1^dag a_2^dag b_B - a_1 a_2 b_B^dag) on build_basis(2, 2, (3, 3)),
    where a third ancilla level would show any conversion past one photon.
    Each generator is weighted by its product of the reported schedule and
    both are exponentiated together, in one scipy.linalg.expm, so a
    library that rotated one pair after the other agrees only if the two
    commute on the members.  survivors (N, 6) are the ancilla-empty
    amplitudes; branch (N, 2) the amplitudes on |0,0>|1_A 0_B> and
    |0,0>|0_A 1_B> times -(c_0 / |c_0|)^*, the phase of
    Contraction.inconclusive (None for tpa); outside (N,) the norm on every
    other state.
    """
    sfg = mechanism == "sfg"
    basis = build_basis(2, 2, (3, 3) if sfg else ())
    a1, a2 = (annihilation_matrix(basis, mode) for mode in (0, 1))
    c1, c2 = a1.conj().T, a2.conj().T
    if sfg:
        schedule = sfg_schedule(family)
        b_a, b_b = (
            sum(np.sqrt(lev) * ancilla_transition_matrix(basis, which, lev - 1, lev) for lev in (1, 2))
            for which in (0, 1)
        )
        generators = (
            c1 @ c1 @ b_a - a1 @ a1 @ b_a.conj().T,
            c1 @ c2 @ b_b - a1 @ a2 @ b_b.conj().T,
        )
    else:
        schedule = tpa_schedule(family)
        generators = (-c1 @ c1 @ a1 @ a1, -c1 @ c2 @ a1 @ a2)
    U = scipy.linalg.expm(0.5 * (schedule[0] * generators[0] + schedule[1] * generators[1]))
    out = family_states(family, basis, two_photon_labels(basis)) @ U.T
    empty = [flat_index(basis, occ) for occ in basis.occupations]
    excited = [flat_index(basis, (0, 0), levels) for levels in ((1, 0), (0, 1))] if sfg else []
    branch = -out[:, excited] * family.unit_phases[0].conjugate() if sfg else None
    outside = np.linalg.norm(np.delete(out, empty + excited, axis=1), axis=1)
    return out[:, empty], branch, outside


def moved_weight(run: Contraction, family: SymmetricFamily) -> float:
    """The weight a contraction moved out of its survivors, 1 - P_D for a normalized family.

    For tpa the input norm sum |c_l|^2 less the survivors' mean squared
    norm (the absorbed weight), for sfg the mean squared norm of the
    up-converted branch amplitudes.
    """
    if run.inconclusive is None:
        kept = np.mean(np.sum(np.abs(run.conclusive) ** 2, axis=1))
        return float(np.sum(family.moduli**2) - kept)
    return float(np.mean(np.sum(np.abs(run.inconclusive) ** 2, axis=1)))


def contraction_deviation(run: Contraction, family: SymmetricFamily, mechanism: str) -> float:
    """Largest distance of a `Contraction` from contraction_reference, over every field it holds.

    The survivors on |0,2>, |1,1>, |2,0> (the record's column order, that of
    build_basis(2, 2)) and the branch amplitudes entry by entry, success
    against the survivors' mean squared norm, the record's moved_weight
    against the branch's (tpa: the input norm less the survivors'), and the
    norm outside both, the survivors' other three Fock amplitudes included,
    which should be 0.
    """
    survivors, branch, outside = contraction_reference(family, mechanism)
    pairs = sorted(two_photon_labels(build_basis(2, 2)))
    outside = np.hypot(outside, np.linalg.norm(np.delete(survivors, pairs, axis=1), axis=1))
    survivors = survivors[:, pairs]
    success = np.mean(np.sum(np.abs(survivors) ** 2, axis=1))
    if branch is None:
        assert run.inconclusive is None
        inconclusive, amplitudes = np.sum(family.moduli**2) - success, 0.0
    else:
        inconclusive = np.mean(np.sum(np.abs(branch) ** 2, axis=1))
        amplitudes = np.max(np.abs(run.inconclusive - branch))
    return float(max(
        np.max(np.abs(run.conclusive - survivors)),
        amplitudes,
        abs(run.success - success),
        abs(moved_weight(run, family) - inconclusive),
        np.max(outside),
    ))


def atom_field_hamiltonian(eta: float, joint: FockBasis) -> np.ndarray:
    """The two-photon Raman-like coupling of AtomFieldModel on a (2-mode field) x (atom) basis."""
    A1 = annihilation_matrix(joint, 0)
    A2 = annihilation_matrix(joint, 1)
    raised = [ancilla_transition_matrix(joint, 0, ATOM_EXCITED, g) for g in range(3)]
    coupling = eta * (
        A1 @ A1 @ raised[0] + np.sqrt(2.0) * A1 @ A2 @ raised[1] + A2 @ A2 @ raised[2]
    )
    return coupling + coupling.conj().T


def atom_excitation_reference(model: AtomFieldModel, field) -> float:
    """The waiting-time averaged excitation probability of channels.atom_excitation_avg, on all 24 states.

    The atom starts in model.alpha beside the whole 6-amplitude field, and
    atom_field_hamiltonian(1.0) on build_basis(2, 2, (4,)) is diagonalized
    whole, with levels within DEGENERACY_TOL rejoined.  The average is the
    same closed form over the waiting time, summed over every excited-level
    basis state, with eta and Gamma divided by max(Gamma, |eta|).
    """
    joint = build_basis(2, 2, (ATOM_LEVELS,))
    w, V = np.linalg.eigh(atom_field_hamiltonian(1.0, joint))
    dw = w[:, None] - w[None, :]
    dw[np.abs(dw) <= DEGENERACY_TOL] = 0.0
    psi0 = np.outer(np.asarray(field, dtype=complex), [*model.alpha, 0.0]).reshape(-1)
    excited = V[ATOM_EXCITED::ATOM_LEVELS].T
    scale = max(model.Gamma, abs(model.eta))
    gamma, eta = model.Gamma / scale, model.eta / scale
    kernel = np.zeros_like(dw, dtype=complex)
    np.divide(-1j * eta * dw, gamma + 1j * eta * dw, out=kernel, where=dw != 0.0)
    amps = (V.conj().T @ psi0)[:, None] * excited  # x_m <e|m>
    return float(np.sum((amps @ amps.conj().T) * kernel).real)


def probability_oracles(family: SymmetricFamily) -> dict:
    """The family's analytic probabilities, as 60-digit mpf.

    success is P_C = (sum_l |c_l|)^2 / N, and error sum_l |c_l|^2 - P_C, the
    outcome table's off-diagonal mass.  For N == M + 1, conclusive is
    P_D = N min_l |c_l|^2 and inconclusive sum_l |c_l|^2 - P_D.  For the
    two-photon family (M = 2), recovery is the retry's success P_rec and
    overall P_D + (1 - P_D) P_rec, as the library defines it.  P_rec is the
    ancilla family's P_C, (a + b)^2 / ((a^2 + b^2) N) with
    a, b = sqrt(|c_0|^2 - |c_2|^2), sqrt(|c_1|^2 - |c_2|^2), when |c_2| is
    below both.  A |c_2| that ties with |c_0| or |c_1| (exceeds it by at
    most a relative UNIFORM_MODULI_TOL) leaves the family uninformative,
    and the uniform guess gives 1 / N.  A larger |c_2| is an order the
    conversion cannot run, and the library raises ScheduleError: neither
    rate is given.  Every value is taken from the float moduli, which convert
    to mpf exactly, so a near-uniform family's differences, those of
    moduli a rounding apart included, keep every digit 1 - P throws away.
    """
    with mpmath.workdps(60):
        N = family.N
        m = [mpmath.mpf(float(x)) for x in family.moduli]
        norm2 = mpmath.fsum(x * x for x in m)
        p_c = mpmath.fsum(m) ** 2 / N
        oracles = {"success": p_c, "error": norm2 - p_c}
        if family.linearly_independent:
            p_d = N * min(m) ** 2
            oracles.update(conclusive=p_d, inconclusive=norm2 - p_d)
        if family.linearly_independent and family.M == 2:
            m0, m1, m2 = m
            if m2 < min(m0, m1):
                a, b = (mpmath.sqrt(x * x - m2 * m2) for x in (m0, m1))
                p_rec = (a + b) ** 2 / ((a * a + b * b) * N)
            elif family.moduli[2] <= (1.0 + UNIFORM_MODULI_TOL) * min(family.moduli[:2]):
                p_rec = mpmath.mpf(1) / N
            else:
                return oracles
            oracles.update(recovery=p_rec, overall=p_d + (1 - p_d) * p_rec)
        return oracles


def ten_digits(value) -> float:
    """The float of the correctly rounded 10-significant-digit text of value (mpf or Fraction).

    A report prints a float rounded to 10 significant digits, so the printed
    value of an exact one is this, whenever the float it printed was
    accurate enough to round the same way.
    """
    if isinstance(value, mpmath.mpf):
        exact = decimal.Decimal(mpmath.nstr(value, 60))
    else:
        with decimal.localcontext(decimal.Context(prec=60)):
            exact = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return float(format(exact, ".10g"))


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
    """obj with each float rounded by reference_float and each array dense, as nested lists.

    It takes the types dumps takes, and passes a str, bool, int or None on as it is.
    """
    if isinstance(obj, dict):
        return {k: reference_round(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [reference_round(v) for v in obj]
    if isinstance(obj, (np.ndarray, Circulant, Fourier)):
        return reference_round(reference_dense(obj).tolist())
    if isinstance(obj, float):
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


def random_coeffs(rng, M, real=False):
    """M + 1 normalized Gaussian coefficients, complex unless real, all moduli above 0.1."""
    while True:
        c = rng.normal(size=M + 1) + (0 if real else 1j * rng.normal(size=M + 1))
        c = c / np.linalg.norm(c)
        if np.min(np.abs(c)) > 0.1:
            # smallest modulus last, the order the contraction schedules need
            return c[np.argsort(-np.abs(c))]


def peak_bytes(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak of the memory tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
