"""Every tolerance the package checks against, and the one helper that checks.

`require_small` tests `not residual <= tol`, so a NaN residual fails.
"""

import numpy as np

# |sum |c_l|^2 - 1|, ||alpha| - 1| and an atom's field weight outside two photons
NORMALIZATION_TOL = 1e-9
# bound on max|S - P| of S = sum_k |mu_k><mu_k| against the projector P onto the label span
COMPLETENESS_TOL = 1e-9
# max|<n_j|n_k> - delta_jk| of survivors (detection states overlap by 0 or >= 1/N)
ORTHOGONALITY_TOL = 1e-9
# bound, row by row, on max|<mu_j|mu_k> - geometric sum| of the detection states
GEOMETRIC_SUM_TOL = 1e-10
# bound on max|U^H U - I| of a multiport transfer matrix
UNITARITY_TOL = 1e-10
# 2-norm error of numpy's orthonormal FFT per level of log2 N, in eps times the
# input's 2-norm (sqrt(N) for the table of N roots): about 3.3 for radix 2
# (Higham, Accuracy and Stability of Numerical Algorithms, Thm 24.2);
# mixed-radix and Bluestein plans showed at most 1.5 for N up to 2048
FFT_EPS_PER_LEVEL = 8.0
# drift of a simulated contraction from its closed form, relative to |c_min|
CONTRACTION_TOL = 1e-10
# the sides of an identity exact in real arithmetic, both of order one
CLOSED_FORM_TOL = 1e-12
# moduli spread by at most this are uniform, and then P_D = P_C; the contraction
# schedules take a |c_2| up to this much above |c_l|, relative to |c_l|, as a tie
UNIFORM_MODULI_TOL = 1e-12
# least P_C - P_D of a family whose moduli are not uniform
MIN_ERROR_GAP_TOL = 1e-15
# atom Hamiltonian eigenvalues at most this apart are one degenerate level
DEGENERACY_TOL = 1e-9


def require_small(residual, tol: float, message: str, error: type = RuntimeError) -> float:
    """The largest entry of residual, a scalar or a per-member array, if it is <= tol.

    Otherwise raises error(message.format(residual=worst, k=k)) with k the
    1-based member of the largest entry; a NaN counts as the largest.
    """
    flat = np.ravel(residual)
    k = int(np.argmax(flat))
    if not flat[k] <= tol:
        raise error(message.format(residual=float(flat[k]), k=k + 1))
    return float(flat[k])
