"""Output checks.  Each raises CheckError with a one-line reason.

The values the checks compare against are computed here from the
coefficients with numpy alone, not by calling qsdsim, so a defect in a
shared helper cannot make a wrong output agree with itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Exact (in-memory) tables: rows sum to one and the diagonal mean equals
# the analytic success probability to this tolerance.
TABLE_TOL = 1e-12
# Reports round every float to 10 significant digits, so a serialized value
# may differ from the exact one by half a unit in the 10th digit.
ROUNDING_REL = 5e-10
RATE_SIGMAS = 5.0
ATOM_REL_TOL = 1e-6


class CheckError(Exception):
    """An operation's output failed its check."""


def _reject_constant(token):
    raise CheckError(f"JSON holds the non-standard constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN, Infinity and -Infinity tokens."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def csv_table(text: str, N: int) -> np.ndarray:
    """Rebuild the N x N table from 'k,j,p' rows with 1-based labels."""
    lines = text.splitlines()
    if not lines or lines[0] != "k,j,p":
        raise CheckError("CSV header is not 'k,j,p'")
    if len(lines) != N * N + 1:
        raise CheckError(f"CSV has {len(lines) - 1} rows, expected {N * N}")
    table = np.full((N, N), np.nan)
    for line in lines[1:]:
        k, j, p = line.split(",")
        table[int(k) - 1, int(j) - 1] = float(p)
    if not np.all(np.isfinite(table)):
        raise CheckError("CSV table has missing or non-finite entries")
    return table


def close(value, exact, tol: float) -> bool:
    """|value - exact| within tol, plus the report rounding of exact."""
    return abs(float(value) - exact) <= tol + ROUNDING_REL * abs(exact)


def rows_sum_to_one(table, serialized: bool) -> None:
    """Every row of a probability table sums to one.

    A serialized table may also carry the rounding of each of its entries.
    """
    t = np.asarray(table, dtype=float)
    if not np.all(np.isfinite(t)):
        raise CheckError("table has non-finite entries")
    allowance = TABLE_TOL + (ROUNDING_REL * np.sum(np.abs(t), axis=1) if serialized else 0.0)
    dev = np.abs(np.sum(t, axis=1) - 1.0)
    bad = np.flatnonzero(dev > allowance)
    if bad.size:
        raise CheckError(f"row {bad[0] + 1} sums to 1 {dev[bad[0]]:+.3e} off")


def diagonal_mean(table, expected: float, serialized: bool) -> None:
    """The mean of the table diagonal is the analytic success probability."""
    mean = float(np.mean(np.diag(np.asarray(table, dtype=float))))
    if not (close(mean, expected, TABLE_TOL) if serialized else abs(mean - expected) <= TABLE_TOL):
        raise CheckError(f"diagonal mean {mean!r} != (sum |c_l|)^2 / N = {expected!r}")


def matches_rounded(serialized, exact) -> None:
    """A serialized table carries the exact one up to the report rounding."""
    s = np.asarray(serialized, dtype=float)
    e = np.asarray(exact, dtype=float)
    if s.shape != e.shape:
        raise CheckError(f"serialized table shape {s.shape} != {e.shape}")
    if np.any(np.abs(s - e) > TABLE_TOL + ROUNDING_REL * np.abs(e)):
        raise CheckError("serialized table differs from the computed one beyond rounding")


def field(report: dict, name: str, exact: float) -> None:
    """A reported analytic value equals the independently computed one."""
    if not close(report[name], exact, TABLE_TOL):
        raise CheckError(f"{name} = {report[name]!r}, expected {exact!r}")


def rate_within_sigma(name: str, empirical: float, analytic: float, trials: int) -> None:
    """A sampled rate lies within RATE_SIGMAS binomial errors of its analytic value."""
    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
    if abs(empirical - analytic) > RATE_SIGMAS * sigma + ROUNDING_REL * abs(analytic):
        raise CheckError(
            f"{name} {empirical!r} is {abs(empirical - analytic) / sigma:.1f} sigma "
            f"from {analytic!r}"
        )


def trial_report(report: dict, trials: int, analytic: dict) -> None:
    """Counts add up to the trials and every rate is within RATE_SIGMAS.

    analytic maps each rate name to its independently computed value.
    """
    if report["trials"] != trials or sum(report["shard_trials"]) != trials:
        raise CheckError(f"report covers {report['trials']} trials, expected {trials}")
    counted = sum(int(np.sum(v)) for k, v in report["counts"].items() if k != "wrong_conclusive")
    if counted != trials:
        raise CheckError(f"counts add up to {counted} trials, expected {trials}")
    for name, exact in analytic.items():
        if not close(report["analytic"][name], exact, TABLE_TOL):
            raise CheckError(f"analytic {name} = {report['analytic'][name]!r}, expected {exact!r}")
        rate_within_sigma(name, report["empirical"][name], exact, trials)


def no_wrong_conclusive(report: dict) -> None:
    """An unambiguous run never makes a wrong conclusive guess."""
    joint = np.asarray(report["counts"]["conclusive_joint"])
    off = int(joint.sum() - np.trace(joint))
    if report["counts"]["wrong_conclusive"] != 0 or off != 0:
        raise CheckError(
            f"wrong conclusive guesses: reported {report['counts']['wrong_conclusive']}, "
            f"off-diagonal count {off}"
        )


def atom_row(numeric: float, analytic: float) -> None:
    """The simulated atom excitation matches the sqrt(6) eta closed form."""
    if not abs(numeric - analytic) <= ATOM_REL_TOL * abs(analytic):
        raise CheckError(f"atom numeric {numeric!r} vs analytic {analytic!r}")


def same_bytes(text: str, golden: str, name: str) -> None:
    if text != golden:
        raise CheckError(f"output differs from golden {name}")


# ----------------------------------------------------------------- analytic values
# These take the coefficient moduli |c_l| of a family.


def p_correct(N: int, mags) -> float:
    """Square-root measurement success (sum_l |c_l|)^2 / N."""
    return float(np.sum(mags) ** 2 / N)


def p_conclusive(N: int, mags) -> float:
    """Unambiguous success N min_l |c_l|^2."""
    return float(N * np.min(mags) ** 2)


def p_recovery_overall(N: int, mags) -> float:
    """Conversion plus retry: P_D + (1 - P_D) P_C of the ancilla family."""
    m0, m1, m2 = mags
    a, b = math.sqrt(m0**2 - m2**2), math.sqrt(m1**2 - m2**2)
    p_rec = (a + b) ** 2 / (a**2 + b**2) / N
    p_d = p_conclusive(N, mags)
    return p_d + (1.0 - p_d) * p_rec


def atom_analytic(N: int, mags, detector_k: int, field_j: int, eta: float, gamma: float) -> float:
    """overlap 4 eta^2 / (Gamma^2 + 24 eta^2) for detector k and field state j.

    overlap = |sum_l |c_l| e^{i 2 pi l (j - k) / N}|^2 / 3.
    """
    ls = np.arange(len(mags))
    amp = np.sum(np.asarray(mags) * np.exp(2j * np.pi * ls * (field_j - detector_k) / N))
    return float(abs(amp) ** 2 / 3.0 * 4.0 * eta**2 / (gamma**2 + 24.0 * eta**2))
