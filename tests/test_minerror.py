import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.families import (
    coincident_family,
    family_states,
    make_family,
    two_photon_labels,
)
from qsdsim import minerror
from qsdsim.fock import build_basis
from qsdsim.minerror import (
    detection_rows,
    min_error_report,
    outcome_table,
    srm_residual,
    success_probability_analytic,
)
from qsdsim.montecarlo import run_min_error
from qsdsim.multiport import build_multiport
from qsdsim.serialize import dumps
from qsdsim.tolerances import COMPLETENESS_TOL, GEOMETRIC_SUM_TOL, require_small
from qsdsim.unambiguous import ud_report
from reference import (
    apply_root_moves,
    geometric_sum_deviation,
    gram_sum_operator,
    install_root_table,
    label_completeness_deviation,
    outcome_row_reference,
    peak_bytes,
    random_coeffs,
    root_moves,
    single_mode,
    srm_states_numeric,
)

P_C_COINCIDENT = 0.9714045207910318  # (3 + 2 sqrt(2)) / 6
# outcome-table entries lie within this many eps times P_C of the extended-precision
# reference: for the families below the FFT row is at most 2.7 eps P_C off, and the
# matrix product over exp of the unreduced l k was 4.8 to 85 eps P_C off
OUTCOME_EPS_PER_P_C = 4


def test_gram_sum_is_diagonal_with_known_spectrum():
    """For the coincident triple: Phi = 3 diag(1/4, 1/2, 1/4), eigenvalues {3/4, 3/2, 3/4}."""
    fam = coincident_family(3)
    basis = build_basis(2, 2)
    labels = two_photon_labels(basis)
    phi = gram_sum_operator(family_states(fam, basis, labels))
    diag = np.diag(phi).real.copy()
    off = phi - np.diag(np.diag(phi))
    assert np.max(np.abs(off)) < 1e-12
    expect = np.zeros(basis.dimension)
    expect[list(labels)] = [0.75, 1.5, 0.75]
    assert np.max(np.abs(diag - expect)) < 1e-12


@pytest.mark.parametrize(
    "seed,N,M,real",
    [(0, 3, 2, True), (1, 3, 2, False), (2, 4, 2, False), (3, 5, 3, False), (4, 6, 5, False), (5, 4, 1, False)],
)
def test_numeric_equals_closed(seed, N, M, real):
    rng = np.random.default_rng(seed)
    fam = make_family(N, M, random_coeffs(rng, M, real))
    # the numeric states in one mode, |u_l> = |l>, against the rows over |u_0>..|u_M>
    numeric = srm_states_numeric(family_states(fam, *single_mode(fam)))
    closed = detection_rows(fam)
    assert closed.shape == (N, M + 1)
    assert np.max(np.abs(numeric - closed)) < 1e-10


def test_detection_norms_and_frozen_overlap():
    """|mu_k|^2 = (M+1)/N; adjacent detection states of the N = 4 family overlap at i/4."""
    fam = coincident_family(4)
    rows = detection_rows(fam)
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) ** 2 - 0.75)) < 1e-12
    got = np.vdot(rows[0], rows[1])
    assert abs(got - 0.25j) < 1e-12
    assert not min_error_report(fam)["orthogonal"]


def test_linearly_independent_detection_is_orthogonal():
    # for N = M + 1 the mu_k are orthonormal regardless of the coefficients
    fam = make_family(3, 2, (0.7, 0.6, np.sqrt(0.15)))
    rows = detection_rows(fam)
    assert np.max(np.abs(rows @ rows.conj().T - np.eye(3))) < 1e-12


@pytest.mark.parametrize("seed,N,M", [(6, 3, 2), (7, 5, 2), (8, 6, 4)])
def test_completeness_on_span(seed, N, M):
    rng = np.random.default_rng(seed)
    fam = make_family(N, M, random_coeffs(rng, M))
    assert srm_residual(fam) < 1e-10
    rows = detection_rows(fam)
    # independent reconstruction: sum mu mu^dag must be the identity on |u_0>..|u_M>
    S = rows.conj().T @ rows
    assert np.max(np.abs(S - np.eye(M + 1))) < 1e-10


def test_success_probability_frozen_values():
    assert abs(success_probability_analytic(coincident_family(3)) - P_C_COINCIDENT) < 1e-15
    # same family, any N: P_C = (3 + 2 sqrt(2)) / (2N)
    for N in (3, 4, 5, 6):
        want = (3.0 + 2.0 * np.sqrt(2.0)) / (2.0 * N)
        assert abs(success_probability_analytic(coincident_family(N)) - want) < 1e-14


@pytest.mark.parametrize("seed,N,M", [(9, 3, 2), (10, 4, 2), (11, 7, 3)])
def test_outcome_table_diagonal_matches_analytic(seed, N, M):
    rng = np.random.default_rng(seed)
    fam = make_family(N, M, random_coeffs(rng, M))
    table = np.asarray(outcome_table(fam))
    assert table.shape == (N, N)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-12
    p_c = success_probability_analytic(fam)
    assert np.max(np.abs(np.diag(table) - p_c)) < 1e-12
    # cyclic symmetry: p(j|k) depends only on k - j mod N
    for k in range(N):
        assert np.max(np.abs(table[k] - np.roll(table[0], k))) < 1e-12


@pytest.mark.parametrize("N,M", [(500, 499), (1024, 1023), (2048, 2047), (2048, 255), (4096, 17)])
@pytest.mark.parametrize("seed", [0, 1])
def test_outcome_table_is_within_a_few_eps_of_the_extended_reference(N, M, seed):
    rng = np.random.default_rng(seed)
    moduli = np.abs(rng.standard_normal(M + 1))
    fam = make_family(N, M, moduli / np.linalg.norm(moduli))
    reference = outcome_row_reference(fam)
    table = outcome_table(fam)
    bound = OUTCOME_EPS_PER_P_C * np.finfo(float).eps * success_probability_analytic(fam)
    # column N holds p(N|k) at k - j = k mod N, the reference's entry k - 1
    assert np.max(np.abs(table[:, -1] - reference)) <= bound
    # and every other entry repeats one of it: p(j + 1|k + 1) = p(j|k), cyclically
    assert np.array_equal(table[1:, 1:], table[:-1, :-1])
    assert np.array_equal(table[0, 1:], table[-1, :-1])


def test_outcome_row_builds_no_n_by_m_array():
    # the row was |phase_matrix @ |c||^2 / N, through an N x (M + 1) complex array
    fam = make_family(2048, 2047, np.full(2048, 1.0 / np.sqrt(2048)))
    _, peak = peak_bytes(minerror._outcome_row, fam)
    assert peak < 2**20


def _unrolled_row(family):
    """The outcome row's FFT without its roll by one, so entry k - 1 is p at k - j = k - 1."""
    return np.abs(np.fft.fft(family.moduli, n=family.N)) ** 2 / family.N


def _sampled(family):
    return run_min_error(family, 100, 1)


def test_unrolled_outcome_row_is_rejected(monkeypatch):
    # the unrolled row still sums to one, so only its diagonal entry shows the fault
    fam = make_family(5, 1, (0.8, 0.6))
    assert _unrolled_row(fam)[-1] == pytest.approx(0.259, abs=5e-4)
    assert success_probability_analytic(fam) == pytest.approx(0.392, abs=1e-15)
    monkeypatch.setattr(minerror, "_outcome_row", _unrolled_row)
    for build in (min_error_report, outcome_table, _sampled):
        with pytest.raises(RuntimeError, match="table row is off its closed forms"):
            build(fam)


@pytest.mark.parametrize("N,M", [(2, 1), (5, 1), (7, 3), (256, 2)])
def test_outcome_row_entry_off_by_1e9_is_rejected(monkeypatch, N, M):
    # an off-diagonal entry moved by 1e-9 moves the row sum past CLOSED_FORM_TOL; 1e-13 does not
    fam = make_family(N, M, random_coeffs(np.random.default_rng(N), M))
    row = minerror._outcome_row
    for size, rejected in ((1e-13, False), (1e-9, True)):
        nudged = lambda f, size=size: row(f) + np.eye(1, N)[0] * size
        monkeypatch.setattr(minerror, "_outcome_row", nudged)
        for build in (min_error_report, outcome_table, _sampled):
            if rejected:
                with pytest.raises(RuntimeError, match="table row is off its closed forms"):
                    build(fam)
            else:
                build(fam)


def test_row_proof_compares_the_sum_with_the_family_norm():
    # make_family accepts sum |c_l|^2 up to NORMALIZATION_TOL off 1 and keeps it
    moduli = np.array([0.8, 0.6]) * np.sqrt(1.0 + 9e-10)
    fam = make_family(5, 1, moduli)
    assert abs(np.sum(minerror._outcome_row(fam)) - 1.0) > 1e-12
    table = min_error_report(fam)["outcome_table"]
    assert abs(np.sum(table.row) - np.sum(moduli**2)) <= 1e-15


def test_report_builds_no_detection_rows():
    # the report embedded all N x (M + 1) detection rows to take their norms:
    # a 768.6 MiB peak at this size
    fam = make_family(4096, 4095, np.full(4096, 1.0 / np.sqrt(4096)))
    _, peak = peak_bytes(min_error_report, fam)
    assert peak < 2**20


def _norm_tokens(text: str) -> list[str]:
    """The tokens of the detection_norms_squared array in a dumps text."""
    body = re.search(r'"detection_norms_squared": \[(.*?)\]', text, re.S).group(1)
    return [token.strip() for token in body.split(",")]


def _correctly_rounded(q: Fraction, digits: int = 10) -> str:
    """The positional text of 1e-4 <= q < 1 at `digits` significant digits, ties to even."""
    zeros = 0
    while q * 10 ** (zeros + 1) < 1:
        zeros += 1
    mantissa = round(q * 10 ** (zeros + digits))  # a Fraction rounds its ties to even, as %g does
    assert 10 ** (digits - 1) <= mantissa < 10**digits
    return "0." + "0" * zeros + str(mantissa).rstrip("0")


def _random_phase_family(N: int, M: int, seed: int):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.5, 1.0, M + 1) * np.exp(2j * np.pi * rng.random(M + 1))
    return make_family(N, M, coeffs / np.linalg.norm(coeffs))


@pytest.mark.parametrize("N,M,seed", [(2048, 206, 0), (4096, 40, 11)])
def test_report_norms_print_the_exact_value_correctly_rounded(N, M, seed):
    # (M + 1) / N has 11 significant digits ending in 5 here; the norms of the
    # built rows rounded their noise instead, to 0.1010742187 at N = 2048 and
    # to a mix of 0.01000976562 and 0.01000976563 at N = 4096
    tokens = _norm_tokens(dumps(min_error_report(_random_phase_family(N, M, seed))))
    assert tokens == [_correctly_rounded(Fraction(M + 1, N))] * N


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 299).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N - 1))),
    st.integers(0, 2**32 - 1),
)
def test_report_norms_print_as_the_built_rows_norms(size, seed):
    # below the decimal ties the closed-form norms keep the text of the rows' own
    family = _random_phase_family(*size, seed)
    rows = detection_rows(family)
    built = {"detection_norms_squared": np.linalg.norm(rows, axis=1) ** 2}
    assert _norm_tokens(dumps(min_error_report(family))) == _norm_tokens(dumps(built))


def test_phase_convention_overlap_real_positive():
    rng = np.random.default_rng(12)
    fam = make_family(4, 2, random_coeffs(rng, 2))
    basis, labels = single_mode(fam)
    states = family_states(fam, basis, labels)
    detection = srm_states_numeric(states)
    olap = np.sum(detection.conj() * states, axis=1)
    assert np.all(olap.real > 0)
    assert np.max(np.abs(olap.imag)) < 1e-12
    # <mu_k|psi_k> = sum|c_l| / sqrt(N)
    assert np.max(np.abs(olap - np.sum(np.abs(fam.coeffs)) / 2.0)) < 1e-12


def test_min_error_report_shape():
    report = min_error_report(coincident_family(3))
    assert report["success_probability"] == pytest.approx(P_C_COINCIDENT)
    assert report["error_probability"] == pytest.approx(1.0 - P_C_COINCIDENT)
    assert np.asarray(report["outcome_table"]).shape == (3, 3)
    assert report["completeness_residual"] < 1e-10
    assert report["orthogonal"]
    # every wrong outcome of the coincident triple is equally unlikely
    table = np.asarray(report["outcome_table"])
    off = table[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off - 0.014297739604484177)) < 1e-12


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("[[0.97140452")


def _move_root(patch, m: int, size: float) -> None:
    """Move root m of the table of N roots by size along its phase, in every module."""
    install_root_table(patch, lambda roots: apply_root_moves(roots, [(m, size, True)]))


def _rejected_everywhere(family, error, match) -> None:
    """min_error_report raises error(match), and build_multiport rejects the same table."""
    with pytest.raises(error, match=match):
        min_error_report(family)
    with pytest.raises(ValueError, match="not the closed-form unitary"):
        build_multiport(family.N, 0.0)


@pytest.mark.parametrize("row", [0, 150, 299])
def test_perturbed_detection_row_trips_the_geometric_sum_check(monkeypatch, row):
    # root `row` moved by d moves its entries, of modulus 1 / sqrt(N), by
    # d / sqrt(N); root 0 sits in every row, and in all of row N, so every
    # overlap is bounded by (M + 1) (2 d + d^2) / N = d / 75, and the
    # completeness residual by 2 d + d^2
    fam = make_family(300, 1, (0.8, 0.6))
    _move_root(monkeypatch, row, 4e-10)
    srm_residual(fam)
    _move_root(monkeypatch, row, 1.5e-8)
    with pytest.raises(RuntimeError, match="disagree with the geometric sum") as info:
        srm_residual(fam)
    dev = float(str(info.value).split("dev = ")[1])
    assert 1e-10 < dev < 3e-10
    _rejected_everywhere(fam, RuntimeError, "disagree with the geometric sum")


def test_shifting_every_row_passes_the_overlaps_but_fails_completeness(monkeypatch):
    # root 0 is entry 0 of every row: moved by d = 3e-9 it moves each
    # overlap by at most 2 (2 d + d^2) / N = 4e-11, but puts (1 + d)^2 on the
    # diagonal of the sum of mu_k mu_k^dag: a completeness residual of 2 d + d^2
    fam = make_family(300, 1, (0.8, 0.6))
    _move_root(monkeypatch, 0, 3e-9)
    message = r"^detection states do not resolve identity on their span: residual (\S+)$"
    with pytest.raises(ValueError, match=message) as info:
        srm_residual(fam)
    assert 6e-9 < float(str(info.value).split("residual ")[1]) < 6.01e-9
    _rejected_everywhere(fam, ValueError, message)


@pytest.mark.parametrize("row", [0, 150, 299])
def test_nan_detection_row_trips_the_geometric_sum_check(monkeypatch, row):
    # max(0.0, nan) is 0.0, so a blocked Gram loop used to drop a NaN block
    fam = make_family(300, 1, (0.8, 0.6))
    _move_root(monkeypatch, row, float("nan"))
    message = "disagree with the geometric sum: dev = nan"
    with pytest.raises(RuntimeError, match=message):
        srm_residual(fam)
    _rejected_everywhere(fam, RuntimeError, message)


@st.composite
def perturbed_tables(draw):
    """(family, moves): a random family, N <= 200, with M = 2 (the two-photon
    family's size) half the time, and up to three moves of roots of its
    table (see reference.root_moves)."""
    if draw(st.booleans()):
        N, M = draw(st.integers(3, 200)), 2
    else:
        N = draw(st.integers(2, 200))
        M = draw(st.integers(1, N - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    coeffs = rng.uniform(0.05, 1.0, M + 1) * np.exp(2j * np.pi * rng.random(M + 1))
    family = make_family(N, M, coeffs / np.linalg.norm(coeffs))
    return family, draw(root_moves(N))


@settings(max_examples=200, deadline=None)
@given(perturbed_tables())
def test_overlap_bound_covers_the_gram_deviation(case):
    family, moves = case
    bounds = []

    def recorded(residual, *args):
        bounds.append(residual)
        return require_small(residual, *args)

    with pytest.MonkeyPatch.context() as patch:
        install_root_table(patch, lambda roots: apply_root_moves(roots, moves))
        patch.setattr(minerror, "require_small", recorded)
        try:
            srm_residual(family)
            rejected = False
        except RuntimeError as error:
            assert "disagree with the geometric sum" in str(error)
            rejected = True
        except ValueError as error:
            assert "do not resolve identity on their span" in str(error)
            rejected = True
        # the rows those bounds are proved for
        with np.errstate(all="ignore"):
            rows = detection_rows(family)
    direct = geometric_sum_deviation(rows, family.M)
    assert not np.any(bounds[0] < direct)
    assert rejected or np.max(direct) <= GEOMETRIC_SUM_TOL
    # the completeness bound, once the overlaps pass, against the sum of
    # mu_k mu_k^dag in extended precision
    complete = label_completeness_deviation(rows, range(family.M + 1))
    assert len(bounds) == 1 or not bounds[1] < complete
    assert rejected or complete <= COMPLETENESS_TOL


def test_reports_make_no_eigendecomposition(monkeypatch):
    # the completeness residual came from an eigh of the dim x dim sum of
    # mu_k mu_k^dag, which the equivalence check of ud_report ran as well
    def unreachable(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    rng = np.random.default_rng(13)
    coeffs = rng.uniform(0.5, 1.0, 64) * np.exp(2j * np.pi * rng.random(64))
    fam = make_family(64, 63, coeffs / np.linalg.norm(coeffs))
    monkeypatch.setattr(np.linalg, "eigh", unreachable)
    assert min_error_report(fam)["completeness_residual"] < COMPLETENESS_TOL
    for mechanism in ("tpa", "sfg"):
        ud_report(coincident_family(3), mechanism)


def test_min_error_report_memory_is_bounded():
    # the outcome table is held as its row and a strided index of 2N - 1
    # integers; the dense 8 MiB table took the peak to 8.1 MiB
    fam = make_family(1024, 2, (0.7, 0.6, 0.3872983346207417))
    _, peak = peak_bytes(min_error_report, fam)
    assert peak < 2**20
