import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim import minerror, multiport
from qsdsim.families import coincident_family, make_family, phase_matrix, root_error, roots_of_unity
from qsdsim.minerror import min_error_report, outcome_table, success_probability_analytic
from qsdsim.multiport import (
    UNITARITY_TOL,
    build_multiport,
    multiport_report,
)
from qsdsim.serialize import Fourier
from qsdsim.tolerances import require_small
from qsdsim.unambiguous import inconclusive_family
from reference import (
    apply_root_moves,
    fourier_dense,
    install_root_table,
    root_moves,
    root_table_distance,
    unitarity_deviation,
)

RECOVERED_P_C = 0.657221556748785
RECOVERED_OFFDIAG = 0.17138922162560755
# arg c_1 - arg c_0 of a pair with arg c_0 = 0.3 and arg c_1 = -1.1
OFFSET = -1.1 - 0.3


def _random_single_photon_family(rng, N, complex_coeffs=True):
    while True:
        c = rng.normal(size=2) + (1j * rng.normal(size=2) if complex_coeffs else 0)
        c = c / np.linalg.norm(c)
        if np.min(np.abs(c)) > 0.2:
            return make_family(N, 1, c)


def _dense(matrix: Fourier) -> np.ndarray:
    """The complex N x N transfer matrix, densified from its (N, N, 2) real and imaginary parts."""
    return fourier_dense(matrix).view(complex)[..., 0]


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 256])
def test_multiport_is_unitary(N):
    U = _dense(build_multiport(N, OFFSET))
    dev = np.max(np.abs(U.conj().T @ U - np.eye(N)))
    assert dev < 1e-10


STRUCTURE_NS = [*range(2, 41), 64, 255, 256, 257]


def _bits(z: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(z).view(np.int64)


@pytest.mark.parametrize("N", [*STRUCTURE_NS, 1024, 2048, 4096])
def test_root_error_covers_the_table_distance(N):
    assert root_error(N) >= root_table_distance(roots_of_unity(N))


@pytest.mark.parametrize("N", STRUCTURE_NS)
def test_transfer_matrix_entries_depend_on_j_r_mod_n(N):
    """U[j, r] and U[j', r'] (r, r' >= 2) are bit-equal when j (r - 1) = j' (r' - 1) mod N."""
    cols = _dense(build_multiport(N, OFFSET))[:, 1:].ravel()
    residue = (np.arange(1, N + 1)[:, None] * np.arange(1, N) % N).ravel()
    _, first, cls = np.unique(residue, return_index=True, return_inverse=True)
    assert np.array_equal(_bits(cols), _bits(cols[first][cls]))


@pytest.mark.parametrize("N", STRUCTURE_NS)
def test_fed_columns_match_per_entry_formula(N):
    """Column 0 is bit-identical to e^{i offset} / sqrt N, and every column past it
    to the per-entry formula U_{jr} = e^{-i 2 pi j (r - 1) / N} / sqrt N.

    The formula takes its exponent as the integer -j (r - 1) reduced mod N, the
    root e^{i 2 pi m / N} at m = (-j (r - 1)) mod N, so U_{N2} is exactly 1 / sqrt N.
    """
    U = _dense(build_multiport(N, OFFSET))
    js = np.arange(1, N + 1)[:, None]
    per_entry = np.exp(2j * np.pi * (-js * np.arange(1, N) % N) / N) / np.sqrt(N)
    column_0 = np.full(N, np.exp(1j * OFFSET) / np.sqrt(N))
    assert np.array_equal(_bits(U[:, 0]), _bits(column_0))
    assert np.array_equal(_bits(U[:, 1:]), _bits(per_entry))
    assert np.array_equal(_bits(U[-1, 1]), _bits(np.complex128(1.0 / np.sqrt(N))))


@pytest.mark.parametrize("N", STRUCTURE_NS)
def test_click_table_matches_full_product(N):
    """The table agrees with that of the zero-padded N x N product with the dense matrix.

    Entries near a cancellation carry the rounding of their two summands, so
    the absolute tolerance scales with the largest entry.
    """
    fam = _random_single_photon_family(np.random.default_rng(N), N)
    report = multiport_report(fam)
    inputs = np.zeros((N, N), dtype=complex)
    inputs[:, :2] = np.asarray(fam.coeffs) * phase_matrix(fam)
    full = np.abs(inputs @ _dense(report["matrix"]).T) ** 2
    table = np.asarray(report["click_table"])
    np.testing.assert_allclose(table, full, rtol=1e-14, atol=1e-14 * full.max())


@pytest.mark.parametrize("N", STRUCTURE_NS)
def test_click_table_rows_are_cyclic_shifts(N):
    """p(j|k) depends on k - j only, so row k is row 1 shifted by k - 1, bit for bit."""
    family = _random_single_photon_family(np.random.default_rng(N), N)
    table = np.asarray(multiport_report(family)["click_table"])
    shifts = np.array([np.roll(table[0], k) for k in range(N)])
    assert np.array_equal(table.view(np.int64), shifts.view(np.int64))


def test_multiport_entries_n3():
    mp = build_multiport(3)
    w = np.exp(-2j * np.pi / 3.0)
    s = 1.0 / np.sqrt(3.0)
    # row j (1-based): [1, w^j, w^{2j}] / sqrt(3)
    want = s * np.array(
        [[1, w, w**2], [1, w**2, w**4], [1, w**3, w**6]], dtype=complex
    )
    assert np.max(np.abs(_dense(mp) - want)) < 1e-12
    assert np.array_equal(mp.values[3], [1.0 / np.sqrt(3.0), 0.0])


def test_multiport_column_one_carries_phase_offset():
    mp = build_multiport(4, 0.9 - 0.2)
    assert np.allclose(_dense(mp)[:, 0], np.exp(0.7j) / 2.0)


@pytest.mark.parametrize("seed,N", [(0, 2), (1, 3), (2, 4), (3, 6), (4, 9)])
def test_click_table_matches_cosine_form(seed, N):
    """p(j|k) = [1 + 2 |c_0||c_1| cos(2 pi (k - j) / N)] / N."""
    rng = np.random.default_rng(seed)
    fam = _random_single_photon_family(rng, N)
    table = np.asarray(multiport_report(fam)["click_table"])
    m0, m1 = np.abs(fam.coeffs)
    ks, js = np.meshgrid(np.arange(1, N + 1), np.arange(1, N + 1), indexing="ij")
    want = (1.0 + 2.0 * m0 * m1 * np.cos(2.0 * np.pi * (ks - js) / N)) / N
    assert np.max(np.abs(table - want)) < 1e-12


@pytest.mark.parametrize("seed,N", [(5, 3), (6, 5)])
def test_multiport_reproduces_detection_state_outcomes(seed, N):
    """The interferometer click table equals the square-root measurement table."""
    rng = np.random.default_rng(seed)
    fam = _random_single_photon_family(rng, N)
    table = np.asarray(multiport_report(fam)["click_table"])
    assert np.max(np.abs(table - outcome_table(fam))) < 1e-12


def test_multiport_success_probability():
    rng = np.random.default_rng(7)
    for N in (2, 3, 5):
        fam = _random_single_photon_family(rng, N)
        report = multiport_report(fam)
        want = success_probability_analytic(fam)
        assert abs(report["success_probability"] - want) < 1e-12
        assert abs((np.abs(fam.coeffs[0]) + np.abs(fam.coeffs[1])) ** 2 / N - want) < 1e-14


def test_recovered_family_through_multiport():
    """The up-conversion leftovers of the worked example discriminate at 0.6572..."""
    rec = inconclusive_family(make_family(3, 2, (0.7, 0.6, np.sqrt(0.15))))
    report = multiport_report(rec)
    assert abs(report["success_probability"] - RECOVERED_P_C) < 1e-12
    table = np.asarray(report["click_table"])
    assert abs(table[0, 1] - RECOVERED_OFFDIAG) < 1e-12
    assert abs(table[0, 2] - RECOVERED_OFFDIAG) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError, match=r"single-photon \(M = 1\) families"):
        multiport_report(coincident_family(3))  # M = 2 family


def test_multiport_report_payload():
    report = multiport_report(make_family(3, 1, (0.8, 0.6)))
    assert report["N"] == 3
    assert fourier_dense(report["matrix"]).shape == (3, 3, 2)
    assert report["success_probability"] == pytest.approx((0.8 + 0.6) ** 2 / 3.0)
    table = np.asarray(report["click_table"])
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 8, 256])
def test_click_row_entry_off_by_1e9_is_rejected(monkeypatch, N):
    # the click row goes through the same proof as the outcome row: an
    # off-diagonal entry moved by 1e-9 moves its sum past CLOSED_FORM_TOL
    fam = _random_single_photon_family(np.random.default_rng(N), N)
    for size, rejected in ((1e-13, False), (1e-9, True)):

        def nudged(family, row, size=size):
            return minerror.proven_circulant(family, row + np.eye(1, N)[0] * size)

        monkeypatch.setattr(multiport, "proven_circulant", nudged)
        if rejected:
            with pytest.raises(RuntimeError, match="table row is off its closed forms"):
                multiport_report(fam)
        else:
            multiport_report(fam)


def test_unitarity_tolerance_is_pinned():
    assert UNITARITY_TOL == 1e-10


def _dense_from_table(table: np.ndarray, phase_offset: float) -> np.ndarray:
    """The transfer matrix build_multiport gathers from a table of N roots, densified."""
    N = len(table)
    roots = table[-np.arange(N) % N] / np.sqrt(N)
    dense = roots[np.arange(1, N + 1)[:, None] * np.arange(N) % N]
    dense[:, 0] = np.exp(1j * phase_offset) / np.sqrt(N)
    return dense


def _rejected_everywhere(N: int) -> None:
    """build_multiport rejects the installed table, and so does min_error_report."""
    with pytest.raises(ValueError, match="not the closed-form unitary"):
        build_multiport(N, OFFSET)
    with pytest.raises((RuntimeError, ValueError), match="geometric sum|resolve identity"):
        min_error_report(make_family(N, 1, (0.8, 0.6)))


@pytest.mark.parametrize("N", [2, 3, 8, 256])
def test_one_entry_off_by_1e9_is_rejected(monkeypatch, N):
    # one root of the table moves along its phase, so every column that takes it moves too
    for size, rejected in ((1e-12, False), (1e-9, True)):
        install_root_table(monkeypatch, lambda roots: apply_root_moves(roots, [(N // 2, size, True)]))
        if rejected:
            _rejected_everywhere(N)
        else:
            build_multiport(N, OFFSET)
            min_error_report(make_family(N, 1, (0.8, 0.6)))


@pytest.mark.parametrize(
    "N,change",
    [
        (3, "conjugate roots"),
        (8, "conjugate roots"),
        (256, "conjugate roots"),
        (5, "permute roots by 2"),
        (8, "permute roots by 3"),
        (256, "permute roots by 3"),
    ],
)
def test_unitary_that_is_not_the_closed_form_is_rejected(monkeypatch, N, change):
    # conjugation reverses columns 2..N; root m -> root u m with u coprime to N
    # permutes them.  Either way the matrix stays unitary.
    if change == "conjugate roots":
        install_root_table(monkeypatch, np.conj)
    else:
        u = int(change.split()[-1])
        install_root_table(monkeypatch, lambda roots: roots[u * np.arange(N) % N])
    dense = _dense_from_table(multiport.roots_of_unity(N), -1.1 - 0.3)
    assert np.max(np.abs(dense.conj().T @ dense - np.eye(N))) < 1e-10
    _rejected_everywhere(N)


def test_nan_phase_offset_is_rejected():
    # a NaN column used to pass the closed-form check, as NaN > tol is false;
    # an infinite offset warned in exp(1j * offset) before the bound rejected it
    for offset in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not the closed-form unitary"):
            build_multiport(4, offset)


def test_nan_entry_is_rejected(monkeypatch):
    for bad in (complex("nan"), complex("inf")):

        def change(roots):
            roots[5] = bad
            return roots

        install_root_table(monkeypatch, change)
        _rejected_everywhere(8)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unitarity_bound_covers_the_deviation(data):
    N = data.draw(st.integers(2, 200))
    offset = data.draw(st.floats(-np.pi, np.pi))
    moves = data.draw(root_moves(N))
    bounds = []

    def recorded(residual, *args):
        bounds.append(residual)
        return require_small(residual, *args)

    with pytest.MonkeyPatch.context() as patch:
        install_root_table(patch, lambda roots: apply_root_moves(roots, moves))
        patch.setattr(multiport, "require_small", recorded)
        try:
            build_multiport(N, offset)
            rejected = False
        except ValueError as error:
            assert "not the closed-form unitary" in str(error)
            rejected = True
        # the matrix build_multiport holds, or would have held
        with np.errstate(all="ignore"):
            dense = _dense_from_table(multiport.roots_of_unity(N), offset)
    deviation = unitarity_deviation(dense)
    assert not bounds[0] < deviation
    assert rejected or deviation <= UNITARITY_TOL


def test_multiport_is_its_read_only_fourier_values():
    matrix = build_multiport(16, OFFSET)
    assert type(matrix) is Fourier
    assert [f.name for f in dataclasses.fields(matrix)] == ["values"]
    assert matrix.values.shape == (17, 2) and matrix.values.dtype == np.float64
    assert not matrix.values.flags.writeable
    assert list(inspect.signature(build_multiport).parameters) == ["N", "phase_offset"]


@pytest.mark.parametrize("N", [2, 3, 7, 64])
def test_report_carries_the_offset_its_matrix_was_built_with(N):
    """The one phase offset arg c_1 - arg c_0 builds the matrix and is the one reported."""
    fam = _random_single_photon_family(np.random.default_rng(N), N)
    arg_0, arg_1 = np.angle(fam.coeffs)
    report = multiport_report(fam)
    assert report["phase_offset"] == float(arg_1 - arg_0)
    rebuilt = build_multiport(N, report["phase_offset"])
    assert np.array_equal(_bits(report["matrix"].values), _bits(rebuilt.values))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_multiport_report_memory_is_bounded():
    # the report holds no N x N array: the transfer matrix's N x N int64
    # index took the peak to 8.2 MiB, the dense click table and matrix to
    # 26.3 MiB
    assert _peak_bytes(multiport_report, make_family(1024, 1, (0.8, 0.6))) < 2**20


def test_build_multiport_memory_is_linear():
    # N roots and their length-N FFT: 160 MiB when the check was dense
    assert _peak_bytes(build_multiport, 2048) < 2**20
