import dataclasses
import tracemalloc

import numpy as np
import pytest

from qsdsim.families import coincident_family, make_family, phase_matrix
from qsdsim.minerror import outcome_table, success_probability_analytic
from qsdsim.multiport import (
    UNITARITY_TOL,
    MultiportUnitary,
    build_multiport,
    min_error_single_photon,
    multiport_report,
)
from qsdsim.unambiguous import inconclusive_family

RECOVERED_P_C = 0.657221556748785
RECOVERED_OFFDIAG = 0.17138922162560755


def _random_single_photon_family(rng, N, complex_coeffs=True):
    while True:
        c = rng.normal(size=2) + (1j * rng.normal(size=2) if complex_coeffs else 0)
        c = c / np.linalg.norm(c)
        if np.min(np.abs(c)) > 0.2:
            return make_family(N, 1, c)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 256])
def test_multiport_is_unitary(N):
    mp = build_multiport(N, arg_c0=0.3, arg_c1=-1.1)
    dev = np.max(np.abs(mp.matrix.conj().T @ mp.matrix - np.eye(N)))
    assert dev < 1e-10


STRUCTURE_NS = [*range(2, 41), 64, 255, 256, 257]


def _bits(z: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(z).view(np.int64)


@pytest.mark.parametrize("N", STRUCTURE_NS)
def test_transfer_matrix_entries_depend_on_j_r_mod_n(N):
    """U[j, r] and U[j', r'] (r, r' >= 2) are bit-equal when j (r - 1) = j' (r' - 1) mod N."""
    cols = build_multiport(N, arg_c0=0.3, arg_c1=-1.1).matrix[:, 1:].ravel()
    residue = (np.arange(1, N + 1)[:, None] * np.arange(1, N) % N).ravel()
    _, first, cls = np.unique(residue, return_index=True, return_inverse=True)
    assert np.array_equal(_bits(cols), _bits(cols[first][cls]))


@pytest.mark.parametrize("N", STRUCTURE_NS)
def test_fed_columns_match_per_entry_formula(N):
    """Columns 0 and 1 are bit-identical to e^{i offset} / sqrt N and e^{-i 2 pi j / N} / sqrt N.

    The formula is the per-entry one U_{jr} = e^{-i 2 pi j (r - 1) / N} / sqrt N
    over the unreduced products; the other columns agree with it to rounding.
    """
    mp = build_multiport(N, arg_c0=0.3, arg_c1=-1.1)
    offset = float(-1.1 - 0.3)
    js = np.arange(1, N + 1)[:, None]
    per_entry = np.exp(-2j * np.pi * js * np.arange(1, N) / N) / np.sqrt(N)
    column_0 = np.full(N, np.exp(1j * offset) / np.sqrt(N))
    assert np.array_equal(_bits(mp.matrix[:, 0]), _bits(column_0))
    assert np.array_equal(_bits(mp.matrix[:, 1]), _bits(per_entry[:, 0]))
    assert np.max(np.abs(mp.matrix[:, 1:] - per_entry)) < 1e-13


@pytest.mark.parametrize("N", STRUCTURE_NS)
def test_click_table_matches_full_product(N):
    """The table agrees with that of the zero-padded N x N product with the dense matrix.

    Entries near a cancellation carry the rounding of their two summands, so
    the absolute tolerance scales with the largest entry.
    """
    fam = _random_single_photon_family(np.random.default_rng(N), N)
    result = min_error_single_photon(fam)
    inputs = np.zeros((N, N), dtype=complex)
    inputs[:, :2] = np.asarray(fam.coeffs) * phase_matrix(fam)
    full = np.abs(inputs @ result.multiport.matrix.T) ** 2
    np.testing.assert_allclose(result.table, full, rtol=1e-14, atol=1e-14 * full.max())


@pytest.mark.parametrize("N", STRUCTURE_NS)
def test_click_table_rows_are_cyclic_shifts(N):
    """p(j|k) depends on k - j only, so row k is row 1 shifted by k - 1, bit for bit."""
    table = min_error_single_photon(_random_single_photon_family(np.random.default_rng(N), N)).table
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
    assert np.max(np.abs(mp.matrix - want)) < 1e-12
    assert mp.phase_offset == 0.0


def test_multiport_column_one_carries_phase_offset():
    mp = build_multiport(4, arg_c0=0.2, arg_c1=0.9)
    assert np.allclose(mp.matrix[:, 0], np.exp(0.7j) / 2.0)


@pytest.mark.parametrize("seed,N", [(0, 2), (1, 3), (2, 4), (3, 6), (4, 9)])
def test_click_table_matches_cosine_form(seed, N):
    """p(j|k) = [1 + 2 |c_0||c_1| cos(2 pi (k - j) / N)] / N."""
    rng = np.random.default_rng(seed)
    fam = _random_single_photon_family(rng, N)
    table = min_error_single_photon(fam).table
    m0, m1 = np.abs(fam.coeffs)
    ks, js = np.meshgrid(np.arange(1, N + 1), np.arange(1, N + 1), indexing="ij")
    want = (1.0 + 2.0 * m0 * m1 * np.cos(2.0 * np.pi * (ks - js) / N)) / N
    assert np.max(np.abs(table - want)) < 1e-12


@pytest.mark.parametrize("seed,N", [(5, 3), (6, 5)])
def test_multiport_reproduces_detection_state_outcomes(seed, N):
    """The interferometer click table equals the square-root measurement table."""
    rng = np.random.default_rng(seed)
    fam = _random_single_photon_family(rng, N)
    assert np.max(np.abs(min_error_single_photon(fam).table - outcome_table(fam))) < 1e-12


def test_min_error_single_photon_success():
    rng = np.random.default_rng(7)
    for N in (2, 3, 5):
        fam = _random_single_photon_family(rng, N)
        result = min_error_single_photon(fam)
        want = success_probability_analytic(fam)
        assert abs(result.p_correct - want) < 1e-12
        assert abs((np.abs(fam.coeffs[0]) + np.abs(fam.coeffs[1])) ** 2 / N - want) < 1e-14


def test_recovered_family_through_multiport():
    """The up-conversion leftovers of the worked example discriminate at 0.6572..."""
    rec = inconclusive_family(make_family(3, 2, (0.7, 0.6, np.sqrt(0.15))))
    result = min_error_single_photon(rec)
    assert abs(result.p_correct - RECOVERED_P_C) < 1e-12
    assert abs(result.table[0, 1] - RECOVERED_OFFDIAG) < 1e-12
    assert abs(result.table[0, 2] - RECOVERED_OFFDIAG) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError, match=r"single-photon \(M = 1\) families"):
        min_error_single_photon(coincident_family(3))  # M = 2 family
    with pytest.raises(ValueError):
        build_multiport(1)


def test_multiport_report_payload():
    report = multiport_report(make_family(3, 1, (0.8, 0.6)))
    assert report["N"] == 3
    assert len(report["matrix"]) == 3
    assert report["success_probability"] == pytest.approx((0.8 + 0.6) ** 2 / 3.0)
    table = np.asarray(report["click_table"])
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-12


def test_unitarity_tolerance_is_pinned():
    assert UNITARITY_TOL == 1e-10


@pytest.mark.parametrize("N", [2, 3, 8, 256])
def test_one_entry_off_by_1e9_is_rejected(N):
    # one root moves along its phase, so every column that takes it moves too
    mp = build_multiport(N, arg_c0=0.3, arg_c1=-1.1)
    for size, rejected in ((1e-12, False), (1e-9, True)):
        roots = mp.roots.copy()
        roots[N // 2] += size * roots[N // 2] / abs(roots[N // 2])
        if rejected:
            with pytest.raises(ValueError, match="not the closed-form unitary"):
                MultiportUnitary(roots, mp.phase_offset)
        else:
            MultiportUnitary(roots, mp.phase_offset)


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
def test_unitary_that_is_not_the_closed_form_is_rejected(N, change):
    # conjugation reverses columns 2..N; root m -> root u m with u coprime to N
    # permutes them.  Either way the matrix stays unitary.
    mp = build_multiport(N, arg_c0=0.3, arg_c1=-1.1)
    if change == "conjugate roots":
        roots = mp.roots.conj()
    else:
        u = int(change.split()[-1])
        roots = mp.roots[(u * np.arange(1, N + 1) - 1) % N]
    dense = roots[(np.arange(1, N + 1)[:, None] * np.arange(N) - 1) % N]
    dense[:, 0] = mp.matrix[:, 0]
    assert np.max(np.abs(dense.conj().T @ dense - np.eye(N))) < 1e-10
    with pytest.raises(ValueError, match="not the closed-form unitary"):
        MultiportUnitary(roots, mp.phase_offset)


def test_nan_phase_offset_is_rejected():
    # a NaN column used to pass the closed-form check, as NaN > tol is false
    with pytest.raises(ValueError, match="not the closed-form unitary"):
        build_multiport(4, arg_c0=float("nan"))
    roots = build_multiport(4).roots
    for offset in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not the closed-form unitary"):
            MultiportUnitary(roots, offset)


def test_nan_entry_is_rejected():
    mp = build_multiport(8, arg_c0=0.3, arg_c1=-1.1)
    for bad in (complex("nan"), complex("inf")):
        roots = mp.roots.copy()
        roots[5] = bad
        with pytest.raises(ValueError, match="not the closed-form unitary"):
            MultiportUnitary(roots, mp.phase_offset)


def test_multiport_holds_only_its_roots():
    mp = build_multiport(16, arg_c0=0.3, arg_c1=-1.1)
    assert [f.name for f in dataclasses.fields(mp)] == ["roots", "phase_offset"]
    assert mp.roots.shape == (16,) and mp.N == 16
    assert not mp.roots.flags.writeable
    with pytest.raises(ValueError, match=r"roots shape \(4, 4\) is not \(N,\)"):
        MultiportUnitary(mp.matrix[:4, :4], mp.phase_offset)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_multiport_report_memory_is_bounded():
    # the click table (8 MiB), the dense matrix (16 MiB) and the 1 MiB
    # gather index of one block of rows: 26.2 MiB (32 MiB with an N x N index)
    assert _peak_bytes(multiport_report, make_family(1024, 1, (0.8, 0.6))) < 28 * 2**20


def test_build_multiport_memory_is_linear():
    # N roots and their length-N FFT: 160 MiB when the check was dense
    assert _peak_bytes(build_multiport, 2048) < 2**20
