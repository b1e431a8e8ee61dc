import numpy as np
import pytest

from qsdsim.families import coincident_family, make_family, phase_matrix
from qsdsim.minerror import outcome_table, success_probability_analytic
from qsdsim.multiport import (
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
    """The two fed columns give the table of the zero-padded N x N product bit for bit."""
    fam = _random_single_photon_family(np.random.default_rng(N), N)
    result = min_error_single_photon(fam)
    inputs = np.zeros((N, N), dtype=complex)
    inputs[:, :2] = np.asarray(fam.coeffs) * phase_matrix(fam)
    full = np.abs(inputs @ result.multiport.matrix.T) ** 2
    assert np.array_equal(result.table.view(np.int64), full.view(np.int64))


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
