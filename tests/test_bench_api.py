"""The library calls the benchmark makes, run through its own api module.

`perfbench/api.py` binds the qsdsim names the benchmark's in-process
workload calls, and the benchmark's files stay fixed while the library
changes under them.  These tests run those calls as the workload does, so
an API change that would break the benchmark fails here first.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

API_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "api.py"
EXAMPLE = (0.7, 0.6, np.sqrt(0.15))


@pytest.fixture(scope="module")
def api():
    spec = importlib.util.spec_from_file_location("perfbench_api", API_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_atom_entry_takes_a_family_row(api, k, j):
    family = api.make_family(3, 2, EXAMPLE)
    basis = api.build_basis(2, 2, ())
    states = api.family_states(family, basis, api.two_photon_labels(basis))
    result = api.atom_excitation_avg(api.detector_atom_model(family, k, 1.0, 2.0), states[j - 1])
    # overlap |sum_l |c_l| e^{i 2 pi l (j - k) / 3}|^2 / 3, weighted 4 eta^2 / (Gamma^2 + 24 eta^2)
    amp = np.sum(np.abs(EXAMPLE) * np.exp(2j * np.pi * np.arange(3) * (j - k) / 3))
    expected = abs(amp) ** 2 / 3.0 * 4.0 / (4.0 + 24.0)
    assert result.analytic_rabi_sqrt6 == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert abs(result.numeric - result.analytic_rabi_sqrt6) <= 1e-6 * result.analytic_rabi_sqrt6


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_entry_serializes(api, fmt):
    N = 32
    family = api.make_family(N, 1, (0.8, 0.6))
    report = api.min_error_report(family)
    table = np.asarray(report["outcome_table"])
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.diag(table) - (0.8 + 0.6) ** 2 / N)) < 1e-12
    if fmt == "json":
        serialized = np.asarray(json.loads(api.dumps(report))["outcome_table"])
    else:
        rows = [line.split(",") for line in api.table_csv(report["outcome_table"]).splitlines()[1:]]
        serialized = np.array([float(p) for _, _, p in rows]).reshape(N, N)
    assert np.allclose(serialized, table, rtol=5e-10, atol=0.0)
