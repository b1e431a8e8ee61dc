"""The tolerance table and the one check helper every self-check runs through."""

import ast
from pathlib import Path

import numpy as np
import pytest

import qsdsim
from qsdsim import tolerances
from qsdsim.tolerances import require_small

PACKAGE_DIR = Path(qsdsim.__file__).resolve().parent
# each constant at the literal its check compared against before the table existed
PINNED = {
    "NORMALIZATION_TOL": 1e-9,
    "COMPLETENESS_TOL": 1e-9,
    "ORTHOGONALITY_TOL": 1e-9,
    "GEOMETRIC_SUM_TOL": 1e-10,
    "UNITARITY_TOL": 1e-10,
    "FFT_EPS_PER_LEVEL": 8.0,
    "CONTRACTION_TOL": 1e-10,
    "CLOSED_FORM_TOL": 1e-12,
    "UNIFORM_MODULI_TOL": 1e-12,
    "MIN_ERROR_GAP_TOL": 1e-15,
}


def test_every_tolerance_is_pinned():
    table = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert table == PINNED
    assert all(type(value) is float for value in table.values())


def _package_trees():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_no_tolerance_literal_outside_the_table():
    stray = [
        f"{name}:{node.lineno} {node.value!r}"
        for name, tree in _package_trees()
        if name != "tolerances.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-6
    ]
    assert stray == []


def test_tolerances_are_imported_from_the_table_only():
    borrowed = [
        f"{name}:{node.lineno} {alias.name} from {node.module}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "tolerances"
        for alias in node.names
        if alias.name in PINNED
    ]
    assert borrowed == []


def test_require_small_returns_the_worst_residual():
    assert require_small(0.5e-10, 1e-10, "unused") == 0.5e-10
    assert require_small(np.array([1e-12, 3e-11, 0.0]), 1e-10, "unused") == 3e-11
    assert require_small(1e-10, 1e-10, "unused") == 1e-10


def test_require_small_names_the_worst_member():
    with pytest.raises(RuntimeError, match=r"^drift at k = 2: 3\.000e-09$"):
        require_small(np.array([1e-12, 3e-9, 2e-9]), 1e-10, "drift at k = {k}: {residual:.3e}")
    with pytest.raises(ValueError, match=r"^spread 2\.000e-09$"):
        require_small(2e-9, 1e-10, "spread {residual:.3e}", ValueError)


def test_require_small_rejects_nan():
    # `residual > tol` is false for NaN, so a NaN residual used to pass every check
    with pytest.raises(RuntimeError, match="^drift at k = 1: nan$"):
        require_small(np.array([np.nan, 0.0]), 1e-10, "drift at k = {k}: {residual:.3e}")
    with pytest.raises(RuntimeError, match="^drift at k = 3: nan$"):
        require_small(np.array([0.0, 1e-11, np.nan]), 1e-10, "drift at k = {k}: {residual:.3e}")
    with pytest.raises(RuntimeError):
        require_small(float("nan"), 1e-10, "drift {residual:.3e}")
