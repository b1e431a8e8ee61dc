"""Command line interface: exit codes, flag handling, golden outputs."""

import json
import math
import os
import shutil
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

import qsdsim
from qsdsim.cli import DEFAULT_SEED, dispatch

GOLDEN = Path(__file__).parent / "golden"

EXAMPLE_COEFFS = ["0.7", "0.6", "0.3872983346207417"]


def run_cli(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- goldens


def test_golden_min_error_analyze(capsys):
    code, out, err = run_cli(
        capsys, ["min-error", "analyze", "--coincident", "3", "--no-timestamp"]
    )
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "min_error_analyze_coincident3.json").read_text()


def test_golden_multiport_csv(capsys):
    code, out, err = run_cli(
        capsys,
        ["multiport", "table", "--N", "3", "--M", "1", "--coeffs", "0.8", "0.6",
         "--format", "csv"],
    )
    assert code == 0
    assert out == (GOLDEN / "multiport_table_n3.csv").read_text()


def test_golden_unambiguous_analyze_sfg(capsys):
    code, out, err = run_cli(
        capsys,
        ["unambiguous", "analyze", "--coincident", "3", "--mechanism", "sfg",
         "--no-timestamp"],
    )
    assert code == 0
    assert out == (GOLDEN / "unambiguous_analyze_sfg_coincident3.json").read_text()


def test_golden_pipeline_sfg_recover(capsys):
    code, out, err = run_cli(
        capsys,
        ["pipeline", "sfg-recover", "--N", "3", "--M", "2", "--coeffs",
         *EXAMPLE_COEFFS, "--trials", "2000", "--seed", "7", "--no-timestamp"],
    )
    assert code == 0
    assert out == (GOLDEN / "pipeline_sfg_recover_example.json").read_text()


# ---------------------------------------------------------------- exit codes


def test_unknown_command_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["no-such-command"])
    assert code == 64
    assert "invalid choice" in err


def test_missing_action_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["min-error"])
    assert code == 64
    assert "usage:" in err


def test_coincident_conflicts_with_explicit_flags(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--coincident", "3", "--coeffs", "1"]
    )
    assert code == 64
    assert "conflicts" in err


def test_family_flags_required(capsys):
    code, out, err = run_cli(capsys, ["family", "validate"])
    assert code == 64
    assert "--coincident" in err


def test_cartesian_and_polar_coeffs_exclusive(capsys):
    code, out, err = run_cli(
        capsys,
        ["family", "validate", "--N", "2", "--M", "1", "--coeffs", "0.8", "0.6",
         "--coeffs-polar", "1,0"],
    )
    assert code == 64
    assert "mutually exclusive" in err


def test_unnormalized_family_is_parameter_error(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--N", "3", "--M", "1", "--coeffs", "0.5", "0.5"]
    )
    assert code == 1
    assert err.startswith("invalid family (not-normalized)")


def test_nan_coefficient_is_parameter_error(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--N", "3", "--M", "1", "--coeffs", "nan", "0.6"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("invalid family (non-finite-coefficient)")


def test_non_finite_report_value_is_error(capsys, monkeypatch):
    # finite, but rounds to inf at 10 significant digits
    monkeypatch.setattr(
        "qsdsim.cli.success_probability_analytic", lambda family: 1.7976931348623157e308
    )
    code, out, err = run_cli(capsys, ["family", "validate", "--coincident", "3"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err
    assert len(err.splitlines()) == 1


def test_malformed_coefficient_is_parameter_error(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--N", "2", "--M", "1", "--coeffs", "abc", "0.6"]
    )
    assert code == 1
    assert err.startswith("error:")


def test_infeasible_schedule_exit_code(capsys):
    # |c_2| largest: absorption cannot level amplitudes down to it
    with pytest.warns(UserWarning):
        code, out, err = run_cli(
            capsys,
            ["unambiguous", "analyze", "--N", "3", "--M", "2", "--coeffs",
             EXAMPLE_COEFFS[2], "0.6", "0.7", "--mechanism", "tpa"],
        )
    assert code == 2
    assert err.startswith("infeasible schedule:")


def test_csv_rejected_where_no_table_exists(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--coincident", "3", "--format", "csv"]
    )
    assert code == 1
    assert "no CSV form" in err


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["--help"])
    assert info.value.code == 0
    assert "usage: qsdsim" in capsys.readouterr().out


def test_multiport_rejects_two_photon_family(capsys):
    code, out, err = run_cli(capsys, ["multiport", "table", "--coincident", "3"])
    assert code == 1
    assert out == ""
    assert err == "error: the multiport takes single-photon (M = 1) families\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--gamma", "--eta"])
def test_atom_detector_largest_float_is_one_error_line(capsys, flag):
    # the echoed flag value rounds to inf at 10 digits, so no report can be written
    code, out, err = run_cli(
        capsys, ["atom-detector", "--coincident", "3", flag, "1.7976931348623157e308"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--eta", "1e200"], ["--gamma", "1e-9"]])
def test_atom_detector_extreme_width_is_finite(capsys, flags):
    code, out, err = run_cli(
        capsys, ["atom-detector", "--coincident", "3", *flags, "--no-timestamp"]
    )
    assert code == 0
    assert err == ""
    for row in json.loads(out)["rows"]:
        assert all(math.isfinite(v) for v in row.values())
        # Gamma / eta <= 1e-9: the average sits at its Gamma -> 0 limit
        assert abs(row["numeric"] - row["gamma_to_zero_limit"]) <= 1e-8 * row["detection_overlap"]
        assert abs(row["numeric"] - row["analytic_rabi_sqrt6"]) <= 1e-8 * row["numeric"]


# ---------------------------------------------------------------- payloads


def test_family_validate_independent_family(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--coincident", "3", "--no-timestamp"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["N"] == 3
    assert payload["family"]["coeffs"][1] == [0.7071067812, 0.0]
    assert payload["linearly_independent"] is True
    assert payload["min_error_success"] == 0.9714045208
    assert payload["unambiguous_success"] == 0.75


def test_family_validate_dependent_family(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--coincident", "4", "--no-timestamp"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["linearly_independent"] is False
    assert payload["min_error_success"] == 0.7285533906
    assert payload["unambiguous_success"] is None


def test_polar_coefficients_accepted(capsys):
    code, out, err = run_cli(
        capsys,
        ["family", "validate", "--N", "3", "--M", "1", "--coeffs-polar",
         "0.8,0.0", "0.6,1.5707963267948966", "--no-timestamp"],
    )
    assert code == 0
    payload = json.loads(out)
    re, im = payload["family"]["coeffs"][1]
    assert abs(re) < 1e-15 and abs(im - 0.6) < 1e-15


def test_multiport_json_payload(capsys):
    code, out, err = run_cli(
        capsys,
        ["multiport", "table", "--N", "3", "--M", "1", "--coeffs", "0.8", "0.6",
         "--no-timestamp"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"][0][0] == [0.5773502692, 0.0]
    assert payload["success_probability"] == 0.6533333333
    assert len(payload["click_table"]) == 3


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QSD_SEED", "31415")
    code, out, err = run_cli(
        capsys,
        ["min-error", "simulate", "--coincident", "3", "--trials", "200",
         "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out)["seed"] == 31415


def test_seed_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("QSD_SEED", "31415")
    code, out, err = run_cli(
        capsys,
        ["min-error", "simulate", "--coincident", "3", "--trials", "200",
         "--seed", "7", "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_default_seed_without_environment(capsys, monkeypatch):
    monkeypatch.delenv("QSD_SEED", raising=False)
    code, out, err = run_cli(
        capsys,
        ["min-error", "simulate", "--coincident", "3", "--trials", "200",
         "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out)["seed"] == DEFAULT_SEED


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        ["min-error", "analyze", "--coincident", "3", "--no-timestamp",
         "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "min_error_analyze_coincident3.json").read_text()


def test_unwritable_out_is_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys,
        ["multiport", "table", "--N", "3", "--M", "1", "--coeffs", "0.8", "0.6",
         "--out", str(target)],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_timestamp_present_by_default(capsys):
    code, out, err = run_cli(capsys, ["min-error", "analyze", "--coincident", "3"])
    assert code == 0
    payload = json.loads(out)
    stamp = datetime.fromisoformat(payload["timestamp"])
    assert stamp.tzinfo is not None


def test_min_error_csv_format(capsys):
    code, out, err = run_cli(
        capsys, ["min-error", "analyze", "--coincident", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,j,p"
    assert lines[1] == "1,1,0.9714045208"
    assert len(lines) == 10


def test_atom_detector_payload(capsys):
    code, out, err = run_cli(
        capsys,
        ["atom-detector", "--coincident", "3", "--eta", "1.0", "--gamma", "2.0",
         "--no-timestamp"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["detector_k"] == 1
    assert len(payload["alpha"]) == 3
    for re, im in payload["alpha"]:
        assert abs((re * re + im * im) - 1.0 / 3.0) < 1e-9
    rows = payload["rows"]
    assert [row["field_k"] for row in rows] == [1, 2, 3]
    # detector tuned to k=1: the diagonal overlap is the analytic success rate
    assert abs(rows[0]["detection_overlap"] - 0.9714045207910318) < 1e-8
    for row in rows:
        overlap = row["detection_overlap"]
        # at Gamma = 2 eta the waiting-time average is overlap / 7
        assert abs(row["numeric"] - overlap / 7.0) < 1e-8
        assert abs(row["analytic_rabi_sqrt6"] - overlap / 7.0) < 1e-8
        assert abs(row["analytic_rabi_sqrt3"] - overlap / 8.0) < 1e-8
        assert abs(row["gamma_to_zero_limit"] - overlap / 6.0) < 1e-8


# ---------------------------------------------------------------- process level


def test_module_invocation_matches_golden():
    result = subprocess.run(
        [sys.executable, "-m", "qsdsim", "min-error", "analyze", "--coincident", "3",
         "--no-timestamp"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "min_error_analyze_coincident3.json").read_text()


def test_cli_import_leaves_scipy_out():
    src = str(Path(qsdsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, qsdsim.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_console_script_usage_exit_code():
    exe = shutil.which("qsdsim")
    cmd = [exe] if exe else [sys.executable, "-m", "qsdsim"]
    result = subprocess.run(cmd + ["no-such-command"], capture_output=True, text=True)
    assert result.returncode == 64
