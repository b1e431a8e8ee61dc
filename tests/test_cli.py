"""Command line interface: exit codes, flag handling, golden outputs."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from datetime import datetime
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsdsim
from qsdsim import montecarlo, unambiguous
from qsdsim.channels import ExcitationResult
from qsdsim.cli import COMMANDS, DEFAULT_SEED, _family_from_args, build_parser, dispatch
from qsdsim.montecarlo import MAX_SHARDS
from reference import probability_oracles, ten_digits

GOLDEN = Path(__file__).parent / "golden"

EXAMPLE_COEFFS = ["0.7", "0.6", "0.3872983346207417"]

# one small run of each subcommand; the words before the first flag name it
SUBCOMMANDS = [
    ["family", "validate", "--coincident", "3"],
    ["min-error", "analyze", "--coincident", "3"],
    ["min-error", "simulate", "--coincident", "3", "--trials", "200"],
    ["unambiguous", "analyze", "--coincident", "3", "--mechanism", "sfg"],
    ["unambiguous", "simulate", "--coincident", "3", "--mechanism", "tpa", "--trials", "200"],
    ["pipeline", "sfg-recover", "--N", "3", "--M", "2", "--coeffs", *EXAMPLE_COEFFS,
     "--trials", "200"],
    ["multiport", "table", "--N", "3", "--M", "1", "--coeffs", "0.8", "0.6"],
    ["atom-detector", "--coincident", "3"],
]
SEEDLESS = [argv for argv in SUBCOMMANDS if "--trials" not in argv]

# the top-level usage as argparse wraps it at COLUMNS=80
USAGE = (
    "usage: qsdsim [-h]\n"
    "              {family,min-error,unambiguous,pipeline,multiport,atom-detector}\n"
    "              ...\n"
)


def command_words(argv):
    return " ".join(itertools.takewhile(lambda arg: not arg.startswith("-"), argv))


def run_cli(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- goldens
# Each golden is the stdout of the command above its test, run from the root
# of the repository; a deliberate output change regenerates it with that command.


# PYTHONPATH=src python -m qsdsim min-error analyze --coincident 3 --no-timestamp > tests/golden/min_error_analyze_coincident3.json
def test_golden_min_error_analyze(capsys):
    code, out, err = run_cli(
        capsys, ["min-error", "analyze", "--coincident", "3", "--no-timestamp"]
    )
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "min_error_analyze_coincident3.json").read_text()


# PYTHONPATH=src python -m qsdsim multiport table --N 3 --M 1 --coeffs 0.8 0.6 --format csv > tests/golden/multiport_table_n3.csv
def test_golden_multiport_csv(capsys):
    code, out, err = run_cli(
        capsys,
        ["multiport", "table", "--N", "3", "--M", "1", "--coeffs", "0.8", "0.6",
         "--format", "csv"],
    )
    assert code == 0
    assert out == (GOLDEN / "multiport_table_n3.csv").read_text()


# PYTHONPATH=src python -m qsdsim unambiguous analyze --coincident 3 --mechanism sfg --no-timestamp > tests/golden/unambiguous_analyze_sfg_coincident3.json
def test_golden_unambiguous_analyze_sfg(capsys):
    code, out, err = run_cli(
        capsys,
        ["unambiguous", "analyze", "--coincident", "3", "--mechanism", "sfg",
         "--no-timestamp"],
    )
    assert code == 0
    assert out == (GOLDEN / "unambiguous_analyze_sfg_coincident3.json").read_text()


# PYTHONPATH=src python -m qsdsim pipeline sfg-recover --N 3 --M 2 --coeffs 0.7 0.6 0.3872983346207417 --trials 2000 --seed 7 --no-timestamp > tests/golden/pipeline_sfg_recover_example.json
def test_golden_pipeline_sfg_recover(capsys):
    code, out, err = run_cli(
        capsys,
        ["pipeline", "sfg-recover", "--N", "3", "--M", "2", "--coeffs",
         *EXAMPLE_COEFFS, "--trials", "2000", "--seed", "7", "--no-timestamp"],
    )
    assert code == 0
    assert out == (GOLDEN / "pipeline_sfg_recover_example.json").read_text()


# ---------------------------------------------------------------- README


def readme_subcommands():
    """The argv of each line of the README's "Subcommands:" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Subcommands:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines()]
    assert all(line[0] == "qsdsim" for line in lines)
    return [line[1:] for line in lines]


def test_readme_names_each_command_once_in_table_order():
    assert [tuple(command_words(argv).split()) for argv in readme_subcommands()] == list(COMMANDS)


@pytest.mark.parametrize("argv", readme_subcommands(), ids=command_words)
def test_readme_subcommand_runs(capsys, monkeypatch, argv):
    monkeypatch.delenv("QSD_SEED", raising=False)
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert err == ""
    assert out


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--coincident", "3", "--coeffs", "1"],
         "--coincident conflicts with explicit family flags"),
        ([], "give --coincident N, or --N --M with --coeffs/--coeffs-polar"),
        (["--N", "2", "--M", "1", "--coeffs", "0.8", "0.6", "--coeffs-polar", "1,0"],
         "--coeffs and --coeffs-polar are mutually exclusive"),
    ],
)
def test_family_flag_usage_errors_are_exact(capsys, monkeypatch, flags, message):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, ["family", "validate", *flags])
    assert code == 64
    assert out == ""
    assert err == f"qsdsim: error: {message}\n{USAGE}\n"


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=command_words)
def test_report_names_its_subcommand(capsys, argv):
    code, out, err = run_cli(capsys, [*argv, "--no-timestamp"])
    assert code == 0
    assert err == ""
    assert json.loads(out)["command"] == command_words(argv)


def test_unnormalized_family_is_parameter_error(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--N", "3", "--M", "1", "--coeffs", "0.5", "0.5"]
    )
    assert code == 1
    assert err.startswith("invalid family (not-normalized)")


def test_huge_coefficient_is_one_parameter_error_line(capsys):
    # |c|^2 overflows: the sum is inf, which is not normalized, without a numpy warning
    code, out, err = run_cli(
        capsys, ["family", "validate", "--N", "1", "--M", "0", "--coeffs", "0,1e308"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("invalid family (not-normalized)") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command", [["family", "validate"], ["min-error", "analyze"], ["unambiguous", "analyze"]]
)
def test_subnormal_coefficient_is_one_parameter_error_line(capsys, command):
    # 1e-310 is subnormal: its phase c / |c| is noise, so the family is rejected up front
    extra = ["--mechanism", "sfg"] if command[0] == "unambiguous" else []
    code, out, err = run_cli(
        capsys, [*command, "--N", "3", "--M", "2", "--coeffs", "1", "1e-310", "1e-310", *extra]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("invalid family (zero-coefficient): coefficient c_1 = (1e-310+0j)")
    assert len(err.splitlines()) == 1


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
    code, out, err = run_cli(
        capsys,
        ["unambiguous", "analyze", "--N", "3", "--M", "2", "--coeffs",
         EXAMPLE_COEFFS[2], "0.6", "0.7", "--mechanism", "tpa"],
    )
    assert code == 2
    assert err.startswith("infeasible schedule:")


def test_unordered_family_prints_one_line_and_no_warning(capsys):
    # make_family used to warn about |c_M| > |c_0|, |c_1|, so stderr held
    # Python's two-line warning (a path and a line of cli.py) before the message
    family = ["--N", "3", "--M", "2", "--coeffs", EXAMPLE_COEFFS[2], "0.6", "0.7"]
    code, out, err = run_cli(capsys, ["unambiguous", "analyze", *family, "--mechanism", "tpa"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("infeasible schedule:")
    code, out, err = run_cli(capsys, ["family", "validate", *family])
    assert code == 0 and err == ""


def test_schedule_error_names_the_excess(capsys):
    # |c_2| exceeds |c_0| by 1.7e-9 of itself, and six decimals printed 0.577350 for both
    argv = ["unambiguous", "analyze", "--N", "3", "--M", "2", "--coeffs",
            "0.5773502690", "0.5773502690", "0.5773502700", "--mechanism", "tpa"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert re.findall(r"\|c_\d\| = ([\d.e-]+)", err) == ["0.57735027", "0.577350269"]


# moduli equal in exact arithmetic that normalization leaves one rounding apart, |c_2| above |c_0|
TIED = ["--N", "3", "--M", "2", "--coeffs-polar",
        "0.5773502691896258,0", "0.5773502691896258,0.1", "0.5773502691896258,0.1"]


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
def test_moduli_one_rounding_apart_are_contractible(capsys, mechanism):
    # exit 2 before, with a message that printed two equal moduli
    payloads = []
    for action in (["analyze"], ["simulate", "--trials", "1000"]):
        code, out, err = run_cli(capsys, ["unambiguous", *action, *TIED, "--mechanism", mechanism])
        assert (code, err) == (0, "")
        assert _accepted_residual(out, action) <= 1e-9
        payloads.append(json.loads(out))
    assert payloads[0]["interaction_products"] == [0.0, 0.0]


def test_csv_rejected_where_no_table_exists(capsys):
    code, out, err = run_cli(
        capsys, ["family", "validate", "--coincident", "3", "--format", "csv"]
    )
    assert code == 1
    assert "no CSV form" in err


# each command without a p(j|k) table, and the first report builder its payload calls
NO_TABLE = [
    (["family", "validate", "--coincident", "3"], "family_to_json"),
    (["min-error", "simulate", "--coincident", "3"], "run_min_error"),
    (["unambiguous", "analyze", "--coincident", "3", "--mechanism", "sfg"], "ud_report"),
    (["unambiguous", "simulate", "--coincident", "3", "--mechanism", "tpa"], "run_unambiguous"),
    (["pipeline", "sfg-recover", "--coincident", "3"], "run_sfg_recovery_pipeline"),
    (["atom-detector", "--coincident", "3"], "detector_atom_model"),
]


@pytest.mark.parametrize(
    "argv, builder", NO_TABLE, ids=[command_words(argv) for argv, _ in NO_TABLE]
)
def test_csv_is_rejected_before_the_report_is_computed(capsys, monkeypatch, argv, builder):
    def unreachable(*args):
        raise AssertionError(f"{builder} ran")

    monkeypatch.setattr(f"qsdsim.cli.{builder}", unreachable)
    code, out, err = run_cli(capsys, [*argv, "--format", "csv"])
    assert code == 1
    assert out == ""
    assert err == f"error: {command_words(argv)} has no CSV form; use --format json\n"


def test_help_exits_cleanly(capsys):
    # help returns its exit code from dispatch, as every other call does
    assert dispatch(["--help"]) == 0
    assert "usage: qsdsim" in capsys.readouterr().out


def test_multiport_rejects_two_photon_family(capsys):
    code, out, err = run_cli(capsys, ["multiport", "table", "--coincident", "3"])
    assert code == 1
    assert out == ""
    assert err == "error: the multiport takes single-photon (M = 1) families\n"


@pytest.mark.parametrize(
    "argv",
    [
        # 728 TiB of prepared-state counts and 2.9 PiB of detection-state
        # rows: both requests exceed a 64-bit process's address space, so
        # numpy's allocation fails at once and nothing is allocated
        ["min-error", "simulate", "--N", "100000000000000", "--M", "1", "--coeffs", "0.8", "0.6",
         "--trials", "10"],
        ["min-error", "analyze", "--N", "100000000000000", "--M", "1", "--coeffs", "0.8", "0.6"],
    ],
)
def test_memory_error_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: Unable to allocate") and len(err.splitlines()) == 1


def test_trial_count_beyond_memory_is_sampled(capsys):
    # the sampler draws counts, so 10^15 trials cost what 10 do
    code, out, err = run_cli(
        capsys,
        ["min-error", "simulate", "--coincident", "3", "--trials", "1000000000000000",
         "--no-timestamp"],
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert sum(map(sum, report["counts"]["joint"])) == report["trials"] == 10**15


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", str(2**63)], f"trials must be between 1 and 2^63 - 1, got {2**63}"),
        (["--trials", str(10**30)], f"trials must be between 1 and 2^63 - 1, got {10**30}"),
        (["--shards", str(2**16 + 1)], f"shards must be between 1 and 65536, got {2**16 + 1}"),
        (["--shards", str(10**18)], f"shards must be between 1 and 65536, got {10**18}"),
    ],
    ids=["trials-2^63", "trials-10^30", "shards-2^16+1", "shards-10^18"],
)
def test_trials_and_shards_are_bounded(capsys, flags, message):
    code, out, err = run_cli(capsys, ["min-error", "simulate", "--coincident", "3", *flags])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


# 1/sqrt(3) three times: sum |c|^2 = 1 and 3 |c_min|^2 = 1 + 2.2e-16 in floats
UNIFORM_COEFFS = ["0.5773502691896258"] * 3


@pytest.mark.parametrize(
    "action",
    [
        ["unambiguous", "analyze", "--mechanism", "tpa"],
        ["unambiguous", "analyze", "--mechanism", "sfg"],
        ["unambiguous", "simulate", "--mechanism", "tpa", "--trials", "1000"],
        ["unambiguous", "simulate", "--mechanism", "sfg", "--trials", "1000"],
        ["pipeline", "sfg-recover", "--trials", "1000"],
    ],
)
def test_conclusive_probability_at_one(capsys, action):
    code, out, err = run_cli(
        capsys, [*action, "--N", "3", "--M", "2", "--coeffs", *UNIFORM_COEFFS, "--no-timestamp"]
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    if action[1] == "analyze":
        assert report["success_probability"] == 1.0
        assert report["inconclusive_probability"] == 0.0
    else:
        assert report["analytic"]["conclusive_rate"] == 1.0
        assert report["empirical"]["conclusive_rate"] == 1.0
        for block in ("analytic", "empirical"):
            assert all(0.0 <= v <= 1.0 for v in report[block].values())
            assert report[block].get("inconclusive_rate", 0.0) == 0.0


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (["atom-detector", "--coincident", "3", "--eta", "-1e-3"], "eta", -0.001),
        (["family", "validate", "--N", "3", "--M", "1", "--coeffs", "0.8", "-0.6,0"],
         "family", [[0.8, 0.0], [-0.6, 0.0]]),
        (["family", "validate", "--N", "3", "--M", "1", "--coeffs", "0.8", "-.6"],
         "family", [[0.8, 0.0], [-0.6, 0.0]]),
    ],
    ids=["eta-exponent", "coeffs-pair", "coeffs-decimal"],
)
def test_negative_values_are_values(capsys, argv, field, value):
    # argparse reads only plain negative decimals such as -0.6 as values
    code, out, err = run_cli(capsys, [*argv, "--no-timestamp"])
    assert (code, err) == (0, "")
    payload = json.loads(out)[field]
    assert (payload["coeffs"] if field == "family" else payload) == value


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family", "validate", "--N", "3", "--M", "1", "--coeffs", "0.8", "-inf"],
         "invalid family (non-finite-coefficient)"),
        (["family", "validate", "--N", "3", "--M", "1", "--coeffs", "0.8", "-nan,0"],
         "invalid family (non-finite-coefficient)"),
        (["atom-detector", "--coincident", "3", "--eta", "-inf"], "error: eta must be finite"),
        (["atom-detector", "--coincident", "3", "--gamma", "-Infinity"],
         "error: Gamma must be finite and > 0, got -inf"),
        (["atom-detector", "--coincident", "3", "--gamma", "-NaN"],
         "error: Gamma must be finite and > 0, got nan"),
    ],
    ids=["coeffs-inf", "coeffs-nan-pair", "eta-inf", "gamma-infinity", "gamma-nan"],
)
def test_negative_non_finite_values_reach_validation(capsys, argv, message):
    # '-inf' and '-nan' are values, not flags, so they get the documented exit 1
    code, out, err = run_cli(capsys, [*argv, "--no-timestamp"])
    assert (code, out) == (1, "")
    assert err.startswith(message) and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("flag", ["--gamma", "--eta"])
def test_atom_detector_largest_float_is_one_error_line(capsys, flag):
    # the echoed flag value rounds to inf at 10 digits, so no report can be written
    code, out, err = run_cli(
        capsys, ["atom-detector", "--coincident", "3", flag, "1.7976931348623157e308"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


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


def test_non_finite_polar_coefficient_is_one_error_line(capsys):
    code, out, err = run_cli(
        capsys,
        ["family", "validate", "--N", "3", "--M", "2", "--coeffs-polar",
         "0.7,inf", "0.6,0", "0.3872983346207417,0"],
    )
    assert code == 1
    assert out == ""
    assert err == "error: polar pair '0.7,inf' has a non-finite magnitude or phase\n"


def test_atom_detector_infinite_gamma_message(capsys):
    code, out, err = run_cli(capsys, ["atom-detector", "--coincident", "3", "--gamma", "inf"])
    assert code == 1
    assert out == ""
    assert err == "error: Gamma must be finite and > 0, got inf\n"


@pytest.mark.parametrize("action", [["analyze"], ["simulate", "--trials", "2000"]])
def test_sfg_accepts_family_within_normalization_tolerance(capsys, action):
    # sum |c|^2 = 1 - 1.5e-11: a valid family (tolerance 1e-9) whose branch
    # probabilities add up to its own norm, not to one within 1e-12
    code, out, err = run_cli(
        capsys,
        ["unambiguous", *action, "--N", "3", "--M", "2", "--coeffs", "0.7", "0.6",
         "0.3872983346", "--mechanism", "sfg", "--no-timestamp"],
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["command"] == f"unambiguous {action[0]}"


def _skew_survivors(monkeypatch, skew=None, zero=False):
    """Make both protocol runners see conclusive survivors that are skewed or have a zero row."""

    def bent(rows):
        rows = rows.copy()
        if zero:
            rows[1] = 0.0
        else:
            rows[1] += skew * rows[0]
        return rows

    def patched(run):
        def fake(family):
            result = run(family)
            return result._replace(conclusive=bent(result.conclusive))

        return fake

    # both runners reach the contractions through unambiguous.contract
    for name in ("orthogonalize_tpa", "orthogonalize_sfg"):
        monkeypatch.setattr(unambiguous, name, patched(getattr(unambiguous, name)))


def _accepted_residual(out, action):
    """The orthogonality residual of an analyze report; simulate must make no wrong guess."""
    payload = json.loads(out)
    if action[0] == "analyze":
        return payload["orthogonality_residual"]
    assert payload["counts"]["wrong_conclusive"] == 0
    return 0.0


@pytest.mark.parametrize("action", [["analyze"], ["simulate", "--trials", "100"]])
def test_zero_norm_survivor_is_one_error_line(capsys, monkeypatch, action):
    # |c_min| = 1e-170 and 1e-300: survivors whose squared norms underflow are still accepted
    for c_min, mechanism in itertools.product(["1e-170", "1e-300"], ["tpa", "sfg"]):
        code, out, err = run_cli(
            capsys,
            ["unambiguous", *action, "--N", "3", "--M", "2", "--coeffs", "1", c_min, c_min,
             "--mechanism", mechanism],
        )
        assert (code, err) == (0, ""), (c_min, mechanism)
        assert _accepted_residual(out, action) <= 1e-9
    # an exactly zero survivor cannot be normalized
    _skew_survivors(monkeypatch, zero=True)
    code, out, err = run_cli(
        capsys,
        ["unambiguous", *action, "--N", "3", "--M", "2", "--coeffs", "1", "1e-170", "1e-170",
         "--mechanism", "tpa"],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "zero" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("c_min", ["1e-9", "1e-170"])
def test_nonorthogonal_sfg_survivors_are_rejected(capsys, monkeypatch, c_min):
    # the conversion survivors of these families are orthonormal to float accuracy ...
    argv = ["--N", "3", "--M", "2", "--coeffs", "1", c_min, c_min, "--mechanism", "sfg"]
    actions = [["analyze"], ["simulate", "--trials", "100"]]
    for action in actions:
        code, out, err = run_cli(capsys, ["unambiguous", *action, *argv])
        assert (code, err) == (0, "")
        assert _accepted_residual(out, action) <= 1e-9
    # ... and survivors skewed beyond ORTHOGONALITY_TOL are rejected by analyze and simulate
    _skew_survivors(monkeypatch, skew=1e-6)
    for action in actions:
        code, out, err = run_cli(capsys, ["unambiguous", *action, *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: states are not mutually orthogonal: max deviation ")
        assert len(err.splitlines()) == 1


def _unroll_outcome_row(monkeypatch):
    from qsdsim import minerror

    unrolled = lambda f: np.abs(np.fft.fft(f.moduli, n=f.N)) ** 2 / f.N
    monkeypatch.setattr(minerror, "_outcome_row", unrolled)


def _roll_click_row(monkeypatch):
    from qsdsim import minerror, multiport

    rolled = lambda f, row: minerror.proven_circulant(f, np.roll(row, 1))
    monkeypatch.setattr(multiport, "proven_circulant", rolled)


@pytest.mark.parametrize(
    "command,fault",
    [(["min-error", "analyze"], _unroll_outcome_row), (["multiport", "table"], _roll_click_row)],
)
def test_a_table_row_off_its_closed_forms_is_one_error_line(monkeypatch, capsys, command, fault):
    # the outcome row without its roll by one, and the click row rolled by one:
    # each keeps its sum but moves its diagonal off P_C
    fault(monkeypatch)
    argv = [*command, "--N", "5", "--M", "1", "--coeffs", "0.8", "0.6", "--no-timestamp"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: table row is off its closed forms") and len(err.splitlines()) == 1


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


def test_family_validate_coincident_at_any_size(capsys):
    # --coincident re-derived the constant coefficients over an (N, 6) array: 268 GiB here
    N = "3000000000"
    code, out, err = run_cli(capsys, ["family", "validate", "--coincident", N, "--no-timestamp"])
    assert (code, err) == (0, "")
    explicit = ["--N", N, "--M", "2", "--coeffs", "0.5", "0.7071067811865476", "0.5"]
    assert run_cli(capsys, ["family", "validate", *explicit, "--no-timestamp"]) == (0, out, "")


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


def test_empty_seed_environment_means_default(capsys, monkeypatch):
    monkeypatch.setenv("QSD_SEED", "")
    code, out, err = run_cli(
        capsys,
        ["min-error", "simulate", "--coincident", "3", "--trials", "200",
         "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out)["seed"] == DEFAULT_SEED


@pytest.mark.parametrize("argv", SEEDLESS, ids=command_words)
def test_seedless_commands_ignore_seed_environment(capsys, monkeypatch, argv):
    monkeypatch.delenv("QSD_SEED", raising=False)
    expected = run_cli(capsys, [*argv, "--no-timestamp"])
    assert expected[0] == 0
    monkeypatch.setenv("QSD_SEED", "abc")
    assert run_cli(capsys, [*argv, "--no-timestamp"]) == expected


@pytest.mark.parametrize(
    "env, flags, message",
    [
        ("abc", [], "QSD_SEED must be a non-negative integer, got 'abc'"),
        ("-2", [], "QSD_SEED must be a non-negative integer, got '-2'"),
        ("1e3", [], "QSD_SEED must be a non-negative integer, got '1e3'"),
        (None, ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        ("abc", ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    ],
)
def test_seed_errors_name_their_source(capsys, monkeypatch, env, flags, message):
    if env is None:
        monkeypatch.delenv("QSD_SEED", raising=False)
    else:
        monkeypatch.setenv("QSD_SEED", env)
    code, out, err = run_cli(
        capsys,
        ["min-error", "simulate", "--coincident", "3", "--trials", "200", *flags,
         "--no-timestamp"],
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_pipeline_leaves_the_report_analytic_dict_alone(capsys, monkeypatch):
    reports, snapshots = [], []

    def run(*args):
        reports.append(montecarlo.run_sfg_recovery_pipeline(*args))
        snapshots.append(dict(reports[-1].analytic))
        return reports[-1]

    monkeypatch.setattr("qsdsim.cli.run_sfg_recovery_pipeline", run)
    code, out, err = run_cli(
        capsys,
        ["pipeline", "sfg-recover", "--N", "3", "--M", "2", "--coeffs", *EXAMPLE_COEFFS,
         "--trials", "200", "--no-timestamp"],
    )
    assert code == 0
    assert "recovery_success_rate" in json.loads(out)["analytic"]
    # the runner reports the recovery rate itself, and dispatch writes its dict unchanged
    assert reports[0].analytic == snapshots[0]
    assert json.loads(out)["analytic"].keys() == snapshots[0].keys()


def test_pipeline_computes_its_analytic_values_once(capsys):
    counted = {unambiguous.recovery_pipeline_analytic.__code__: 0,
               unambiguous.inconclusive_family.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            counted[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        code = dispatch(
            ["pipeline", "sfg-recover", "--N", "3", "--M", "2", "--coeffs", *EXAMPLE_COEFFS,
             "--trials", "200", "--no-timestamp"]
        )
    finally:
        sys.setprofile(None)
    assert code == 0
    assert list(counted.values()) == [1, 1]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["min-error", "analyze", "--coincident", "3"],
        ["multiport", "table", "--N", "3", "--M", "1", "--coeffs", "0.8", "0.6"],
    ],
    ids=["min-error", "multiport"],
)
def test_json_run_encodes_no_csv(capsys, monkeypatch, argv):
    argv = [*argv, "--no-timestamp"]
    code, want, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")

    def no_csv(*args, **kwargs):
        raise AssertionError("table_csv called on a JSON run")

    monkeypatch.setattr("qsdsim.cli.table_csv", no_csv)
    assert run_cli(capsys, argv) == (0, want, "")


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
        # a row is its field label and the atom's whole result, so no field is copied by hand
        assert set(row) == {"field_k", *ExcitationResult._fields}


# ---------------------------------------------------------------- argv grammar

COMMAND_WORDS = [
    ["family", "validate"],
    ["min-error", "analyze"],
    ["min-error", "simulate"],
    ["unambiguous", "analyze"],
    ["unambiguous", "simulate"],
    ["pipeline", "sfg-recover"],
    ["multiport", "table"],
    ["atom-detector"],
]
# numbers at the edges of float parsing, plus one text that is no number
SPECIAL_TEXTS = [
    "nan", "inf", "-inf", "-nan", "-Infinity", "-NaN",
    "0", "-0.0", "1e-9", "1e-170", "5e-324", "1e308", "abc",
]
number_text = st.one_of(
    st.sampled_from(SPECIAL_TEXTS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def coefficient_texts(draw, count):
    """Cartesian 're[,im]' or polar 'mag,phase' texts, mostly of a normalized set."""
    polar = draw(st.booleans())
    if draw(st.integers(0, 3)):
        # a normalized set whose moduli may be tiny
        mags = np.array(draw(st.lists(st.sampled_from([1.0, 0.7, 0.3, 1e-9, 1e-170]),
                                      min_size=count, max_size=count)))
        if draw(st.booleans()):
            mags = np.sort(mags)[::-1]  # the order the contraction schedules need
        mags = mags / mags.max()
        mags = mags / np.linalg.norm(mags)
        # a phase of -2.5 gives negative parts such as '-0.56,-0.42'
        phases = draw(st.lists(st.sampled_from([0.0, 0.4, -2.5]), min_size=count, max_size=count))
        if polar:
            texts = [f"{m!r},{p!r}" for m, p in zip(mags.tolist(), phases)]
        else:
            zs = (mags * np.exp(1j * np.array(phases))).tolist()
            texts = [f"{z.real!r},{z.imag!r}" if z.imag else repr(z.real) for z in zs]
    else:
        pairs = draw(st.lists(st.tuples(number_text, number_text), min_size=count, max_size=count))
        texts = [m if draw(st.booleans()) else f"{m},{p}" for m, p in pairs]
    return ["--coeffs-polar" if polar else "--coeffs", *texts]


@st.composite
def cli_argv(draw):
    argv = list(draw(st.sampled_from(COMMAND_WORDS)))
    small = st.integers(-2, 12)
    if draw(st.integers(0, 3)) == 0:
        N = draw(st.one_of(st.integers(3, 12), small))
        argv += ["--coincident", str(N) if draw(st.integers(0, 3)) else draw(number_text)]
    else:
        # mostly the paper's two- and three-term families, N = M + 1
        M = draw(st.sampled_from([2, 2, 1])) if draw(st.integers(0, 3)) else draw(st.integers(-1, 11))
        N = M + 1 if draw(st.integers(0, 2)) else draw(st.one_of(st.integers(M + 1, 12), small))
        count = max(draw(st.sampled_from([M + 1] * 4 + [M, M + 2])), 1)
        argv += ["--N", str(N), "--M", str(M), *draw(coefficient_texts(count))]
    if argv[0] == "unambiguous":
        argv += ["--mechanism", draw(st.sampled_from(["tpa", "sfg"]))]
    if argv[1] in ("simulate", "sfg-recover"):
        # up to the int64 count limit and one past it, and one shard past the ceiling
        trials = st.one_of(st.integers(1, 2000), st.sampled_from([-1, 0, 10**15, 2**63 - 1, 2**63]))
        argv += ["--trials", str(draw(trials))]
        argv += ["--seed", str(draw(st.one_of(st.integers(0, 10), st.sampled_from([-1, 2**64]))))]
        shards = st.one_of(st.integers(1, 4), st.sampled_from([-1, 0, MAX_SHARDS + 1]))
        argv += ["--shards", str(draw(shards))]
    if argv[0] == "atom-detector":
        widths = st.one_of(number_text, st.floats(1e-3, 1e3).map(repr), st.just("-1e-3"))
        argv += ["--detector-k", str(draw(st.integers(-1, 4)))]
        for flag in ("--eta", "--gamma"):
            # both the '--eta=-1e-3' and the '--eta -1e-3' form
            argv += [f"{flag}={draw(widths)}"] if draw(st.booleans()) else [flag, draw(widths)]
    argv += ["--format", draw(st.sampled_from(["json", "json", "csv"])), "--no-timestamp"]
    return argv


def _load_checks():
    """The benchmark's output oracles, loaded by path so that perfbench/ needs no package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def check_accepted(argv, out):
    """An accepted output passes exact oracles computed from the argv's moduli.

    They are the benchmark's, except the conversion + retry rates, taken
    from reference.probability_oracles at 60 digits: checks.p_recovery_overall
    cancels in |c_1|^2 - |c_2|^2, and misses by 5e-10 when the two moduli
    are a rounding apart.

    Tables sum to one by row, with the diagonal mean at P_C; every analytic
    value and rate is the oracle's; counts add up to the trials; and a
    contraction makes no wrong conclusive guess.  A sampled rate is not
    checked against its analytic value (at a few trials a 5-sigma check
    would fail by chance), but against the count n it reports: the rate
    must print as the correctly rounded n / trials, and its stderr as the
    correctly rounded sqrt(n (trials - n)) / trials^(3/2).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    family = _family_from_args(args, parser)
    N, mags = family.N, family.moduli
    p_c = checks.p_correct(N, mags)
    if args.format == "csv":
        table = checks.csv_table(out, N)
        checks.rows_sum_to_one(table, serialized=True)
        checks.diagonal_mean(table, p_c, serialized=True)
        return
    report = checks.strict_json(out)
    words = args.words
    table = COMMANDS[words].table
    if table is not None:
        checks.rows_sum_to_one(report[table], serialized=True)
        checks.diagonal_mean(report[table], p_c, serialized=True)
    if words == ("family", "validate"):
        checks.field(report, "min_error_success", p_c)
        if family.linearly_independent:
            checks.field(report, "unambiguous_success", checks.p_conclusive(N, mags))
        else:
            assert report["unambiguous_success"] is None
    elif words in (("min-error", "analyze"), ("multiport", "table")):
        checks.field(report, "success_probability", p_c)
    elif words == ("unambiguous", "analyze"):
        checks.field(report, "success_probability", checks.p_conclusive(N, mags))
    elif "trials" in args:
        checks.trial_report(report, args.trials, {})
        p_d = checks.p_conclusive(N, mags)
        if words == ("min-error", "simulate"):
            rates = {"success_rate": p_c}
        elif words == ("unambiguous", "simulate"):
            # 1 - P_D is printed as the family's own sum |c_l|^2 less P_D, and
            # make_family accepts a sum up to NORMALIZATION_TOL off 1
            rates = {"conclusive_rate": p_d, "inconclusive_rate": float(np.sum(mags**2)) - p_d}
            checks.no_wrong_conclusive(report)
        else:
            oracles = probability_oracles(family)
            rates = {
                "conclusive_rate": p_d,
                "overall_success_rate": float(oracles["overall"]),
                "recovery_success_rate": float(oracles["recovery"]),
            }
        assert set(report["analytic"]) == set(rates)
        for name, exact in rates.items():
            checks.field(report["analytic"], name, exact)
        check_counted_rates(report, words, args.trials)


def check_counted_rates(report, words, trials):
    """Each printed rate and stderr is the correctly rounded value of its printed count."""
    counts = report["counts"]

    def trace(table):
        return sum(row[k] for k, row in enumerate(table))

    if words == ("min-error", "simulate"):
        events = {"success_rate": trace(counts["joint"])}
    elif words == ("unambiguous", "simulate"):
        events = {
            "conclusive_rate": sum(map(sum, counts["conclusive_joint"])),
            "inconclusive_rate": sum(counts["inconclusive"]),
        }
    else:
        conclusive = sum(counts["conclusive_correct"])
        events = {
            "conclusive_rate": conclusive,
            "overall_success_rate": conclusive + trace(counts["recovered_joint"]),
        }
    assert set(report["empirical"]) == set(report["stderr"]) == set(events)
    for name, n in events.items():
        assert report["empirical"][name] == ten_digits(Fraction(n, trials)), (name, n)
        with mpmath.workdps(60):
            error = mpmath.sqrt(n * (trials - n)) / mpmath.mpf(trials) ** 1.5
        assert report["stderr"][name] == ten_digits(error), (name, n)


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv())
# |c_1| and |c_2| a rounding apart: the ancilla amplitude b = sqrt(|c_1|^2 - |c_2|^2),
# about 6e-9, came out 14% low from the rounded cosine |c_2| / |c_1|
@example(argv=["pipeline", "sfg-recover", "--N", "3", "--M", "2", "--coeffs",
               "0.8551861104941366", "-0.29362581108291097,-0.21934502792372104",
               "0.3665083330689157", "--trials", "1", "--seed", "0", "--shards", "1",
               "--format", "json", "--no-timestamp"])
# sum |c_l|^2 = 1 + 3e-10, inside NORMALIZATION_TOL: the inconclusive rate is 3e-10 off 1 - P_D
@example(argv=["unambiguous", "simulate", "--N", "3", "--M", "2", "--coeffs", "0.7", "0.6",
               "0.387298335", "--mechanism", "tpa", "--trials", "100", "--seed", "1", "--shards", "1",
               "--format", "json", "--no-timestamp"])
# P_D about 1e-13 below 1 at 10^18 trials: the two complementary rates have equal errors, which
# sqrt(p (1 - p) / trials) of the rounded rate printed as 3.166277611e-16 and 3.167112249e-16
@example(argv=["unambiguous", "simulate", "--N", "3", "--M", "2", "--coeffs", "0.5773502691896402",
               "0.5773502691896402", "0.5773502691895969", "--mechanism", "tpa",
               "--trials", "1000000000000000000", "--seed", "1"])
def test_cli_grammar_never_escapes(argv):
    """Any argv from the flag grammar exits with a documented code, never a traceback."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dispatch(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2, 64), (argv, code, err)
    if code in (1, 2):
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
        check_accepted(argv, out)


# ---------------------------------------------------------------- interface

FAMILY_OPTIONS = {"coincident": 3, "N": None, "M": None, "coeffs": None, "coeffs_polar": None}
OUTPUT_OPTIONS = {"format": "json", "out": None, "no_timestamp": False}
SAMPLING_OPTIONS = {"trials": 100000, "seed": None, "shards": 1}
# each subcommand's words, its required flags, and the options it adds
# between the family and the output options, with their values
OWN_OPTIONS = [
    (["family", "validate"], [], {}),
    (["min-error", "analyze"], [], {}),
    (["min-error", "simulate"], [], SAMPLING_OPTIONS),
    (["unambiguous", "analyze"], ["--mechanism", "tpa"], {"mechanism": "tpa"}),
    (["unambiguous", "simulate"], ["--mechanism", "sfg"],
     {"mechanism": "sfg", **SAMPLING_OPTIONS}),
    (["pipeline", "sfg-recover"], [], SAMPLING_OPTIONS),
    (["multiport", "table"], [], {}),
    (["atom-detector"], [], {"detector_k": 1, "eta": 1.0, "gamma": 1.0}),
]


@pytest.mark.parametrize(
    "words, required, own", OWN_OPTIONS, ids=[" ".join(words) for words, _, _ in OWN_OPTIONS]
)
def test_subcommand_options_and_defaults(capsys, monkeypatch, words, required, own):
    """Each subcommand takes exactly these options, in this order, with these defaults."""
    options = {**FAMILY_OPTIONS, **own, **OUTPUT_OPTIONS}
    args = build_parser().parse_args([*words, "--coincident", "3", *required])
    assert {name: getattr(args, name) for name in options} == options
    monkeypatch.setenv("COLUMNS", "80")
    assert dispatch([*words, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    flags = re.findall(r"(--[\w-]+)", usage)
    assert flags == ["--" + name.replace("_", "-") for name in options]


@pytest.mark.parametrize(
    "argv",
    [
        ["unambiguous", "analyze", "--coincident", "3", "--mechanism", "other"],
        ["unambiguous", "simulate", "--coincident", "3", "--mechanism", "other"],
        ["family", "validate", "--coincident", "3", "--format", "other"],
        ["atom-detector", "--coincident", "3", "--format", "other"],
    ],
    ids=command_words,
)
def test_choice_flags_reject_other_values(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 64
    assert out == ""
    flag = argv[-2]
    assert err.startswith(f"qsdsim {command_words(argv)}: error: argument {flag}: invalid choice")


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


def _package_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(qsdsim.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_scipy_out():
    # only the commands that sample or transform load numpy.random (about 6 MiB
    # of RSS) and numpy.fft, so every other command starts without them
    script = (
        "import sys, qsdsim.cli; "
        "print([m for m in ('scipy', 'numpy.random', 'numpy.fft') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_cli_import_leaves_dataclasses_out():
    # generating the methods of eight dataclass records took 5-9 ms of every
    # command's import; the records are NamedTuples and plain classes
    script = "import sys, qsdsim.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_closed_stdout_is_one_error_line():
    # Python ignores SIGPIPE, so a write to a pipe whose read end is closed
    # fails with EPIPE; it escaped _emit as a BrokenPipeError traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "qsdsim", "family", "validate", "--coincident", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_package_env(),
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("error: cannot write stdout: ")
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


def test_console_script_usage_exit_code():
    exe = shutil.which("qsdsim")
    cmd = [exe] if exe else [sys.executable, "-m", "qsdsim"]
    result = subprocess.run(cmd + ["no-such-command"], capture_output=True, text=True)
    assert result.returncode == 64


# `main` flushes both streams and ends the process with os._exit, skipping
# interpreter teardown; these run it as its own process and compare with dispatch
EXIT_ARGV = [
    (["family", "validate", "--coincident", "3", "--no-timestamp"], 0),
    (["family", "validate", "--N", "3", "--M", "2", "--coeffs", "1", "1", "1"], 1),
    (["unambiguous", "analyze", "--N", "3", "--M", "2", "--coeffs", "0.3872983346207417",
      "0.6", "0.7", "--mechanism", "tpa"], 2),
    (["no-such-command"], 64),
]
# what the console-script wrapper runs, where the qsdsim script is not installed
CONSOLE_SCRIPT = [sys.executable, "-c", "import sys; from qsdsim.cli import main; sys.exit(main())"]


def _spawn(command, argv, **kwargs):
    """The finished process of command + argv, its output read through pipes."""
    env = dict(_package_env(), COLUMNS="80")
    return subprocess.run(command + argv, capture_output=True, env=env, **kwargs)


@pytest.mark.parametrize("entry", ["module", "console-script"])
@pytest.mark.parametrize("argv, code", EXIT_ARGV, ids=[str(code) for _, code in EXIT_ARGV])
def test_process_exit_code_and_streams_match_dispatch(capsys, monkeypatch, entry, argv, code):
    if entry == "module":
        command = [sys.executable, "-m", "qsdsim"]
    else:
        command = [shutil.which("qsdsim")] if shutil.which("qsdsim") else CONSOLE_SCRIPT
    monkeypatch.setenv("COLUMNS", "80")
    result = _spawn(command, argv, text=True)
    assert result.returncode == code
    assert (result.returncode, result.stdout, result.stderr) == run_cli(capsys, argv)


def test_large_report_through_a_pipe_is_the_whole_text(capsys):
    # about 5 MB, far beyond a pipe's buffer, so the child writes while the parent reads
    argv = ["multiport", "table", "--N", "256", "--M", "1", "--coeffs", "0.8", "0.6",
            "--no-timestamp"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    result = _spawn([sys.executable, "-m", "qsdsim"], argv)
    assert (result.returncode, result.stderr) == (0, b"")
    assert len(result.stdout) > 5_000_000
    assert hashlib.sha256(result.stdout).digest() == hashlib.sha256(out.encode()).digest()


def test_out_file_holds_the_whole_report(capsys, tmp_path):
    argv = ["multiport", "table", "--N", "256", "--M", "1", "--coeffs", "0.8", "0.6",
            "--no-timestamp"]
    code, out, _ = run_cli(capsys, argv)
    result = _spawn([sys.executable, "-m", "qsdsim"], [*argv, "--out", str(tmp_path / "r.json")])
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    assert (tmp_path / "r.json").read_text() == out


def test_exit_skips_atexit_handlers():
    # no interpreter teardown: an atexit handler never runs after main
    script = (
        "import atexit, sys; from qsdsim.cli import main; "
        "atexit.register(print, 'atexit ran'); "
        "sys.argv[1:] = ['family', 'validate', '--coincident', '3']; main()"
    )
    result = _spawn([sys.executable, "-c", script], [], text=True)
    assert result.returncode == 0
    assert "atexit ran" not in result.stdout
    assert json.loads(result.stdout)["command"] == "family validate"


@pytest.mark.parametrize("words", [[], ["min-error", "analyze"]], ids=["qsdsim", "min-error analyze"])
def test_help_skips_atexit_handlers(words):
    # help left dispatch as argparse's SystemExit, so main's os._exit never ran
    script = (
        "import atexit, sys; from qsdsim.cli import main; "
        "atexit.register(print, 'atexit ran'); "
        f"sys.argv[1:] = {[*words, '--help']!r}; main()"
    )
    result = _spawn([sys.executable, "-c", script], [], text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("usage: qsdsim")
    assert "atexit ran" not in result.stdout


def test_exception_escaping_dispatch_is_a_traceback():
    script = (
        "import qsdsim.cli as cli; "
        "cli.dispatch = lambda argv: 1 / 0; cli.main()"
    )
    result = _spawn([sys.executable, "-c", script], [], text=True)
    assert result.returncode == 1
    assert "Traceback" in result.stderr and "ZeroDivisionError" in result.stderr
