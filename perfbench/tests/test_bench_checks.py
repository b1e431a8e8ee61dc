"""Each output check rejects a deliberately corrupted output."""

import json

import api
import checks
import numpy as np
import pytest
import workloads

INPUTS = workloads.draw_inputs(5)
LIBRARY = workloads.library(api, INPUTS)


def op(ops, label):
    return next(o for o in ops if o.label == label)


def test_nan_in_json_is_rejected():
    entry = op(LIBRARY, "tpa N=3 shards=4")
    text = entry.run()
    entry.check(text)
    report = json.loads(text)
    report["empirical"]["conclusive_rate"] = float("nan")
    with pytest.raises(checks.CheckError, match="NaN"):
        entry.check(json.dumps(report))
    with pytest.raises(checks.CheckError, match="Infinity"):
        checks.strict_json('{"p": Infinity}')


@pytest.mark.parametrize("label", ["min-error/json N=32 M=1", "multiport/json N=256 M=1"])
def test_table_row_perturbed_by_1e_6_is_rejected(label):
    entry = op(LIBRARY, label)
    report, text = entry.run()
    entry.check((report, text))
    key = "outcome_table" if "min-error" in label else "click_table"
    bad = dict(report)
    bad[key] = [row[:] for row in report[key]]
    bad[key][3][5] += 1e-6
    with pytest.raises(checks.CheckError, match="row 4"):
        entry.check((bad, text))


def test_serialized_table_row_perturbed_by_1e_6_is_rejected():
    label = "min-error analyze csv"
    entry = op(workloads.cli_paper(INPUTS, lambda argv: workloads.dispatch_in_process(api, argv)), label)
    code, text, err = entry.run()
    entry.check((code, text, err))
    lines = text.splitlines()
    k, j, p = lines[2].split(",")
    lines[2] = f"{k},{j},{float(p) + 1e-6!r}"
    with pytest.raises(checks.CheckError, match="row 1"):
        entry.check((code, "\n".join(lines) + "\n", err))


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
def test_one_wrong_conclusive_count_is_rejected(mechanism):
    entry = op(LIBRARY, {"tpa": "tpa N=3 shards=4", "sfg": "sfg N=3 shards=1"}[mechanism])
    report = json.loads(entry.run())
    joint = report["counts"]["conclusive_joint"]
    joint[0][0] -= 1
    joint[0][1] += 1
    with pytest.raises(checks.CheckError, match="wrong conclusive"):
        entry.check(json.dumps(report))
    report["counts"]["conclusive_joint"][0][0] += 1
    report["counts"]["conclusive_joint"][0][1] -= 1
    report["counts"]["wrong_conclusive"] = 1
    with pytest.raises(checks.CheckError, match="wrong conclusive"):
        entry.check(json.dumps(report))


def test_sampled_rate_beyond_five_sigma_is_rejected():
    entry = op(LIBRARY, "min-error N=16 shards=1")
    report = json.loads(entry.run())
    p = report["analytic"]["success_rate"]
    report["empirical"]["success_rate"] = p + 6 * np.sqrt(p * (1 - p) / report["trials"])
    with pytest.raises(checks.CheckError, match="sigma"):
        entry.check(json.dumps(report))


def test_atom_numeric_off_by_1e_5_relative_is_rejected():
    entry = op(LIBRARY, "atom Gamma=2.0 k=1 field=1")
    result = entry.run()
    entry.check(result)
    with pytest.raises(checks.CheckError, match="atom numeric"):
        entry.check(result._replace(numeric=result.numeric * (1 + 1e-5)))


def test_golden_differing_in_one_byte_is_rejected():
    label = "multiport table csv (golden)"
    entry = op(workloads.cli_paper(INPUTS, lambda argv: workloads.dispatch_in_process(api, argv)), label)
    code, text, err = entry.run()
    entry.check((code, text, err))
    with pytest.raises(checks.CheckError, match="golden"):
        entry.check((code, text.replace("0.6533333333", "0.6533333334", 1), err))


def test_nonzero_exit_is_rejected():
    entry = op(workloads.cli_paper(INPUTS, lambda argv: (1, "", "error: boom\n")), "family validate")
    with pytest.raises(checks.CheckError, match="exit 1"):
        entry.check(entry.run())
