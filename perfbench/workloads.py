"""Seeded inputs and the fixed operation mix of each workload.

The seed draws every coefficient (modulus and phase) and every Monte Carlo
seed.  The mix of sizes, commands and formats is fixed, so numbers from
different seeds compare.  Each workload is a closed loop with one client
that runs its mix as a cycle.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

WORKLOADS = ("library", "cli-paper")
# Seconds one cycle of each mix takes, checks included, on a shared 2-CPU
# x86_64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) at the commit that
# added the benchmark.  A run makes round(--seconds / this) whole cycles.
NOMINAL_CYCLE_S = {"library": 5.3, "cli-paper": 5.5}
# Seconds of the set-up sample taken before each cycle: a worker start-up
# for the library, `import qsdsim.cli` in a fresh interpreter for the CLI.
NOMINAL_SETUP_S = {"library": 1.0, "cli-paper": 0.5}

# The library mix is one cycle of entries, cheapest first:
#   ("report", N, report, M, format)  build a family, report, then encode
#   ("mc", protocol, N, shards)       one 10^6-trial runner call, then dumps
#   ("atom", Gamma, k, j)             detector k on field state j
# On a shared machine every latency flips between a fast and a slow state
# about 1.5x apart, so an order statistic taken inside a group of similar
# entries jumps with the share of slow samples.  The entries are chosen so
# that the median (after entry 10 of 20) and the 90th percentile (after
# entry 18) sit on borders between groups; the statistic is then the
# fastest sample of the upper group.  The 90th-percentile border separates
# costs 2x apart, the median border only 1.2-1.5x: there the slowest N=3
# runs and the fastest N=128 reports overlap.  Per-entry medians at this
# commit are noted per group.
LIBRARY_MIX = (
    # 3-95 ms
    ("atom", 2.0, 1, 1),
    ("report", 32, "multiport", 1, "csv"),
    ("report", 32, "min-error", 1, "json"),
    ("atom", 0.1, 2, 2),
    ("report", 64, "min-error", 2, "csv"),
    ("report", 64, "min-error", 4, "json"),
    ("mc", "tpa", 3, 4),
    ("mc", "sfg", 3, 1),
    ("mc", "pipeline", 3, 4),
    ("mc", "min-error", 3, 1),
    # 115-620 ms
    ("report", 128, "min-error", 2, "csv"),
    ("mc", "min-error", 16, 1),
    ("mc", "min-error", 16, 4),
    ("atom", 0.03, 1, 2),
    ("atom", 0.03, 3, 3),
    ("mc", "min-error", 64, 1),
    ("atom", 0.01, 1, 1),
    ("report", 256, "min-error", 2, "csv"),
    # 1.2-1.5 s
    ("report", 256, "multiport", 1, "json"),
    ("report", 256, "multiport", 1, "json"),
)
MC_TRIALS = 10**6  # N = 256 is left out: 10^6 trials would need about 2.2 GiB
ATOM_ETA = 1.0
CLI_TRIALS = 100_000
CLI_TIMEOUT_S = 60.0

# Every family a workload uses, in draw order: the N = 3 families of the
# CLI, the atom and the N = 3 runners, then those of the library entries.
FAMILY_SHAPES = tuple(
    dict.fromkeys(
        [(3, 2), (3, 1)]
        + [(e[1], e[3]) for e in LIBRARY_MIX if e[0] == "report"]
        + [(e[2], 2) for e in LIBRARY_MIX if e[0] == "mc"]
    )
)
MC_SEED_COUNT = 16

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Environment for workers and CLI children.

    qsdsim comes from this checkout's src/.  BLAS runs one thread unless the
    caller set a count: the matrices here are at most 256 x 256, and one
    thread per process keeps a two-core machine free of oversubscription.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("QSD_SEED", None)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


# ----------------------------------------------------------------- inputs


def draw_polar(rng, M: int) -> list[list[float]]:
    """M + 1 coefficients (modulus, phase) with unit total weight.

    For M >= 2 the last modulus is strictly the smallest: the absorption and
    conversion schedules need |c_M| <= |c_0|, |c_1|, and a strict margin
    keeps the conversion's recovered ancilla family informative.
    """
    mags = rng.uniform(0.35, 1.0, M + 1)
    if M >= 2:
        mags[M] = mags[:M].min() * rng.uniform(0.3, 0.8)
    mags /= math.sqrt(float(np.sum(mags**2)))
    phases = rng.uniform(0.0, 2.0 * math.pi, M + 1)
    return [[float(m), float(p)] for m, p in zip(mags, phases)]


def draw_inputs(seed: int) -> dict:
    """All generated inputs for a seed; the same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    families = {f"N{N}M{M}": draw_polar(rng, M) for N, M in FAMILY_SHAPES}
    mc_seeds = [int(s) for s in rng.integers(0, 2**31, size=MC_SEED_COUNT)]
    return {"seed": seed, "families": families, "mc_seeds": mc_seeds}


def moduli(polar) -> np.ndarray:
    return np.array([m for m, _ in polar])


def complex_coeffs(polar) -> list[complex]:
    """The coefficients the CLI builds from the same --coeffs-polar text."""
    return [complex(m * np.cos(p), m * np.sin(p)) for m, p in polar]


def polar_flags(N: int, M: int, polar) -> list[str]:
    return ["--N", str(N), "--M", str(M), "--coeffs-polar"] + [f"{m!r},{p!r}" for m, p in polar]


# ----------------------------------------------------------------- operations


@dataclass(frozen=True)
class Op:
    """One entry of a workload's mix.

    label names the entry; kind names its code path, and set-up runs each
    kind once untimed (see warm_ups).  run returns the output that
    check inspects; check raises CheckError.
    """

    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    trials: int = 0  # Monte Carlo trials one run samples


def _report_op(api, N: int, M: int, polar, report: str, fmt: str) -> Op:
    key = "outcome_table" if report == "min-error" else "click_table"
    coeffs = complex_coeffs(polar)
    expected = checks.p_correct(N, moduli(polar))

    def run():
        # names are looked up at call time, so a traced run calls the wrappers
        build = api.min_error_report if report == "min-error" else api.multiport_report
        report_dict = build(api.make_family(N, M, coeffs))
        text = api.dumps(report_dict) if fmt == "json" else api.table_csv(report_dict[key])
        return report_dict, text

    def check(out):
        report_dict, text = out
        table = np.asarray(report_dict[key])
        checks.rows_sum_to_one(table, serialized=False)
        checks.diagonal_mean(table, expected, serialized=False)
        if fmt == "json":
            serialized = checks.strict_json(text)[key]
        else:
            serialized = checks.csv_table(text, N)
        checks.matches_rounded(serialized, table)

    return Op(f"{report}/{fmt} N={N} M={M}", f"{report}-{fmt}", run, check)


def _mc_op(api, N: int, polar, protocol: str, shards: int, seed: int) -> Op:
    family = api.make_family(N, 2, complex_coeffs(polar))
    report_check = _mc_check(N, moduli(polar), protocol)

    def run():
        if protocol == "min-error":
            report = api.run_min_error(family, MC_TRIALS, seed, shards)
        elif protocol == "pipeline":
            report = api.run_sfg_recovery_pipeline(family, MC_TRIALS, seed, shards)
        else:
            report = api.run_unambiguous(family, protocol, MC_TRIALS, seed, shards)
        return api.dumps(report.as_dict())

    def check(text):
        report_check(checks.strict_json(text), MC_TRIALS)

    return Op(f"{protocol} N={N} shards={shards}", protocol, run, check, MC_TRIALS)


def _mc_check(N: int, mags, protocol: str):
    if protocol == "min-error":
        rates = {"success_rate": checks.p_correct(N, mags)}
    elif protocol == "pipeline":
        rates = {
            "overall_success_rate": checks.p_recovery_overall(N, mags),
            "conclusive_rate": checks.p_conclusive(N, mags),
        }
    else:
        p_d = checks.p_conclusive(N, mags)
        rates = {"conclusive_rate": p_d, "inconclusive_rate": 1.0 - p_d}

    def check(report: dict, trials: int) -> None:
        checks.trial_report(report, trials, rates)
        if protocol in ("tpa", "sfg"):
            checks.no_wrong_conclusive(report)

    return check


def _atom_op(api, family, states, mags, gamma: float, k: int, j: int) -> Op:
    expected = checks.atom_analytic(3, mags, k, j, ATOM_ETA, gamma)

    def run():
        model = api.detector_atom_model(family, k, ATOM_ETA, gamma)
        return api.atom_excitation_avg(model, states[j - 1])

    def check(result):
        checks.atom_row(result.numeric, result.analytic_rabi_sqrt6)
        if not checks.close(result.analytic_rabi_sqrt6, expected, checks.TABLE_TOL):
            raise checks.CheckError(
                f"analytic_rabi_sqrt6 {result.analytic_rabi_sqrt6!r} != {expected!r}"
            )

    return Op(f"atom Gamma={gamma} k={k} field={j}", "atom", run, check)


def library(api, inputs: dict) -> list[Op]:
    """The in-process mix: report tables, Monte Carlo runs and the atom sweep."""
    fams = inputs["families"]
    seeds = iter(inputs["mc_seeds"])
    three = fams["N3M2"]
    family = api.make_family(3, 2, complex_coeffs(three))
    basis = api.build_basis(2, 2, ())
    states = api.family_states(family, basis, api.two_photon_labels(basis))
    ops = []
    for tag, *entry in LIBRARY_MIX:
        if tag == "report":
            N, report, M, fmt = entry
            ops.append(_report_op(api, N, M, fams[f"N{N}M{M}"], report, fmt))
        elif tag == "mc":
            protocol, N, shards = entry
            ops.append(_mc_op(api, N, fams[f"N{N}M2"], protocol, shards, next(seeds)))
        else:
            ops.append(_atom_op(api, family, states, moduli(three), *entry))
    return ops


def warm_ups(api, inputs: dict, ops: list[Op]) -> list[Op]:
    """One library operation of each kind: report kinds at N = 32, others at first use."""
    kinds = dict.fromkeys((e[2], e[4]) for e in LIBRARY_MIX if e[0] == "report")
    warm = [_report_op(api, 32, 1, inputs["families"]["N32M1"], r, f) for r, f in kinds]
    first = {w.kind: w for w in warm}
    for op in ops:
        first.setdefault(op.kind, op)
    return list(first.values())


# ----------------------------------------------------------------- CLI


def _golden(name: str):
    golden = (GOLDEN / name).read_text()

    def check(text):
        checks.same_bytes(text, golden, name)

    return check


def cli_commands(inputs: dict) -> list[tuple[str, list[str], Callable[[str], None]]]:
    """(label, argv, stdout check) for the README subcommands at paper size."""
    polar = inputs["families"]["N3M2"]
    polar1 = inputs["families"]["N3M1"]
    mags, mags1 = moduli(polar), moduli(polar1)
    fam, fam1 = polar_flags(3, 2, polar), polar_flags(3, 1, polar1)
    seeds = [str(s) for s in inputs["mc_seeds"][:4]]
    p_c, p_d = checks.p_correct(3, mags), checks.p_conclusive(3, mags)
    mc = ["--trials", str(CLI_TRIALS)]

    def validate(text):
        report = checks.strict_json(text)
        checks.field(report, "min_error_success", p_c)
        checks.field(report, "unambiguous_success", p_d)

    def table_csv(text):
        table = checks.csv_table(text, 3)
        checks.rows_sum_to_one(table, serialized=True)
        checks.diagonal_mean(table, p_c, serialized=True)

    def simulate(protocol):
        report_check = _mc_check(3, mags, protocol)
        return lambda text: report_check(checks.strict_json(text), CLI_TRIALS)

    def ud_analyze(text):
        checks.field(checks.strict_json(text), "success_probability", p_d)

    def multiport_json(text):
        report = checks.strict_json(text)
        checks.rows_sum_to_one(report["click_table"], serialized=True)
        checks.diagonal_mean(report["click_table"], checks.p_correct(3, mags1), serialized=True)
        checks.field(report, "success_probability", checks.p_correct(3, mags1))

    def atom(text):
        for row in checks.strict_json(text)["rows"]:
            checks.atom_row(row["numeric"], row["analytic_rabi_sqrt6"])
            exact = checks.atom_analytic(3, mags, 1, row["field_k"], ATOM_ETA, 2.0)
            checks.field(row, "analytic_rabi_sqrt6", exact)

    return [
        ("family validate", ["family", "validate", *fam], validate),
        (
            "min-error analyze json (golden)",
            ["min-error", "analyze", "--coincident", "3", "--no-timestamp"],
            _golden("min_error_analyze_coincident3.json"),
        ),
        ("min-error analyze csv", ["min-error", "analyze", *fam, "--format", "csv"], table_csv),
        (
            "min-error simulate",
            ["min-error", "simulate", *fam, *mc, "--seed", seeds[0]],
            simulate("min-error"),
        ),
        ("unambiguous analyze tpa", ["unambiguous", "analyze", *fam, "--mechanism", "tpa"], ud_analyze),
        (
            "unambiguous analyze sfg (golden)",
            ["unambiguous", "analyze", "--coincident", "3", "--mechanism", "sfg", "--no-timestamp"],
            _golden("unambiguous_analyze_sfg_coincident3.json"),
        ),
        (
            "unambiguous simulate tpa",
            ["unambiguous", "simulate", *fam, "--mechanism", "tpa", *mc, "--seed", seeds[1]],
            simulate("tpa"),
        ),
        (
            "unambiguous simulate sfg",
            ["unambiguous", "simulate", *fam, "--mechanism", "sfg", *mc, "--seed", seeds[2]],
            simulate("sfg"),
        ),
        (
            "pipeline sfg-recover",
            ["pipeline", "sfg-recover", *fam, *mc, "--seed", seeds[3]],
            simulate("pipeline"),
        ),
        ("multiport table json", ["multiport", "table", *fam1], multiport_json),
        (
            "multiport table csv (golden)",
            ["multiport", "table", "--N", "3", "--M", "1", "--coeffs", "0.8", "0.6", "--format", "csv"],
            _golden("multiport_table_n3.csv"),
        ),
        (
            "atom-detector",
            ["atom-detector", *fam, "--detector-k", "1", "--eta", str(ATOM_ETA), "--gamma", "2.0"],
            atom,
        ),
    ]


def spawn_cli(argv: list[str], env: dict) -> tuple[int, str, str]:
    """Run `python -m qsdsim argv` from spawn until its output is fully read."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "qsdsim", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err


def dispatch_in_process(api, argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI through cli.dispatch, capturing what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def cli_paper(inputs: dict, runner: Callable[[list[str]], tuple[int, str, str]]) -> list[Op]:
    ops = []
    for label, argv, stdout_check in cli_commands(inputs):

        def run(argv=argv):
            return runner(argv)

        def check(out, stdout_check=stdout_check):
            code, text, err = out
            if code != 0 or err:
                raise checks.CheckError(f"exit {code}, stderr {err.strip()[:200]!r}")
            stdout_check(text)

        ops.append(Op(label, label, run, check))
    return ops
