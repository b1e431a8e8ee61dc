"""Command line front end.

Subcommands:

    family validate          check family parameters, print derived facts
    min-error analyze        square-root measurement report
    min-error simulate       Monte Carlo of the square-root measurement
    unambiguous analyze      contraction report (--mechanism tpa|sfg)
    unambiguous simulate     Monte Carlo of the contraction protocol
    pipeline sfg-recover     conversion + retry-on-ancilla Monte Carlo
    multiport table          interferometer transfer matrix and click table
    atom-detector            waiting-time averaged atom excitation

Families are given either as --coincident N (the two-photon family from a
coincident pair) or explicitly as --N --M with --coeffs "re,im" ... or
--coeffs-polar "mag,phase" ...  Exit codes: 0 success, 1 invalid
parameters, 2 infeasible interaction schedule, 64 usage errors.  The
simulate commands (min-error simulate, unambiguous simulate, pipeline
sfg-recover) take their seed from --seed, else from the QSD_SEED
environment variable, else the default; no other command reads QSD_SEED.
Any JSON report carries a timestamp unless --no-timestamp.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from .channels import ScheduleError, atom_excitation_avg, detector_atom_model
from .families import (
    FamilyError,
    SymmetricFamily,
    coincident_family,
    family_states,
    family_to_json,
    make_family,
    two_photon_labels,
)
from .fock import build_basis
from .minerror import min_error_report, success_probability_analytic
from .montecarlo import run_min_error, run_sfg_recovery_pipeline, run_unambiguous
from .multiport import multiport_report
from .serialize import dumps, parse_complex, parse_polar, table_csv
from .unambiguous import success_probability_ud, ud_report

DEFAULT_SEED = 424242
DEFAULT_TRIALS = 100000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes.

    Any argument that starts with a minus and a digit, '.digit', 'inf' or
    'nan' (in any case) is a value, not a flag, so '--eta -1e-3',
    '--coeffs 0.8 -0.6,0' and '--eta -inf' parse and reach the value checks;
    argparse's own matcher takes only plain decimals such as -0.6.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _add_family_flags(parser):
    parser.add_argument(
        "--coincident",
        type=int,
        metavar="N",
        help="use the two-photon family of a coincident pair split N ways",
    )
    parser.add_argument("--N", type=int, help="number of states")
    parser.add_argument("--M", type=int, help="largest reference index (M+1 coefficients)")
    parser.add_argument(
        "--coeffs", nargs="+", metavar="RE[,IM]", help="coefficients c_0..c_M, cartesian"
    )
    parser.add_argument(
        "--coeffs-polar", nargs="+", metavar="MAG,PHASE", help="coefficients c_0..c_M, polar"
    )


def _add_run_flags(parser, trials: bool):
    if trials:
        parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        parser.add_argument("--seed", type=int, default=None)
        parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    # the two commands with a p(j|k) table set this to True
    parser.set_defaults(has_table=False)
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp field from JSON output"
    )


def _family_from_args(args, parser) -> SymmetricFamily:
    explicit = args.N is not None or args.M is not None or args.coeffs or args.coeffs_polar
    if args.coincident is not None:
        if explicit:
            parser.error("--coincident conflicts with explicit family flags")
        return coincident_family(args.coincident)
    if args.N is None or args.M is None or not (args.coeffs or args.coeffs_polar):
        parser.error("give --coincident N, or --N --M with --coeffs/--coeffs-polar")
    if args.coeffs and args.coeffs_polar:
        parser.error("--coeffs and --coeffs-polar are mutually exclusive")
    if args.coeffs:
        coeffs = [parse_complex(c) for c in args.coeffs]
    else:
        coeffs = [parse_polar(c) for c in args.coeffs_polar]
    return make_family(args.N, args.M, coeffs)


def _seed(args) -> int:
    """The Monte Carlo seed: --seed, else a non-empty QSD_SEED, else DEFAULT_SEED."""
    source, value = "--seed", args.seed
    if value is None:
        source, value = "QSD_SEED", os.environ.get("QSD_SEED")
        if not value:
            return DEFAULT_SEED
    try:
        seed = int(value)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise ValueError(f"{source} must be a non-negative integer, got {value!r}")


def _command(args) -> str:
    """The subcommand words, such as 'min-error analyze' or 'atom-detector'."""
    return " ".join(filter(None, (args.command, getattr(args, "action", None))))


def _emit(payload, table, args) -> None:
    """Write payload as JSON, or its p(j|k) `table` as CSV under --format csv."""
    if args.format == "csv":
        text = table_csv(table)
    else:
        payload = dict(payload)
        payload["command"] = _command(args)
        if not args.no_timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = dumps(payload)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_family_validate(family, args):
    payload = {
        "family": family_to_json(family),
        "linearly_independent": family.linearly_independent,
        "min_error_success": success_probability_analytic(family),
        "unambiguous_success": (
            success_probability_ud(family) if family.linearly_independent else None
        ),
    }
    return payload, None


def _cmd_min_error_analyze(family, args):
    report = min_error_report(family)
    return report, report["outcome_table"]


def _cmd_min_error_simulate(family, args):
    report = run_min_error(family, args.trials, _seed(args), args.shards)
    return report.as_dict(), None


def _cmd_unambiguous_analyze(family, args):
    return ud_report(family, args.mechanism), None


def _cmd_unambiguous_simulate(family, args):
    report = run_unambiguous(family, args.mechanism, args.trials, _seed(args), args.shards)
    return report.as_dict(), None


def _cmd_pipeline_sfg_recover(family, args):
    report = run_sfg_recovery_pipeline(family, args.trials, _seed(args), args.shards)
    return report.as_dict(), None


def _cmd_multiport_table(family, args):
    report = multiport_report(family)
    return report, report["click_table"]


def _cmd_atom_detector(family, args):
    model = detector_atom_model(family, args.detector_k, args.eta, args.gamma)
    basis = build_basis(2, 2, ())
    states = family_states(family, basis, two_photon_labels(basis))
    rows = []
    for j, state in enumerate(states, start=1):
        result = atom_excitation_avg(model, state)
        rows.append(
            {
                "field_k": j,
                "numeric": result.numeric,
                "analytic_rabi_sqrt6": result.analytic_rabi_sqrt6,
                "analytic_rabi_sqrt3": result.analytic_rabi_sqrt3,
                "detection_overlap": result.detection_overlap,
                "gamma_to_zero_limit": result.detection_overlap / 6.0,
            }
        )
    payload = {
        "detector_k": args.detector_k,
        "eta": args.eta,
        "gamma": args.gamma,
        "alpha": [[a.real, a.imag] for a in model.alpha],
        "rows": rows,
    }
    return payload, None


def build_parser() -> _Parser:
    parser = _Parser(prog="qsdsim", description=__doc__, add_help=True)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_family = commands.add_parser("family", help="family parameter checks")
    family_actions = p_family.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = family_actions.add_parser("validate")
    _add_family_flags(p)
    _add_run_flags(p, trials=False)
    p.set_defaults(func=_cmd_family_validate)

    p_me = commands.add_parser("min-error", help="square-root measurement")
    me_actions = p_me.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = me_actions.add_parser("analyze")
    _add_family_flags(p)
    _add_run_flags(p, trials=False)
    p.set_defaults(func=_cmd_min_error_analyze, has_table=True)
    p = me_actions.add_parser("simulate")
    _add_family_flags(p)
    _add_run_flags(p, trials=True)
    p.set_defaults(func=_cmd_min_error_simulate)

    p_ud = commands.add_parser("unambiguous", help="contraction protocols")
    ud_actions = p_ud.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = ud_actions.add_parser("analyze")
    _add_family_flags(p)
    p.add_argument("--mechanism", choices=("tpa", "sfg"), required=True)
    _add_run_flags(p, trials=False)
    p.set_defaults(func=_cmd_unambiguous_analyze)
    p = ud_actions.add_parser("simulate")
    _add_family_flags(p)
    p.add_argument("--mechanism", choices=("tpa", "sfg"), required=True)
    _add_run_flags(p, trials=True)
    p.set_defaults(func=_cmd_unambiguous_simulate)

    p_pipe = commands.add_parser("pipeline", help="composed protocols")
    pipe_actions = p_pipe.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = pipe_actions.add_parser("sfg-recover")
    _add_family_flags(p)
    _add_run_flags(p, trials=True)
    p.set_defaults(func=_cmd_pipeline_sfg_recover)

    p_mp = commands.add_parser("multiport", help="single-photon interferometer")
    mp_actions = p_mp.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = mp_actions.add_parser("table")
    _add_family_flags(p)
    _add_run_flags(p, trials=False)
    p.set_defaults(func=_cmd_multiport_table, has_table=True)

    p = commands.add_parser("atom-detector", help="two-photon atom detector")
    _add_family_flags(p)
    p.add_argument("--detector-k", type=int, default=1, help="which detection state the atom selects")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    _add_run_flags(p, trials=False)
    p.set_defaults(func=_cmd_atom_detector)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        family = _family_from_args(args, parser)
        # before the handler runs, so a report without a table is never computed
        if args.format == "csv" and not args.has_table:
            raise ValueError(f"{_command(args)} has no CSV form; use --format json")
        _emit(*args.func(family, args), args)
        return 0
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 64
    except ScheduleError as exc:
        print(f"infeasible schedule: {exc}", file=sys.stderr)
        return 2
    except FamilyError as exc:
        print(f"invalid family ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
