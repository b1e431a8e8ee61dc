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
default Monte Carlo seed can be overridden by the QSD_SEED environment
variable, and any JSON report carries a timestamp unless --no-timestamp.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
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
from .unambiguous import recovery_pipeline_analytic, success_probability_ud, ud_report

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


@dataclass
class RunConfig:
    """Common run options resolved from flags and environment."""

    seed: int
    trials: int
    shards: int
    fmt: str
    out: str | None
    timestamp: bool


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
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp field from JSON output"
    )


def _family_from_args(args, parser) -> SymmetricFamily:
    explicit = args.N is not None or args.M is not None or args.coeffs or args.coeffs_polar
    if args.coincident is not None:
        if explicit:
            raise UsageError(
                f"{parser.prog}: error: --coincident conflicts with explicit family flags\n"
                f"{parser.format_usage()}"
            )
        return coincident_family(args.coincident)
    if args.N is None or args.M is None or not (args.coeffs or args.coeffs_polar):
        raise UsageError(
            f"{parser.prog}: error: give --coincident N, or --N --M with --coeffs/--coeffs-polar\n"
            f"{parser.format_usage()}"
        )
    if args.coeffs and args.coeffs_polar:
        raise UsageError(
            f"{parser.prog}: error: --coeffs and --coeffs-polar are mutually exclusive\n"
            f"{parser.format_usage()}"
        )
    if args.coeffs:
        coeffs = [parse_complex(c) for c in args.coeffs]
    else:
        coeffs = [parse_polar(c) for c in args.coeffs_polar]
    return make_family(args.N, args.M, coeffs)


def _run_config(args) -> RunConfig:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("QSD_SEED")
        seed = int(env) if env else DEFAULT_SEED
    return RunConfig(
        seed=int(seed),
        trials=int(getattr(args, "trials", 0)),
        shards=int(getattr(args, "shards", 1)),
        fmt=args.format,
        out=args.out,
        timestamp=not args.no_timestamp,
    )


def _emit(payload, config: RunConfig, command: str, table=None) -> None:
    """Write payload as JSON, or its p(j|k) `table` as CSV under --format csv."""
    if config.fmt == "csv":
        if table is None:
            raise ValueError(f"{command} has no CSV form; use --format json")
        text = table_csv(table)
    else:
        payload = dict(payload)
        payload["command"] = command
        if config.timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = dumps(payload)
    if config.out:
        try:
            Path(config.out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {config.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_family_validate(args, parser) -> None:
    family = _family_from_args(args, parser)
    payload = {
        "family": family_to_json(family),
        "linearly_independent": family.linearly_independent,
        "min_error_success": success_probability_analytic(family),
        "unambiguous_success": (
            success_probability_ud(family) if family.linearly_independent else None
        ),
    }
    _emit(payload, _run_config(args), "family validate")


def _cmd_min_error_analyze(args, parser) -> None:
    family = _family_from_args(args, parser)
    report = min_error_report(family)
    _emit(report, _run_config(args), "min-error analyze", table=report["outcome_table"])


def _cmd_min_error_simulate(args, parser) -> None:
    family = _family_from_args(args, parser)
    config = _run_config(args)
    report = run_min_error(family, config.trials, config.seed, config.shards)
    _emit(report.as_dict(), config, "min-error simulate")


def _cmd_unambiguous_analyze(args, parser) -> None:
    family = _family_from_args(args, parser)
    _emit(ud_report(family, args.mechanism), _run_config(args), "unambiguous analyze")


def _cmd_unambiguous_simulate(args, parser) -> None:
    family = _family_from_args(args, parser)
    config = _run_config(args)
    report = run_unambiguous(family, args.mechanism, config.trials, config.seed, config.shards)
    _emit(report.as_dict(), config, "unambiguous simulate")


def _cmd_pipeline_sfg_recover(args, parser) -> None:
    family = _family_from_args(args, parser)
    config = _run_config(args)
    report = run_sfg_recovery_pipeline(family, config.trials, config.seed, config.shards)
    payload = report.as_dict()
    analytic = recovery_pipeline_analytic(family)
    recovered = analytic["recovered_family"]
    payload["recovered_family"] = (
        "uninformative" if recovered is None else family_to_json(recovered)
    )
    payload["analytic"]["recovery_success_rate"] = analytic["recovery_success_probability"]
    _emit(payload, config, "pipeline sfg-recover")


def _cmd_multiport_table(args, parser) -> None:
    family = _family_from_args(args, parser)
    report = multiport_report(family)
    _emit(report, _run_config(args), "multiport table", table=report["click_table"])


def _cmd_atom_detector(args, parser) -> None:
    family = _family_from_args(args, parser)
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
    _emit(payload, _run_config(args), "atom-detector")


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
    p.set_defaults(func=_cmd_min_error_analyze)
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
    p.set_defaults(func=_cmd_multiport_table)

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
        args.func(args, parser)
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
