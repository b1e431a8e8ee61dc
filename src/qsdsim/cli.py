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
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

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
from .unambiguous import MECHANISMS, success_probability_ud, ud_report

DEFAULT_SEED = 424242
DEFAULT_TRIALS = 100000


class _Exit(Exception):
    """argparse ended the call: args[0] is dispatch's status, 0 for help, 64 for a usage error."""


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
        self.exit(64, f"{self.prog}: error: {message}\n{self.format_usage()}\n")

    def exit(self, status=0, message=None):
        # help and usage errors return through dispatch, so cli.main ends them like any call
        self._print_message(message, sys.stderr)  # writes nothing for no message
        raise _Exit(status)


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


def _out_path(text: str) -> str:
    """The --out path; an empty one names no file, so it is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    return text


def _write_out(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then rename it onto path (onto the target of a
    link at path), so a failed write leaves path as it was and no temporary file.  The file keeps
    path's mode, or takes 0666 less the umask if new, as a plain write would give it.  A rename
    needs write access to the directory only, so an existing file is first opened for writing,
    which fails where a plain write would."""
    path = os.path.realpath(path)
    umask = os.umask(0)
    os.umask(umask)
    if os.path.isfile(path):
        os.close(os.open(path, os.O_WRONLY))
    fd, temp = tempfile.mkstemp(dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "w") as file:
            file.write(text)
        os.chmod(temp, os.stat(path).st_mode & 0o7777 if os.path.isfile(path) else 0o666 & ~umask)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _emit(payload, table, args) -> None:
    """Write payload as JSON, or its p(j|k) table payload[table] as CSV under --format csv."""
    if args.format == "csv":
        text = table_csv(payload[table])
    else:
        payload = dict(payload)
        payload["command"] = " ".join(args.words)
        if not args.no_timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = dumps(payload)
    # stdout is flushed here, so a closed pipe fails like an unwritable --out
    try:
        if not args.out:
            sys.stdout.write(text)
            sys.stdout.flush()
        elif os.path.exists(args.out) and not os.path.isfile(args.out):
            # a directory, device or pipe is written in place, as a rename would replace it
            Path(args.out).write_text(text)
        else:
            _write_out(args.out, text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out or 'stdout'}: {exc.strerror or exc}") from exc


def _family_validate(family, args):
    return {
        "family": family_to_json(family),
        "linearly_independent": family.linearly_independent,
        "min_error_success": success_probability_analytic(family),
        "unambiguous_success": (
            success_probability_ud(family) if family.linearly_independent else None
        ),
    }


def _atom_detector(family, args):
    model = detector_atom_model(family, args.detector_k, args.eta, args.gamma)
    basis = build_basis(2, 2)
    states = family_states(family, basis, two_photon_labels(basis))
    rows = [
        {"field_k": j, **atom_excitation_avg(model, state)._asdict()}
        for j, state in enumerate(states, start=1)
    ]
    return {
        "detector_k": args.detector_k,
        "eta": args.eta,
        "gamma": args.gamma,
        "alpha": [[a.real, a.imag] for a in model.alpha.tolist()],
        "rows": rows,
    }


class Command(NamedTuple):
    """One subcommand: its report, its CSV table and the flags only it takes."""

    payload: Callable  # (family, args) -> the JSON report
    table: str | None = None  # key of the payload's p(j|k) table that --format csv writes
    flags: tuple = ()  # (flag, add_argument keywords), between the family and output flags


# every command takes these, before its own flags ...
_FAMILY = (
    (
        "--coincident",
        dict(type=int, metavar="N", help="use the two-photon family of a coincident pair split N ways"),
    ),
    ("--N", dict(type=int, help="number of states")),
    ("--M", dict(type=int, help="largest reference index (M+1 coefficients)")),
    ("--coeffs", dict(nargs="+", metavar="RE[,IM]", help="coefficients c_0..c_M, cartesian")),
    ("--coeffs-polar", dict(nargs="+", metavar="MAG,PHASE", help="coefficients c_0..c_M, polar")),
)
# ... and these after them
_OUTPUT = (
    ("--format", dict(choices=("json", "csv"), default="json")),
    ("--out", dict(default=None, type=_out_path, help="write the report here instead of stdout")),
    ("--no-timestamp", dict(action="store_true", help="omit the timestamp field from JSON output")),
)
# a command that samples takes these; only the sampling commands read QSD_SEED
_SAMPLING = (
    ("--trials", dict(type=int, default=DEFAULT_TRIALS)),
    ("--seed", dict(type=int, default=None)),
    ("--shards", dict(type=int, default=1)),
)
_MECHANISM = (("--mechanism", dict(choices=MECHANISMS, required=True)),)
_ATOM = (
    ("--detector-k", dict(type=int, default=1, help="which detection state the atom selects")),
    ("--eta", dict(type=float, default=1.0)),
    ("--gamma", dict(type=float, default=1.0)),
)

# every subcommand, keyed by its words, in --help order; a payload looks up
# the report builder it calls when it runs, not when this table is built
COMMANDS = {
    ("family", "validate"): Command(_family_validate),
    ("min-error", "analyze"): Command(
        lambda family, args: min_error_report(family), table="outcome_table"
    ),
    ("min-error", "simulate"): Command(
        lambda family, args: run_min_error(
            family, args.trials, _seed(args), args.shards
        ).as_dict(),
        flags=_SAMPLING,
    ),
    ("unambiguous", "analyze"): Command(
        lambda family, args: ud_report(family, args.mechanism), flags=_MECHANISM
    ),
    ("unambiguous", "simulate"): Command(
        lambda family, args: run_unambiguous(
            family, args.mechanism, args.trials, _seed(args), args.shards
        ).as_dict(),
        flags=_MECHANISM + _SAMPLING,
    ),
    ("pipeline", "sfg-recover"): Command(
        lambda family, args: run_sfg_recovery_pipeline(
            family, args.trials, _seed(args), args.shards
        ).as_dict(),
        flags=_SAMPLING,
    ),
    ("multiport", "table"): Command(
        lambda family, args: multiport_report(family), table="click_table"
    ),
    ("atom-detector",): Command(_atom_detector, flags=_ATOM),
}
# the --help line of each first word
_GROUP_HELP = {
    "family": "family parameter checks",
    "min-error": "square-root measurement",
    "unambiguous": "contraction protocols",
    "pipeline": "composed protocols",
    "multiport": "single-photon interferometer",
    "atom-detector": "two-photon atom detector",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="qsdsim", description=__doc__, add_help=True)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    groups = {}
    for words, command in COMMANDS.items():
        name, *action = words
        if not action:
            p = commands.add_parser(name, help=_GROUP_HELP[name])
        else:
            if name not in groups:
                group = commands.add_parser(name, help=_GROUP_HELP[name])
                groups[name] = group.add_subparsers(
                    dest="action", required=True, parser_class=_Parser
                )
            p = groups[name].add_parser(*action)
        for flag, options in (*_FAMILY, *command.flags, *_OUTPUT):
            p.add_argument(flag, **options)
        p.set_defaults(words=words)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        family = _family_from_args(args, parser)
        command = COMMANDS[args.words]
        # before the payload is built, so a report without a table is never computed
        if args.format == "csv" and command.table is None:
            raise ValueError(f"{' '.join(args.words)} has no CSV form; use --format json")
        _emit(command.payload(family, args), command.table, args)
        return 0
    except _Exit as exc:
        return exc.args[0]
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
    """The console script and python -m qsdsim: dispatch sys.argv, then end the process.

    Once dispatch returns (for --help too), stdout and stderr are flushed
    and os._exit ends the process with its exit code, so the interpreter
    is not torn down and no atexit handler runs.  A flush that fails ends a successful run
    with exit 1, without a traceback.  An exception that escapes dispatch
    ends the process the normal way, with its traceback.
    """
    code = dispatch(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            code = code or 1
    os._exit(code)


if __name__ == "__main__":
    main()
