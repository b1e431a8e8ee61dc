"""Every statement of the package that a command line can reach is reached here.

The argv of ARGV run in one process through `dispatch` under sys.settrace.
Two gates read that one traced run:

* Functions.  Every function and method whose code lives in src/qsdsim/
  must be called, except the console-script `main` (which only forwards
  sys.argv to `dispatch`).  Dataclass and NamedTuple methods are
  generated from strings, so the filename filter leaves them out.
* Statements.  The unit is an AST statement in a function body under
  src/qsdsim/ (a docstring is not one); it is reached when a line event
  fires on its first line.  The statements left unreached must be
  exactly UNREACHED, each keyed `module.qualname: first line, stripped`.
  A statement that only a direct call of an internal could reach is not
  kept: a guard on an argument that every caller passes as a constant or
  an already validated value is deleted, not tested.  UNREACHED admits
  four kinds only, and may only shrink:
    (a) the failure branch of a self-check, which only a defect reaches
        (`require_small`'s raise, `survivor_gram`'s guards);
    (b) a documented error of a README library name that no argv reaches
        (`make_family`'s `coefficient-ordering`, which the CLI never asks
        for, and `non-integer-size`, which argparse's int flags exclude);
    (c) the encoder's rejections and its empty-container arm, which the
        property tests of tests/test_serialize.py pin against the
        reference encoders of tests/reference.py but no report produces:
        non-finite values, unsupported types and arrays, an empty dict or
        list, and a Circulant asked for a view;
    (d) the `MemoryError` handler of `dispatch` and `cli.main`.
  A reached statement left on the list fails too, so the list shrinks as
  the argv grow.

Each ARGV entry pins its exit code, and tests/golden/reach.sha256 pins the
SHA-256 of its stdout, stderr and {tmp}/report.json, which each entry
finds empty, so that --out there replaces an existing file.  A JSON
report's timestamp is replaced by a fixed token before hashing, and so is
the temporary directory that {tmp} stands for.  Leading NAME=value words set
an environment variable for that entry; QSD_SEED is unset otherwise, and
COLUMNS is 80, so a usage error wraps the same in any terminal.  A
deliberate output change regenerates the digests from the root of the
repository with

    PYTHONPATH=src python tests/test_reach.py > tests/golden/reach.sha256

No package object has a `cache_clear`: the package keeps no state between
calls, so each traced call runs every statement its first call would.

The same argv run once more with every LAPACK routine of numpy.linalg
patched to raise, and so does the atom's average at three Gammas: the
package calls none of them.  Nor does it call BLAS: an AST scan of
src/qsdsim/ finds no matrix product (`@`, `@=`, `dot`, `matmul`, `inner`,
`vdot`, `tensordot`, `einsum`) and no `linalg.norm` without `axis=`,
which numpy computes with a BLAS dot.
"""

import ast
import contextlib
import hashlib
import importlib
import inspect
import io
import itertools
import os
import pkgutil
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np

import qsdsim
from qsdsim.channels import atom_excitation_avg, detector_atom_model
from qsdsim.cli import dispatch
from qsdsim.families import coincident_family, family_states, two_photon_labels
from qsdsim.fock import build_basis

PACKAGE_DIR = Path(qsdsim.__file__).resolve().parent
DIGESTS = Path(__file__).parent / "golden" / "reach.sha256"
# the numpy.linalg entry points that call LAPACK
LAPACK_ROUTINES = (
    "eigh", "eig", "eigvals", "eigvalsh", "svd", "solve", "inv", "pinv", "qr", "cholesky",
    "lstsq", "det", "slogdet",
)
# the numpy functions and methods that call a BLAS product
BLAS_PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}
EXAMPLE = ["--N", "3", "--M", "2", "--coeffs", "0.7", "0.6", "0.3872983346207417"]
UNORDERED = ["--N", "3", "--M", "2", "--coeffs", "0.3872983346207417", "0.6", "0.7"]
UNIFORM = ["--N", "3", "--M", "2", "--coeffs", *["0.5773502691896258"] * 3]
# equal moduli that normalization leaves |c_2| one rounding above |c_0|
TIED = ["--N", "3", "--M", "2", "--coeffs-polar", "0.5773502691896258,0",
        *["0.5773502691896258,0.1"] * 2]
TWO_TERM = ["--N", "4", "--M", "1", "--coeffs", "0.8", "0.6"]
POLAR = ["--N", "3", "--M", "1", "--coeffs-polar", "0.8,0.0", "0.6,1.5707963"]
RUN = ["--trials", "1000", "--seed", "7"]
ATOM = ["atom-detector", "--coincident", "3"]
ARGV = [
    (["family", "validate", "--coincident", "3"], 0),
    (["min-error", "analyze", "--coincident", "3"], 0),
    (["min-error", "analyze", *TWO_TERM, "--format", "csv"], 0),
    (["min-error", "simulate", "--coincident", "3", *RUN], 0),
    (["unambiguous", "analyze", *EXAMPLE, "--mechanism", "tpa"], 0),
    (["unambiguous", "analyze", *EXAMPLE, "--mechanism", "sfg"], 0),
    (["unambiguous", "simulate", "--coincident", "3", "--mechanism", "tpa", *RUN], 0),
    (["unambiguous", "simulate", *EXAMPLE, "--mechanism", "sfg", *RUN], 0),
    (["pipeline", "sfg-recover", *EXAMPLE, *RUN], 0),
    (["multiport", "table", *TWO_TERM], 0),
    (["multiport", "table", *POLAR, "--format", "csv"], 0),
    ([*ATOM, "--detector-k", "2", "--eta", "0.5", "--gamma", "2"], 0),
    (["family", "validate", "--N", "3", "--M", "2", "--coeffs", "0.5", "0.5", "0.5"], 1),
    (["min-error", "analyze"], 64),
    # help ends through dispatch, with exit 0
    (["--help"], 0),
    # N = 256: the transfer matrix's value rows and a table with colliding hash keys
    (["multiport", "table", "--N", "256", "--M", "1", "--coeffs", "0.8", "0.6"], 0),
    (["min-error", "analyze", "--N", "256", *EXAMPLE[2:], "--format", "csv"], 0),
    # N = 256 circulant tables the other way round: the outcome table as JSON, the clicks as CSV
    (["min-error", "analyze", "--N", "256", *EXAMPLE[2:]], 0),
    (["multiport", "table", "--N", "256", "--M", "1", "--coeffs", "0.8", "0.6", "--format", "csv"], 0),
    # the sampled and retried families at their edges
    (["pipeline", "sfg-recover", *UNIFORM, *RUN], 0),
    # |c_2| the largest: the retry's conversion cannot run
    (["pipeline", "sfg-recover", *UNORDERED, *RUN], 2),
    # a sharded run: shard 0's generator draws the joint table after the shards' totals
    (["pipeline", "sfg-recover", *EXAMPLE, "--shards", "3"], 0),
    (["pipeline", "sfg-recover", "--N", "2", "--M", "1", "--coeffs", "0.8", "0.6", *RUN], 1),
    (["unambiguous", "analyze", *UNORDERED, "--mechanism", "tpa"], 2),
    # a tie of the moduli, not an infeasible order
    (["unambiguous", "analyze", *TIED, "--mechanism", "tpa"], 0),
    (["unambiguous", "analyze", "--N", "4", *EXAMPLE[2:], "--mechanism", "sfg"], 1),
    (["unambiguous", "analyze", "--N", "2", "--M", "1", "--coeffs", "0.8", "0.6",
      "--mechanism", "tpa"], 1),
    (["multiport", "table", "--coincident", "3"], 1),
    (["min-error", "simulate", "--coincident", "3", "--trials", "0"], 1),
    (["min-error", "simulate", "--coincident", "3", "--trials", "10", "--shards", "0"], 1),
    # the seed's three sources
    (["QSD_SEED=11", "min-error", "simulate", "--coincident", "3", "--trials", "100"], 0),
    (["QSD_SEED=", "min-error", "simulate", "--coincident", "3", "--trials", "100"], 0),
    (["QSD_SEED=x", "min-error", "simulate", "--coincident", "3", "--trials", "100"], 1),
    # the atom detector's arguments
    (["atom-detector", "--N", "3", "--M", "1", "--coeffs", "0.8", "0.6"], 1),
    ([*ATOM, "--detector-k", "0"], 1),
    ([*ATOM, "--eta", "inf"], 1),
    ([*ATOM, "--gamma", "0"], 1),
    ([*ATOM, "--eta", "1.7976931348623157e308"], 1),
    # |eta| / Gamma = 1e-33: a complex outer product once left rows 2 and 3 45% off
    (["atom-detector", *EXAMPLE, "--eta", "1e-33", "--gamma", "1"], 0),
    # output: a file, a missing directory, and the CSV gate
    (["family", "validate", "--coincident", "3", "--out", "{tmp}/report.json"], 0),
    (["family", "validate", "--coincident", "3", "--out", "{tmp}/missing/report.json"], 1),
    # a directory is written in place; a name past NAME_MAX fails the rename, not the write
    (["family", "validate", "--coincident", "3", "--out", "{tmp}"], 1),
    (["family", "validate", "--coincident", "3", "--out", "{tmp}/" + "x" * 256], 1),
    # an empty path names no file
    (["min-error", "analyze", "--coincident", "3", "--out", ""], 64),
    (["min-error", "simulate", "--coincident", "3", "--format", "csv"], 1),
    # family flags: conflicts, each family error and each coefficient text
    (["family", "validate", "--coincident", "3", "--N", "3"], 64),
    (["family", "validate", *POLAR, "--coeffs", "0.8", "0.6"], 64),
    (["family", "validate", "--coincident", "2"], 1),
    (["family", "validate", "--N", "3", "--M", "2", "--coeffs", "0.8", "0.6"], 1),
    (["family", "validate", "--N", "1", "--M", "1", "--coeffs", "0.8", "0.6"], 1),
    (["family", "validate", "--N", "2", "--M", "1", "--coeffs", "nan", "0.6"], 1),
    (["family", "validate", "--N", "2", "--M", "1", "--coeffs", "1", "0"], 1),
    (["family", "validate", "--N", "2", "--M", "1", "--coeffs", "1", "1e-310"], 1),
    (["family", "validate", "--N", "2", "--M", "1", "--coeffs", "0.8,0", "0,0.6"], 0),
    (["family", "validate", "--N", "2", "--M", "1", "--coeffs", "0.8,0,0", "0.6"], 1),
    (["family", "validate", "--N", "2", "--M", "1", "--coeffs-polar", "0.8", "0.6"], 0),
    (["family", "validate", "--N", "2", "--M", "1", "--coeffs-polar", "0.8,0,0", "0.6"], 1),
    (["family", "validate", "--N", "2", "--M", "1", "--coeffs-polar", "0.8,inf", "0.6"], 1),
    # P_D about 1e-13 below 1 at 10^18 trials: complementary rates print equal errors
    (["unambiguous", "simulate", "--N", "3", "--M", "2", "--coeffs", "0.5773502691896402",
      "0.5773502691896402", "0.5773502691895969", "--mechanism", "tpa",
      "--trials", "1000000000000000000", "--seed", "1"], 0),
]
UNREACHED = [
    # (a) the failure branch of a self-check
    "tolerances.require_small: raise error(message.format(residual=float(flat[k]), k=k + 1))",
    "unambiguous.survivor_gram: k = int(np.argmin(np.isfinite(peaks[:, 0]))) + 1",
    'unambiguous.survivor_gram: raise ValueError(f"the survivor of k = {k} is not finite and cannot be normalized")',
    "unambiguous.survivor_gram: k = int(np.argmin(peaks[:, 0] > 0.0)) + 1",
    'unambiguous.survivor_gram: raise ValueError(f"the survivor of k = {k} has zero norm and cannot be normalized")',
    # (b) a documented error of a README library name
    'families.make_family: raise FamilyError("non-integer-size", f"N = {N!r} and M = {M!r} must be integers") from None',
    "families.make_family: raise FamilyError(",
    # (c) the encoder's rejections and empty containers, which the property tests pin
    'serialize._float: raise ValueError(f"cannot serialize non-finite value {x!r}")',
    "serialize._tokens: for x in flat.tolist():",
    "serialize._tokens: _float(x)",
    'serialize._array: raise TypeError(f"cannot serialize a {arr.dtype} array of shape {arr.shape}")',
    "serialize._members: out.append(brackets)",
    "serialize._members: return",
    'serialize._encode: raise TypeError(f"cannot serialize {type(obj).__name__}")',
    # (d) the MemoryError handler and the console script
    "cli.dispatch: print(f\"error: {str(exc) or 'out of memory'}\", file=sys.stderr)",
    "cli.dispatch: return 1",
    "cli.main: code = dispatch(sys.argv[1:])",
    "cli.main: for stream in (sys.stdout, sys.stderr):",
    "cli.main: try:",
    "cli.main: stream.flush()",
    "cli.main: code = code or 1",
    "cli.main: os._exit(code)",
]


def _package_objects():
    """Every module-level object of the package's modules, and every member of their classes."""
    for info in pkgutil.iter_modules(qsdsim.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        for obj in vars(importlib.import_module(f"qsdsim.{info.name}")).values():
            yield obj
            if inspect.isclass(obj):
                yield from vars(obj).values()


def _package_code():
    """{code object: qualified name} of every function and method defined in src/qsdsim/."""
    found = {}

    def add(func):
        func = inspect.unwrap(getattr(func, "__func__", func))
        code = getattr(func, "__code__", None)
        if code is not None and Path(code.co_filename).resolve().parent == PACKAGE_DIR:
            found[code] = f"{func.__module__.removeprefix('qsdsim.')}.{func.__qualname__}"

    for obj in _package_objects():
        if isinstance(obj, property):
            for accessor in (obj.fget, obj.fset, obj.fdel):
                add(accessor)
        else:
            add(obj)
    return found


def _package_statements():
    """[(path, first line, key)] of every statement in a function body under src/qsdsim/."""
    found = []

    def walk(path, lines, statements, qualname, in_function):
        for stmt in statements:
            if in_function:
                found.append((path, stmt.lineno, f"{qualname}: {lines[stmt.lineno - 1].strip()}"))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner, is_function = stmt.body, not isinstance(stmt, ast.ClassDef)
                first = inner[0]
                if is_function and isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                    inner = inner[1:]  # a docstring runs no instruction
                walk(path, lines, inner, f"{qualname}.{stmt.name}", is_function)
                continue
            for field in ("body", "orelse", "finalbody"):
                walk(path, lines, getattr(stmt, field, []), qualname, in_function)
            for handler in getattr(stmt, "handlers", []):
                walk(path, lines, handler.body, qualname, in_function)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source = path.read_text()
        walk(path, source.splitlines(), ast.parse(source).body, path.stem, False)
    return found


def _run(argv, tmp):
    """(exit code, SHA-256 of stdout, stderr and the --out file) of one ARGV entry, in-process."""
    env = dict(word.split("=", 1) for word in itertools.takewhile(lambda w: "=" in w, argv))
    argv = [word.replace("{tmp}", str(tmp)) for word in argv[len(env):]]
    # an existing --out file is opened for writing before it is replaced
    written = Path(tmp, "report.json")
    written.write_text("")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("QSD_SEED", None)
        os.environ.update(COLUMNS="80", **env)  # argparse wraps usage lines to COLUMNS
        code = dispatch(argv)
    streams = [out.getvalue(), err.getvalue(), written.read_text()]
    written.unlink()
    text = "\0".join(streams).replace(str(tmp), "{tmp}")
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "{timestamp}"', text)
    return code, hashlib.sha256(text.encode()).hexdigest()


def _digest_lines(results):
    return [f"{digest}  {' '.join(argv)}" for (argv, _), (_, digest) in zip(ARGV, results)]


def test_every_package_function_is_reached_from_the_cli(tmp_path):
    functions = _package_code()
    # the call hook runs for every Python frame, so it only tests a filename
    filenames = {code.co_filename for code in functions}
    called, lines = set(), set()

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        if frame.f_code.co_filename in filenames:
            called.add(frame.f_code)
            return line
        return None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        results = [_run(argv, tmp_path) for argv, _ in ARGV]
    finally:
        sys.settrace(previous)
    assert [code for code, _ in results] == [code for _, code in ARGV]
    assert _digest_lines(results) == DIGESTS.read_text().splitlines()
    unreached = sorted(name for code, name in functions.items() if code not in called)
    assert unreached == ["cli.main"]
    reached = {(Path(filename).resolve(), lineno) for filename, lineno in lines}
    statements = Counter(
        key for path, lineno, key in _package_statements() if (path, lineno) not in reached
    )
    allowed = Counter(UNREACHED)
    assert sorted((statements - allowed).elements()) == [], "unreached, and not on UNREACHED"
    assert sorted((allowed - statements).elements()) == [], "reached, so off UNREACHED"


def test_the_package_holds_no_cache():
    # a cached function runs only on its first call in a process, which the traced run can miss
    cached = {getattr(obj, "__qualname__", repr(obj)) for obj in _package_objects()
              if hasattr(obj, "cache_clear")}
    assert cached == set()


def test_the_package_calls_no_lapack_routine(tmp_path, monkeypatch):
    # called catches a refusal that the package swallows
    called = []

    def refuse(name):
        def routine(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"np.linalg.{name} called")

        return routine

    for name in LAPACK_ROUTINES:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    codes = [_run(argv, tmp_path)[0] for argv, _ in ARGV]
    assert codes == [code for _, code in ARGV]
    family = coincident_family(3)
    basis = build_basis(2, 2)
    field = family_states(family, basis, two_photon_labels(basis))[0]
    for gamma in (1e-12, 1.0, 1e3):
        assert atom_excitation_avg(detector_atom_model(family, 1, 1.0, gamma), field).numeric > 0.0
    assert called == []


def _blas_sites(path):
    """["module:line: what"] of every BLAS product or axis-less linalg.norm in one source file."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text())):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@" if isinstance(node, ast.BinOp) else "@="
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_PRODUCTS:
                what = name
            elif name == "norm" and not any(k.arg == "axis" for k in node.keywords):
                owner = func.value if isinstance(func, ast.Attribute) else None
                if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
                    what = "linalg.norm without axis"
        if what is not None:
            sites.append(f"{path.stem}:{node.lineno}: {what}")
    return sites


def test_the_package_calls_no_blas_routine():
    sites = [site for path in sorted(PACKAGE_DIR.glob("*.py")) for site in _blas_sites(path)]
    assert not sites, "BLAS calls in the package: " + "; ".join(sites)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(*_digest_lines([_run(argv, tmp) for argv, _ in ARGV]), sep="\n")
