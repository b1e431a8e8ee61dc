"""Every function of the package is reached from the command line.

A set of CLI argv covering every subcommand, both output formats, polar
coefficients, an invalid family and a usage error runs through `dispatch`
under a profile hook.  Every function and method whose code lives in
src/qsdsim/ must be called, except the console-script `main` (which only
forwards sys.argv to `dispatch`).  Code that only its own tests call
belongs in the tests, as the numeric square-root reference does in
tests/reference.py.  Dataclass and NamedTuple methods are generated from
strings, so the filename filter leaves them out.  A function behind
functools.cache runs only on its first call in a process, so every
package cache is emptied before the argv run.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import qsdsim
from qsdsim.cli import dispatch

PACKAGE_DIR = Path(qsdsim.__file__).resolve().parent
EXAMPLE = ["--N", "3", "--M", "2", "--coeffs", "0.7", "0.6", "0.3872983346207417"]
TWO_TERM = ["--N", "4", "--M", "1", "--coeffs", "0.8", "0.6"]
POLAR = ["--N", "3", "--M", "1", "--coeffs-polar", "0.8,0.0", "0.6,1.5707963"]
RUN = ["--trials", "1000", "--seed", "7"]
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
    (["atom-detector", "--coincident", "3", "--detector-k", "2", "--eta", "0.5", "--gamma", "2"], 0),
    (["family", "validate", "--N", "3", "--M", "2", "--coeffs", "0.5", "0.5", "0.5"], 1),
    (["min-error", "analyze"], 64),
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


def test_every_package_function_is_reached_from_the_cli():
    for obj in _package_objects():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv, _ in ARGV:
                codes.append(dispatch(argv))
        finally:
            sys.setprofile(None)
    assert codes == [code for _, code in ARGV]
    unreached = sorted(
        name for code, name in _package_code().items() if code not in called
    )
    assert unreached == ["cli.main"]
