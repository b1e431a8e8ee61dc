"""The prose names real things.

Every backticked `module.attr` or `qsdsim.module.attr` in README.md and in
the docstring of each module of src/qsdsim/, with `module` one of those
modules, must resolve by getattr, so a rename or a deletion cannot leave
the documentation pointing at a name that is gone.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import qsdsim

README = Path(__file__).parents[1] / "README.md"
DOTTED = re.compile(r"`(?:qsdsim\.)?([a-z_]+)\.([A-Za-z_]\w*)`")


def _modules():
    """{name: module} of every module of the package; importing __main__ would run the CLI."""
    names = [info.name for info in pkgutil.iter_modules(qsdsim.__path__) if info.name != "__main__"]
    return {name: importlib.import_module(f"qsdsim.{name}") for name in names}


def _documented_names(modules):
    """[(where, module, attr)] of every backticked dotted name whose first part is a module."""
    texts = {"README.md": README.read_text(), "qsdsim": qsdsim.__doc__}
    texts.update((f"qsdsim.{name}", module.__doc__ or "") for name, module in modules.items())
    return [
        (where, name, attr)
        for where, text in texts.items()
        for name, attr in DOTTED.findall(text)
        if name in modules
    ]


def test_every_documented_module_attribute_exists():
    modules = _modules()
    names = _documented_names(modules)
    # the pattern must find the names the docs hold, or this test checks nothing
    assert len(names) >= 5
    missing = [
        f"{where}: {name}.{attr}" for where, name, attr in names if not hasattr(modules[name], attr)
    ]
    assert missing == []


def test_the_pattern_reads_both_spellings():
    text = "see `serialize.Circulant`, `qsdsim.minerror.gone` and `f(x.y)`"
    assert DOTTED.findall(text) == [("serialize", "Circulant"), ("minerror", "gone")]
