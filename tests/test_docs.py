"""The prose names real things.

Every backticked `module.attr` or `qsdsim.module.attr` in README.md and in
the docstring of each module of src/qsdsim/, with `module` one of those
modules, must resolve by getattr, so a rename or a deletion cannot leave
the documentation pointing at a name that is gone.  The README's library
example runs, and prints the values its comments state.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import qsdsim
from qsdsim import make_family, recovery_pipeline_analytic

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


def test_readme_library_example_prints_its_commented_values():
    block = README.read_text().split("## Library example\n\n```python\n", 1)[1].split("```", 1)[0]
    # the values checked below are the ones the comments state
    for comment in ("0.9714 diagonal, 0.0143 off-diagonal", "0.45 = 3 * min |c_l|^2", "(3, 3)",
                    "every row 0.5831, 0.4583"):
        assert comment in block
    printed = []
    exec(compile(block, "README.md", "exec"), {"print": printed.append})
    table, success, shape, inconclusive, overall = printed
    assert np.array_equal(np.round(table, 4), np.where(np.eye(3, dtype=bool), 0.9714, 0.0143))
    assert round(success, 12) == 0.45
    assert shape == (3, 3)
    assert np.array_equal(np.round(inconclusive, 4), [[0.5831, 0.4583]] * 3)
    family = make_family(3, 2, (0.7, 0.6, np.sqrt(0.15)))
    assert overall == recovery_pipeline_analytic(family)["overall_success_probability"]
