"""The package's public surface: what the root exports, what importing it
loads, and where the README and ``pyproject.toml`` name it; and the one
module that owns the binder guard and the chain walk."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import re
import tomllib
from pathlib import Path

import pytest

import kripkelam
import kripkelam.algebras as algebras
import kripkelam.debruijn as debruijn
import kripkelam.encoding as encoding
import kripkelam.laws as laws

from helpers import run_fresh

ROOT = Path(__file__).resolve().parent.parent
MODULES = {"algebras": algebras, "debruijn": debruijn, "encoding": encoding, "laws": laws}
# What ``from kripkelam import *`` bound when the root star-imported each module.
STAR_NAMES = {*MODULES, *(name for module in MODULES.values() for name in module.__all__)}


@pytest.mark.parametrize("module", MODULES.values(), ids=list(MODULES))
def test_every_exported_name_is_the_modules_object(module):
    for name in module.__all__:
        assert getattr(kripkelam, name) is getattr(module, name), name


def test_star_import_binds_every_module_name_and_the_modules():
    # In a fresh process, so no submodule imported by another test (such as
    # kripkelam.cli) is bound on the root.
    out = run_fresh(
        """
        import kripkelam.algebras, kripkelam.debruijn, kripkelam.encoding, kripkelam.laws
        modules = [kripkelam.algebras, kripkelam.debruijn, kripkelam.encoding, kripkelam.laws]
        namespace = {}
        exec("from kripkelam import *", namespace)
        del namespace["__builtins__"]
        for module in modules:
            assert namespace[module.__name__.rpartition(".")[2]] is module
            for name in module.__all__:
                assert namespace[name] is getattr(module, name), name
        print(*sorted(namespace))
        """
    )
    assert len(STAR_NAMES) == 64
    assert out.split() == sorted(STAR_NAMES)


def test_dir_lists_every_exported_name_before_any_is_used():
    out = run_fresh("import kripkelam; print(*dir(kripkelam))")
    assert STAR_NAMES <= set(out.split())
    assert "__version__" in out.split()


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'kripkelam' has no attribute 'no_such_name'"):
        kripkelam.no_such_name
    assert not hasattr(kripkelam, "no_such_name")


def test_a_plain_import_loads_no_submodule_until_a_name_is_used():
    out = run_fresh(
        """
        import sys
        import kripkelam
        print(sorted(m for m in sys.modules if m.startswith("kripkelam")))
        laws = kripkelam.laws
        print(laws is sys.modules["kripkelam.laws"], kripkelam.size is kripkelam.algebras.size)
        """
    )
    assert out.splitlines() == ["['kripkelam']", "True True"]


def test_run_guarded_is_the_only_public_callable_taking_max_depth():
    # The binder budget is set in one place. debruijn is left out: there
    # max_depth is the depth of the terms enumerated or generated.
    takers = [
        f"{module.__name__}.{name}"
        for module in (encoding, algebras)
        for name in module.__all__
        if callable(obj := getattr(module, name))
        and "max_depth" in inspect.signature(obj).parameters
    ]
    assert takers == ["kripkelam.encoding.run_guarded"]


def _layout_tables() -> dict[str, list[tuple[str, str]]]:
    """README's Layout section: each module's table rows, as (name, callers)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for section in layout.split("\n### ")[1:]:
        heading, _, body = section.partition("\n")
        tables[heading.strip("`")] = re.findall(r"^\| `(\w+)` \| (.+) \|$", body, re.M)
    return tables


CALLERS = {"library", "CLI", "benchmark", "acceptance"}


def test_the_readme_tables_list_exactly_each_modules_public_names():
    tables = _layout_tables()
    assert set(tables) == {f"kripkelam.{m.name}" for m in pkgutil.iter_modules(kripkelam.__path__)}
    for module_name, rows in tables.items():
        names = [name for name, _ in rows]
        assert sorted(names) == sorted(importlib.import_module(module_name).__all__), module_name
        for name, callers in rows:
            assert callers == "tests only" or set(callers.split(", ")) <= CALLERS, name


@pytest.mark.parametrize(
    "error",
    [
        encoding.DepthLimitError(5),
        debruijn.UnboundVariable("x"),
        debruijn.ParseError("expected )", 2, 7),
        debruijn.OpenTermError("term is open: index 1 under 1 binders"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_the_library_errors_survive_pickle_and_copy(error):
    # Each error once passed its message to the base class as its only
    # argument, so a copy ran the constructor on the message: the text came
    # back doubled, and a ParseError could not be rebuilt at all.
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(twin) is type(error)
        assert str(twin) == str(error)
        assert vars(twin) == vars(error)


def test_the_console_script_is_the_cli_main():
    # CI runs the suite from the source tree without installing, so nothing
    # else checks the command README's examples use.
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["kripkelam"]
    module_name, _, attribute = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attribute)
    assert callable(entry) and entry is importlib.import_module("kripkelam.cli").main


# The guard's budget, its slow path, and the two lam nodes the chain loop
# steps or skips: encoding alone charges the budget, so no other module
# needs them.
_ENCODING_ONLY = {"_guard", "_Budget", "_trip", "_Lam", "_ChainBinder"}


@pytest.mark.parametrize(
    "path", sorted(p for p in (ROOT / "src" / "kripkelam").glob("*.py") if p.stem != "encoding"), ids=lambda p: p.stem
)
def test_only_encoding_charges_the_guard_or_makes_open_terms(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & _ENCODING_ONLY
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = {ast.unparse(base).rpartition(".")[2] for base in node.bases}
            assert "OpenTerm" not in bases, node.name
