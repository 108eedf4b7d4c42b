"""The package root: what it exports, and what importing it loads."""

import inspect

import pytest

import kripkelam
import kripkelam.algebras as algebras
import kripkelam.debruijn as debruijn
import kripkelam.encoding as encoding
import kripkelam.laws as laws

from helpers import run_fresh

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
    assert len(STAR_NAMES) == 66
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
