"""Binder-only lambda terms encoded higher-order, with first-order oracles.

The encoding lives in :mod:`kripkelam.encoding`: closed terms are functions
from algebras to carriers, binder bodies are Kripke functions usable at any
reachable world, and ``lam_alg`` is the weakly initial algebra. Example
algebras (size, printing, de Bruijn conversion) are in
:mod:`kripkelam.algebras`, the first-order ground truth and generators in
:mod:`kripkelam.debruijn`, extensional homomorphism checking in
:mod:`kripkelam.laws`, and the command line in :mod:`kripkelam.cli`.

The package root re-exports the ``__all__`` of the first four, and the four
modules themselves, on first use (PEP 562): importing the root, or a
submodule such as :mod:`kripkelam.cli`, loads none of them. The first lookup
of an exported name, of ``__all__`` or of ``dir()`` loads all four and binds
every exported name in the root, so later lookups are plain attribute reads
and ``from kripkelam import *`` binds the same names as an eager root would.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = ("algebras", "debruijn", "encoding", "laws")


def _export_all() -> None:
    exported = [*_MODULES]
    for module_name in _MODULES:
        module = _import_module(f"{__name__}.{module_name}")
        globals().update({name: getattr(module, name) for name in module.__all__})
        exported += module.__all__
    globals()["__all__"] = exported


def __getattr__(name: str):
    _export_all()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _export_all()
    return sorted(globals())
