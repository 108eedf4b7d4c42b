"""Example algebras: size, canonical pretty printing, de Bruijn conversion.

Each algebra interprets one binder node. The size algebra works at an
integer carrier directly. The other two use function carriers (name stream
to text, nesting depth to tree), so the interesting recursion happens when
the folded value is applied; the entry points ``print_term`` and
``to_debruijn`` run that application inside the nesting guard.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter

from .debruijn import DbTerm, Lam, Var
from .encoding import Algebra, Rename, Term, fold, run_guarded

__all__ = [
    "NameStream",
    "names",
    "print_alg",
    "print_term",
    "size",
    "size_alg",
    "to_debruijn",
    "to_debruijn_alg",
]


class NameStream:
    """Infinite supply of canonical names x{n}, x{n+1}, ... by index."""

    __slots__ = ("_start",)
    start = property(attrgetter("_start"))

    def __init__(self, start: int = 1):
        self._start = start

    @property
    def head(self) -> str:
        return f"x{self._start}"

    @property
    def rest(self) -> "NameStream":
        return NameStream(self._start + 1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._start == other._start

    def __hash__(self):
        return hash((self._start,))

    def __repr__(self):
        return f"NameStream(start={self._start!r})"

    def __reduce__(self):
        return NameStream, (self._start,)


def names(start: int = 1) -> NameStream:
    return NameStream(start)


_IDENTITY = Rename.identity()


def _size_lam(body, embed, alg):
    # One for the binder, one per occurrence of its variable: the variable
    # denotes 1 and the body is re-interpreted with the same algebra.
    return 1 + body(_IDENTITY, 1).interpret(alg)


_SIZE_ALG = Algebra(_size_lam, name="size")


def size_alg() -> Algebra:
    """Integer carrier: binders and variable occurrences count one each."""
    return _SIZE_ALG


def size(t: Term, max_depth: int | None = None) -> int:
    return fold(size_alg(), t, max_depth)


class _Name(str):
    """A bound variable's denotation in ``print_alg``: its name, whatever the stream."""

    __slots__ = ()

    def __call__(self, _stream: NameStream) -> str:
        return self


# The carriers ``render`` and ``at_depth`` below are plain functions that
# take their body and algebra as defaults rather than closure cells, which
# saves two GC-tracked cells per binder. They stay plain functions because a
# fold recurses through them: a call into a ``__call__`` object or a
# ``functools.partial`` passes through C and takes C stack per binder.
def _print_lam(body, embed, alg):
    def render(stream: NameStream, body=body, alg=alg) -> str:
        x = stream.head
        rendered = body(_IDENTITY, _Name(x)).interpret(alg)
        return "\\ " + x + ". " + rendered(stream.rest)

    return render


_PRINT_ALG = Algebra(_print_lam, name="print")


def print_alg() -> Algebra:
    """Carrier ``NameStream -> str``.

    The binder takes the head name for itself; its variable's denotation
    discards whatever stream it is handed and returns that name.
    """
    return _PRINT_ALG


def print_term(t: Term, max_depth: int | None = None) -> str:
    """Render a closed term using the name stream starting at x1."""
    return run_guarded(lambda: fold(print_alg(), t)(names(1)), max_depth)


def _var_at(bound: int, n: int) -> DbTerm:
    return Var(n - bound)


def _debruijn_lam(body, embed, alg):
    def at_depth(v: int, body=body, alg=alg) -> DbTerm:
        bound = v + 1
        inner = body(_IDENTITY, partial(_var_at, bound)).interpret(alg)
        return Lam(inner(bound))

    return at_depth


_TO_DEBRUIJN_ALG = Algebra(_debruijn_lam, name="debruijn")


def to_debruijn_alg() -> Algebra:
    """Carrier ``int -> DbTerm``, the int being the current binder depth.

    A binder met at depth v interprets its body at v + 1 and gives the
    variable the denotation ``n -> Var(n - (v + 1))``, so an occurrence at
    depth n gets the index counting the binders in between.
    """
    return _TO_DEBRUIJN_ALG


def to_debruijn(t: Term, max_depth: int | None = None) -> DbTerm:
    """Convert a closed term to de Bruijn form, starting at depth 1."""
    return run_guarded(lambda: fold(to_debruijn_alg(), t)(1), max_depth)
