"""Example algebras: size, canonical pretty printing, de Bruijn conversion.

Each algebra interprets one binder node. The size algebra works at an
integer carrier directly. The other two use function carriers (name stream
to text, nesting depth to tree) whose values are defunctionalized: a
binder's value holds its body and algebra, and applying it walks the rest
of the chain. A size fold and an applied carrier walk it in one loop that
all three share, so none recurses at any depth. While a binder's algebra
is the library's own, the loop steps a ``lam`` node its body returns in
place: it charges the guard for one binder and calls that node's body
next. A ``db_to_hoas`` binder is its own body and records the ``B``
binders under it and which one the occurrence names: the loop skips its
chain in O(1), charging the guard for its ``B + 1`` binders in one step
and reading the occurrence from the binder. So a size fold of such a
chain takes constant time, and of any chain keeps nothing alive per
binder. Any other algebra, such as one that wraps these, is handed each
binder through ``interpret`` and ``interpret_lam``, as the Mendler
interface requires, and recurses once per binder if it does.

The entry points ``size``, ``print_term`` and ``to_debruijn`` fold
``to_debruijn_alg`` and run the same loop over its value inside the
nesting guard, but apply nothing: the chain must end in the variable of a
binder the loop walked, which is that binder's level, and each entry point
builds its result from the binder count and that level. A chain that ends
in anything else is an ill-formed term, and so is one whose end, applied
by a carrier, gives no text or de Bruijn term: one ``TypeError`` from the
three entry points and the two applied carriers. The folds of the three algebras raise
it too for a body that returns no open term or cannot take a rename and a
variable, and a ``size_alg`` fold for an occurrence that denotes no ``int``.
The guard counts every binder once, however the loop takes it, as for
a fold. Tests check that each entry point agrees with its algebra's fold.
"""

from __future__ import annotations

import operator
import reprlib
from operator import attrgetter

from .debruijn import DbTerm, Var, _binder_text, _canonical, _chain, _ChainBinder
from .encoding import Algebra, OpenTerm, Rename, Term, _charge, _guard, _Lam, _new, run_guarded

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
    """Infinite supply of canonical names x{n}, x{n+1}, ... by index.

    ``start`` is read with ``operator.index``, as ``run_guarded`` reads
    ``max_depth``: any integer, zero and negative ones too, and a ``bool``
    as its ``int``. Anything else raises ``TypeError`` naming it.
    """

    __slots__ = ("_start",)
    start = property(attrgetter("_start"))

    def __init__(self, start: int = 1):
        try:
            self._start = operator.index(start)
        except TypeError:
            raise TypeError(f"a name stream starts at an integer, not {reprlib.repr(start)}") from None

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


def names(start: int = 1) -> NameStream:
    return NameStream(start)


_IDENTITY = Rename.identity()


# The size fold's variable at every level: level ** 0, which is 1.
_ONE = (0).__rpow__


def _size_lam(body, embed, alg):
    # One per binder the chain loop walks, and what the occurrence denotes:
    # the variable denotes 1. That must be a size: a held value that is no
    # int is no variable the term binds.
    n, value = _chain_end(body, alg, 0, _ONE, _SIZE_ALG)
    if not isinstance(value, int):
        raise _ill_formed(value)
    return n + value


_SIZE_ALG = Algebra(_size_lam, name="size")


def size_alg() -> Algebra:
    """Integer carrier: binders and variable occurrences count one each."""
    return _SIZE_ALG


def size(t: Term) -> int:
    """Count binders and the occurrence, as ``fold(size_alg(), t)`` does."""
    return _unfold(t)[0] + 1


class _Name(int):
    """A bound variable's denotation in ``print_alg``: the number n of its name x{n}.

    Called with any stream, it gives that name. An ``int`` subclass with no
    slots of its own, so making one runs in C.
    """

    __slots__ = ()

    def __call__(self, _stream: NameStream) -> str:
        return f"x{self}"


def _carrier_lam(cls):
    """The ``interpret_lam`` of a function carrier whose binder value is a
    ``cls`` holding the binder's body and the algebra to read it with."""

    def interpret_lam(body, embed, alg):
        c = _new(cls)
        c.body = body
        c.alg = alg
        return c

    return interpret_lam


class _PrintCarrier:
    """``print_alg``'s value for a binder: its body and the algebra to read it with.

    Applied to a stream, it walks the chain with :func:`_chain_end`, each
    binder taking the next name. Whatever ends the chain is applied to the
    stream that is left, and the text is joined once. Names are counted as
    ints, so no stream is built per binder.
    """

    __slots__ = ("body", "alg")

    def __call__(self, stream: NameStream) -> str:
        start = stream.start
        n, c = _chain_end(self.body, self.alg, start, _Name, _PRINT_ALG, _PrintCarrier)
        rest = _new(NameStream)
        rest._start = n
        return _prefixes(start, n - 1) + _applied(c, rest, str)


_PRINT_ALG = Algebra(_carrier_lam(_PrintCarrier), name="print")


def print_alg() -> Algebra:
    """Carrier ``NameStream -> str``.

    The binder takes the head name for itself; its variable's denotation
    discards whatever stream it is handed and returns that name.
    """
    return _PRINT_ALG


def print_term(t: Term) -> str:
    """Render a closed term using the name stream starting at x1."""
    k, j = _unfold(t)
    return _prefixes(1, k) + f"x{j}"


class _Level(int):
    """A bound variable's denotation in ``to_debruijn_alg``: the depth of its binder.

    Called with the depth ``n`` of an occurrence, it gives the index of
    the binder, ``Var(n - self)``. An ``int`` subclass with no slots of its
    own, so making one runs in C.
    """

    __slots__ = ()

    def __call__(self, n: int) -> DbTerm:
        return Var(n - self)


class _DepthCarrier:
    """``to_debruijn_alg``'s value for a binder: its body and the algebra to read it with.

    Applied to a depth ``v``, it walks the chain with :func:`_chain_end`
    from level ``v + 1``, one level deeper per binder. Whatever ends the
    chain is applied to the depth reached, and the binders walked are put
    around its term in one step.
    """

    __slots__ = ("body", "alg")

    def __call__(self, v: int) -> DbTerm:
        level, c = _chain_end(self.body, self.alg, v + 1, _Level, _TO_DEBRUIJN_ALG, _DepthCarrier)
        inner = _applied(c, level - 1, DbTerm)
        return _chain(level - 1 - v + inner.binders, inner.occurrence)


_TO_DEBRUIJN_ALG = Algebra(_carrier_lam(_DepthCarrier), name="debruijn")


def to_debruijn_alg() -> Algebra:
    """Carrier ``int -> DbTerm``, the int being the current binder depth.

    A binder met at depth v interprets its body at v + 1 and gives the
    variable the denotation ``n -> Var(n - (v + 1))``, so an occurrence at
    depth n gets the index counting the binders in between.
    """
    return _TO_DEBRUIJN_ALG


def to_debruijn(t: Term) -> DbTerm:
    """Convert a closed term to de Bruijn form, starting at depth 1."""
    k, j = _unfold(t)
    return _chain(k, k - j)


def _chain_end(body, alg, level: int, var, own, cls=None) -> tuple:
    """Walk the chain from a binder with ``body``, read with the algebra ``alg``.

    The binder is at ``level``: its body is asked at the identity rename
    for the variable ``var(level)``, and what it returns is interpreted
    with the binder's algebra. With the library's algebra ``own``, a
    ``lam`` node is instead stepped in place, charged to the guard as one
    binder, and a chain binder is skipped with its chain. The walk goes on
    one level deeper while that gives a value of the carrier class ``cls``
    (the size fold has none), as an occurrence that denotes a term renamed
    in through ``lam_alg`` does. Returns the level past the last binder
    walked and the value that ends the chain.
    """
    budget = _guard.budget
    while True:
        try:
            opened = body(_IDENTITY, var(level))
        except TypeError as err:
            _raise_if_refused(body, err)
            raise
        level += 1
        if alg is own and type(opened) is _ChainBinder:
            # Stepping this binder, then each binder that returns, takes
            # below + 1 steps and ends in place(value): value is the variable
            # handed to step below - index if that is not negative, and the
            # target untouched otherwise, since the named binder was entered
            # further out. The guard is charged for those steps at once.
            below = opened.below
            _charge(budget, below + 1)
            named = below - opened.index
            c = var(level + named) if named >= 0 else opened.target
            level += below + 1
        elif alg is own and type(opened) is _Lam:
            _charge(budget, 1)
            body = opened._body
            continue
        elif isinstance(opened, OpenTerm):
            c = opened.interpret(alg)
        else:
            raise _ill_formed(body)
        if type(c) is not cls:
            return level, c
        body, alg = c.body, c.alg


def _applied(c, arg, kind):
    """``c(arg)``, which ends a carrier's chain and must give a ``kind``."""
    try:
        out = c(arg)
    except TypeError as err:
        _raise_if_refused(c, err)
        raise
    if not isinstance(out, kind):
        raise _ill_formed(c)
    return out


def _ill_formed(c) -> TypeError:
    return TypeError(
        f"ill-formed term: it holds {reprlib.repr(c)}, "
        "which is neither a variable bound by the term nor a binder body"
    )


def _raise_if_refused(c, err: TypeError) -> None:
    """Raise ``_ill_formed(c)`` if calling ``c`` raised ``err`` itself.

    A ``TypeError`` raised by the call, not from inside a Python function
    it ran, means ``c`` cannot be called with those arguments: it is no
    binder body, or no value a carrier's chain can end in.
    """
    if err.__traceback__.tb_next is None:
        raise _ill_formed(c) from err


def _unfold(t: Term) -> tuple[int, int]:
    """The binder count of ``t`` and the level its occurrence names.

    It walks the ``to_debruijn_alg`` value of ``t`` from level 1 and
    applies nothing: the chain must end in the variable of a binder it
    walked.
    """

    def walk():
        c = t.run(_TO_DEBRUIJN_ALG)
        if type(c) is not _DepthCarrier:
            raise _ill_formed(c)
        return _chain_end(c.body, c.alg, 1, _Level, _TO_DEBRUIJN_ALG, _DepthCarrier)

    level, end = run_guarded(walk)
    if type(end) is not _Level:
        raise _ill_formed(end)
    return level - 1, end


def _prefixes(start: int, last: int) -> str:
    """The text of binders named x{start} to x{last}, outermost first."""
    return _binder_text(_canonical(start, last))
