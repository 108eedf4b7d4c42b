"""Example algebras: size, canonical pretty printing, de Bruijn conversion.

Each algebra interprets one binder node. The size algebra works at an
integer carrier directly. The other two use function carriers (name stream
to text, nesting depth to tree) whose values are defunctionalized: a
binder's value holds its body and algebra, and applying it walks the rest
of the chain with the chain loop of :mod:`kripkelam.encoding`, as a size
fold does. Any other algebra, such as one that wraps these, is handed each
binder through ``interpret`` and ``interpret_lam``, as the Mendler
interface requires.

The entry points ``size``, ``print_term`` and ``to_debruijn`` walk the
chain in the guarded entry with ``to_debruijn_alg``, applying nothing: the
walk starts from the term's outermost library binder, or, for any other
term, from its de Bruijn carrier value. The chain must end in the variable
of a binder the loop walked, and each entry point builds its result from
the binder count and that variable's level. Anything else that ends the
chain makes the term ill-formed, one ``TypeError`` that names what it
holds; so does a body that returns no open term, and an end that an
applied carrier cannot apply or that gives no text or de Bruijn term.
"""

from __future__ import annotations

import reprlib

from .debruijn import DbTerm, _canonical_text, _chain
from .encoding import Algebra, Term, _Frozen, _chain_end, _guarded, _ill_formed, _integer, _new, _raise_if_refused, _set

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


class NameStream(_Frozen):
    """Infinite supply of canonical names x{n}, x{n+1}, ... by index.

    ``start`` may be any integer, zero and negative ones too, and a
    ``bool`` counts as its ``int``. Anything else raises ``TypeError``
    naming it. A stream is a one-field frozen record of
    :mod:`kripkelam.encoding`: compared and hashed by ``start``, shown as
    ``NameStream(start=n)``, and copied and pickled as it is.
    """

    __slots__ = __match_args__ = ("start",)

    def __init__(self, start: int = 1):
        _set(self, "start", _integer(start, "a name stream starts at an integer"))

    @property
    def head(self) -> str:
        return f"x{self.start}"

    @property
    def rest(self) -> "NameStream":
        return NameStream(self.start + 1)


def names(start: int = 1) -> NameStream:
    """The name stream ``x{start}``, ``x{start + 1}``, ...: ``NameStream(start)``."""
    return NameStream(start)


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
    """Integer carrier: binders and variable occurrences count one each.

    A placed ``int`` counts as a subterm of that size, since ``place``
    takes a value already interpreted at this carrier: the fold of
    ``closed(lambda mo, x: place(42))`` is 43. A placed value that is no
    ``int`` raises ``TypeError`` naming it.
    """
    return _SIZE_ALG


def size(t: Term) -> int:
    """Count binders and the occurrence.

    This agrees with ``fold(size_alg(), t)`` when the occurrence is a
    variable bound by the term. Where the fold counts a placed ``int`` as
    a subterm of that size, ``size`` finds no bound variable and raises
    ``TypeError``: ``size(closed(lambda mo, x: place(42)))`` raises where
    the fold gives 43.
    """
    return _unfold(t)[0] + 1


class _Name(int):
    """A bound variable's denotation in ``print_alg``: the number n of its name x{n}.

    Called with any stream, it gives that name. The print carrier reads the
    name of one that ends its chain without calling it; a foreign algebra,
    or a placed function that ends the chain, may call it. An ``int``
    subclass with no slots of its own, so making one runs in C.
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

    Applied to a :class:`NameStream`, it walks the chain with
    :func:`_chain_end`, each binder taking the next name; applied to
    anything else, it raises ``TypeError`` naming it. The binders' text is
    one slice of the canonical-name table's text, or joined once past it.
    A bound variable that ends the chain gives its own name, read from it;
    anything else that ends it is applied to the stream that is left, the
    one stream the call makes. Names are counted as ints, so no stream is
    built per binder.
    """

    __slots__ = ("body", "alg")

    def __call__(self, stream: NameStream) -> str:
        if not isinstance(stream, NameStream):
            raise TypeError(f"a print carrier value takes a NameStream, not {reprlib.repr(stream)}")
        start = stream.start
        n, c = _chain_end(self.body, self.alg, start, _Name, _PRINT_ALG, _PrintCarrier)
        if type(c) is _Name:
            return _canonical_text(start, n - 1) + f"x{c}"
        rest = _new(NameStream)
        _set(rest, "start", n)
        return _canonical_text(start, n - 1) + _applied(c, rest, str)


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
    return _canonical_text(1, k) + f"x{j}"


class _Level(int):
    """A bound variable's denotation in ``to_debruijn_alg``: the depth of its binder.

    Called with the depth ``n`` of an occurrence, it gives the index of
    the binder, ``Var(n - self)``, made without ``Var``'s check: the
    carrier that calls it has read ``n`` as an ``int``. The de Bruijn
    carrier reads the index of one that ends its chain without calling it;
    a foreign algebra, or a placed function that ends the chain, may call
    it. An ``int`` subclass with no slots of its own, so making one runs
    in C.
    """

    __slots__ = ()

    def __call__(self, n: int) -> DbTerm:
        return _chain(0, n - self)


class _DepthCarrier:
    """``to_debruijn_alg``'s value for a binder: its body and the algebra to read it with.

    Applied to a depth ``v``, it walks the chain with :func:`_chain_end`
    from level ``v + 1``, one level deeper per binder. ``v`` may be any
    integer, and a ``bool`` counts as its ``int``; anything else raises
    ``TypeError`` naming it. A bound variable that ends the chain, the
    level ``c`` of its binder, gives the index ``n - c`` at the depth ``n``
    reached, read without calling it; anything else that ends it is
    applied to that depth. The binders walked are put around the term in
    one step.
    """

    __slots__ = ("body", "alg")

    def __call__(self, v: int) -> DbTerm:
        if type(v) is not int:
            v = _integer(v, "a de Bruijn carrier value takes an integer depth")
        level, c = _chain_end(self.body, self.alg, v + 1, _Level, _TO_DEBRUIJN_ALG, _DepthCarrier)
        if type(c) is _Level:
            return _chain(level - 1 - v, level - 1 - c)
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


def _unfold(t: Term) -> tuple[int, int]:
    """The binder count of ``t`` and the level its occurrence names.

    The guarded entry walks the chain of ``t`` with ``to_debruijn_alg``
    from level 1 and applies nothing: from its outermost binder when that
    is a library binder, or, for any other term, from its de Bruijn carrier
    value. The chain must end in the variable of a binder it walked.
    """
    level, end = _guarded(t.run, _TO_DEBRUIJN_ALG, None, _Level, _DepthCarrier)
    if type(end) is not _Level:
        raise _ill_formed(end)
    return level - 1, end

