"""Higher-order encoding of binder-only lambda terms.

A term is represented by what folding it means: a closed term is a function
from algebras to carrier values, and an algebra says how to interpret a
single binder node. Binder bodies live in a Kripke function space: a body
rooted at world ``X`` can be asked for its meaning at any world ``Y``
reachable from ``X`` through a renaming, given a denotation for the fresh
bound variable in ``Y``. That is what lets an outer bound variable be moved
under later binders.

Algebras are Mendler-style: the interpreter for a binder node receives the
body abstracted over an algebra *candidate* family, plus an embedding from
real algebras into that family, so the algebra can re-interpret subterms
without the algebra type occurring negatively. In this library the candidate
family is always the algebra type itself and the embedding is the identity;
the extra arguments are kept because ``lam_alg`` (the weakly initial
algebra) forwards them.

Python cannot enforce the world abstraction statically. The contract is by
API opacity: a body must treat its fresh-variable argument as opaque, using
it only through ``place`` and through renames.

This module also holds the binder guard (:func:`run_guarded`) and the one
chain loop, :func:`_chain_end`, that the size fold, the entry points and
the applied carriers of :mod:`kripkelam.algebras` walk. The loop steps a
``lam`` node in place and skips in O(1) a chain of the chain binders that
:func:`kripkelam.debruijn.db_to_hoas` makes, so every charge to the guard is
made here. An entry point's walk starts from the term's outermost library
binder (a ``closed``, ``db_to_hoas`` or ``body_of_skeleton`` one), or, for
any other term, from its de Bruijn carrier value. README's "Deep terms"
section states what the guard and the loop promise, each with the test
that pins it.
"""

from __future__ import annotations

import operator
import reprlib
import sys
import threading
from typing import Any, Callable

__all__ = [
    "Algebra",
    "DEFAULT_MAX_NESTING",
    "DepthLimitError",
    "OpenTerm",
    "Rename",
    "Term",
    "closed",
    "fold",
    "identity_embed",
    "lam",
    "lam_alg",
    "place",
    "run_guarded",
]

DEFAULT_MAX_NESTING = 10_000

# The objects the library makes for itself once per term, binder or call
# (terms, renames, placed values, chain nodes, name streams, law skeletons)
# are made with object.__new__ and slot stores, never a class call: a class
# call enters a Python __init__ from C each time. Public constructors keep
# their checks. The value records (name streams, law records) share the
# record base below; a frozen one's slots are stored with _set.
_new = object.__new__

# Stores a field of a frozen record, past its __setattr__.
_set = object.__setattr__


class _Record:
    """A record of the fields its ``__slots__`` name, in order, read as the
    tuple of their values: compared by class and that tuple, shown as
    ``Name(field=value, ...)``, and pickled and copied by calling the class
    on it. Each record class also names its fields in ``__match_args__``,
    for a positional ``match``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()


class _Frozen(_Record):
    """A record whose fields are set once, by its constructor, and hashed."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DepthLimitError(RuntimeError):
    """A guarded call interpreted more binders than the active limit allows."""

    def __init__(self, limit: int):
        # args are the constructor's, so pickle and copy rebuild the error.
        super().__init__(limit)
        self.limit = limit

    def __str__(self):
        return (
            f"more than {self.limit} binder interpretations in one guarded call "
            "(the limit on binder nesting counts every binder interpreted)"
        )


class Rename:
    """A world coercion: ``apply`` moves a value from one world into a later one."""

    __slots__ = ("apply",)

    def __init__(self, apply: Callable[[Any], Any]):
        self.apply = apply

    @staticmethod
    def identity() -> "Rename":
        return _IDENTITY_RENAME


_IDENTITY_RENAME = Rename(lambda value: value)

# A binder body: callable (rename, fresh) -> OpenTerm. The rename moves
# values from the body's root world to the world the body is asked at, and
# `fresh` is the bound variable's denotation there.
TermBody = Callable[[Rename, Any], "OpenTerm"]

# Maps an algebra into whatever candidate family is in play.
Embed = Callable[["Algebra"], Any]


class OpenTerm:
    """A binder (:func:`lam`) or a placed value (:func:`place`); ``interpret(alg)``
    gives its meaning at the carrier of ``alg``."""

    __slots__ = ()


class _Lam(OpenTerm):
    """``lam(body)``: interpreting it hands ``body`` to the algebra."""

    __slots__ = ("_body",)

    def __init__(self, body: TermBody):
        self._body = body

    def interpret(self, alg):
        return alg.interpret_lam(self._body, _identity, alg)


class _Placed(OpenTerm):
    """``place(value)``: interpreting it returns ``value``."""

    __slots__ = ("_value",)

    def interpret(self, alg):
        return self._value


class _ChainBinder(OpenTerm):
    """One binder of a chain that is also its own Kripke body.

    The binder has ``below`` binders under it, and the chain's occurrence
    names the binder with ``index`` binders under it. Only that binder's
    denotation, ``target``, is carried: calling the body at the named
    binder captures its fresh variable, and each binder inside it renames
    the value into its own world, so the occurrence is renamed exactly
    ``index`` times and a fold stays linear in the depth. Binders outside
    the named one leave ``target`` untouched, as does the identity rename.
    Being its own body, a binder costs a fold one GC-tracked object. Calling
    the body returns the next binder before the fold recurses into it, so
    the fold's own recursion stays in plain Python calls.

    The fields say what calling the chain at the identity rename gives:
    ``below + 1`` binders, ending in the fresh variable handed to step
    ``below - index``, or in ``target`` if that step is negative. So the
    chain loop :func:`_chain_end`, which the ``size_alg`` fold, the entry
    points and the applied carriers share, skips the chain in O(1) from
    them, charged to the guard as its ``below + 1`` binders; any other
    algebra calls each binder in turn.

    There is no ``__init__``: every binder is made as :func:`_binder`
    makes one, by the rule for the library's own objects above.
    """

    __slots__ = ("below", "index", "target")

    def interpret(self, alg):
        return alg.interpret_lam(self, _identity, alg)

    def __call__(self, mx: Rename, fresh) -> OpenTerm:
        below = self.below
        index = self.index
        if below == index:
            value = fresh
        elif below > index or mx is _IDENTITY_RENAME:
            value = self.target
        else:
            value = mx.apply(self.target)
        if below == 0:
            return place(value)
        # _binder(below - 1, index, value), inlined: this runs once per binder.
        b = _new(_ChainBinder)
        b.below = below - 1
        b.index = index
        b.target = value
        return b


def _binder(below: int, index: int, target) -> _ChainBinder:
    """The chain binder with ``below`` binders under it, naming ``index``."""
    b = _new(_ChainBinder)
    b.below = below
    b.index = index
    b.target = target
    return b


class Algebra:
    """Interpreter for a single binder node, producing carrier values.

    The wrapped function is called as ``fn(body, embed, candidate)`` where
    ``body`` is the node's Kripke body, ``embed`` maps algebras into the
    candidate family, and ``candidate`` is this algebra's own candidate
    view. It must return a carrier value and be total on well-formed
    bodies.
    """

    __slots__ = ("_interpret", "name")

    def __init__(self, interpret_lam: Callable[[TermBody, Embed, Any], Any], name: str | None = None):
        self._interpret = interpret_lam
        self.name = name

    def interpret_lam(self, body: TermBody, embed: Embed, candidate):
        # The hot tick: a charge of one that may nest, so the trip point
        # stays where it is.
        budget = _guard.budget
        if budget.limit:
            budget.left -= 1
            if budget.left < budget.trip:
                _trip(budget, 1)
        return self._interpret(body, embed, candidate)

    def __repr__(self):
        return f"Algebra({self.name})" if self.name else object.__repr__(self)


class Term:
    """A closed term: ``run(alg)`` interprets it with any algebra at its carrier."""

    __slots__ = ("run",)

    def __init__(self, run: Callable[[Algebra], Any]):
        self.run = run


def _identity(value):
    return value


def _integer(value, what: str) -> int:
    """``value`` read with ``operator.index``: any integer, and a ``bool`` as its ``int``.

    Anything else raises ``TypeError``: ``what``, then the value. Every
    count, bound, index and seed a caller gives the library is read here.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what}, not {reprlib.repr(value)}") from None


def _at_least(n: int, name: str, least: int) -> int:
    """``n``, an integer :func:`_integer` has read, if it is at least ``least``.

    Otherwise ``ValueError``: ``name`` must be at least ``least``, or must
    be nonnegative when ``least`` is 0. Every depth, binder and sample
    bound a caller gives the library, and every numeric flag of the CLI,
    is checked here.
    """
    if n < least:
        raise ValueError(f"{name} must be " + (f"at least {least}" if least else "nonnegative"))
    return n


def identity_embed() -> Embed:
    """The embedding used when the candidate family is the algebra type."""
    return _identity


def place(x) -> OpenTerm:
    """Treat an already-interpreted value as a term; the algebra is ignored."""
    p = _new(_Placed)
    p._value = x
    return p


def lam(body: TermBody) -> OpenTerm:
    """Wrap one binder around ``body``, rooted at the current world.

    Interpreting the result with an algebra hands the body straight to that
    algebra, with the candidate family instantiated to the algebra type
    itself and the identity embedding.
    """
    return _Lam(body)


def _rebuild_lam(body: TermBody, embed: Embed, _construction_alg) -> Term:
    # _construction_alg is deliberately unused: the produced term always
    # defers to whichever algebra it is eventually folded with.
    def run(alg):
        def shifted(mx: Rename, fresh):
            # One frame per layer of a term folded through lam_alg many
            # times, and no binder: the trip point moves, the count does not.
            budget = _guard.budget
            if budget.limit:
                budget.trip += 1
                if budget.left < budget.trip:
                    _trip(budget, 0)
            r = _new(Rename)
            r.apply = lambda t: mx.apply(t.run(alg))
            return body(r, fresh)

        return alg.interpret_lam(shifted, embed, embed(alg))

    t = _new(Term)
    t.run = run
    return t


_LAM_ALG = Algebra(_rebuild_lam, name="lam_alg")


def lam_alg() -> Algebra:
    """The algebra whose carrier is ``Term`` itself.

    Interpreting a binder with it yields a term that, when later folded with
    some algebra ``alg``, re-interprets the original body using ``alg``:
    bound subterms reaching the body through a rename are folded with
    ``alg`` on the way. This is the weakly initial algebra; ``fold(alg, _)``
    is a homomorphism from it to any ``alg`` (see :mod:`kripkelam.laws`).
    """
    return _LAM_ALG


def closed(builder: TermBody) -> Term:
    """Package a world-polymorphic binder body as a closed term.

    ``builder`` receives a rename from an empty outer world (never useful,
    conventionally ignored) and the outermost bound variable. There is no
    closed term without at least one binder, so this is the only way to
    make a :class:`Term` from scratch.
    """
    return Term(_Lam(builder).interpret)


def fold(alg: Algebra, t: Term):
    """Interpret a closed term with an algebra.

    The fold runs once, on the calling thread, under the binder guard.
    Pure: same term, same algebra, same result. With a function-typed
    carrier the carrier value may recurse further when applied. Use
    ``run_guarded(thunk, max_depth)`` for a tighter or looser budget, or to
    apply a function carrier under the guard; a nested call keeps the outer
    budget.
    """
    return _guarded(t.run, alg)


class _Budget:
    """A thread's count of binders for the top-level guarded call running
    there, and its tripwire.

    ``limit`` is the call's limit, or 0 while no call runs on the thread:
    then nothing is charged. ``left`` is what is left of ``limit``. The trip
    point ``trip`` starts ``_TRIP`` below ``limit`` and moves down with
    every charge that nests nothing and up with every ``lam_alg`` layer, so
    ``left`` falls below it once the call has made more than ``_TRIP``
    interpretations and layers, units which may nest. The tripwire then
    fires (:func:`_trip`): it sets ``units``, 0 until then, and moves the
    trip point to ``units`` below ``left``, to fire again after ``units``
    + 1 more. :func:`_guarded` sets all four for each top-level call; only
    the thread that owns the budget can reach it, so nothing here takes a
    lock.
    """

    __slots__ = ("left", "limit", "trip", "units")


# Units that may nest before a top-level guarded call first measures its
# stack: a call started near the caller's limit must fire its tripwire
# before it runs out of frames, so from the top level at the default limit
# of 1,000 a fold fires it in time at up to 110 frames a nested binder. A
# guarded call of the law suites nests at most 8.
_TRIP = 9

# A tripped call raises the recursion limit to this many times the stack it
# measured, which keeps it ahead of a stack that doubles before the next look.
_STACK_MULTIPLE = 4


class _Guard(threading.local):
    """Per thread, the one budget that every top-level guarded call there
    reuses, made idle the first time the thread touches the guard."""

    def __init__(self):
        budget = self.budget = _new(_Budget)
        budget.left = budget.limit = budget.trip = budget.units = 0


_guard = _Guard()
# The recursion limit is process-wide, so these are shared by every thread:
# top-level guarded calls in flight whose tripwire fired, the recursion limit
# before the first of them, and the limit the guard last left in place.
_limit_lock = threading.Lock()
_in_flight = 0
_limit_before = 0
_limit_set = 0


def _chain_end(body, alg, level: int, var, own, cls=None, budget=None, opened=None) -> tuple:
    """Walk the chain from a binder with ``body``, read with the algebra ``alg``.

    The binder is at ``level``: its body is asked at the identity rename
    for the variable ``var(level)``, and what it returns is interpreted
    with the binder's algebra. With the library's algebra ``own``, a
    ``lam`` node is instead stepped in place, charged to the guard as one
    binder, and a chain binder is skipped with its chain. The walk goes on
    one level deeper while that gives a value of the carrier class ``cls``
    (the size fold has none), as an occurrence that denotes a term renamed
    in through ``lam_alg`` does. Returns the level past the last binder
    walked and the value that ends the chain. The size fold and the two
    function carriers call it and it reads the thread's ``budget``.

    The guarded entry hands it the budget it read and, for a term whose
    outermost binder is a library binder, that binder as the node
    ``opened`` at ``level``, read with ``own``: the walk starts there, with
    no body to ask, and steps or skips it like any other.
    """
    budget = budget or _guard.budget
    while True:
        if opened is None:
            try:
                opened = body(_IDENTITY_RENAME, var(level))
            except TypeError as err:
                _raise_if_refused(body, err)
                raise
            level += 1
        if alg is own and (type(opened) is _Lam or type(opened) is _ChainBinder):
            n = 1
            if type(opened) is _ChainBinder:
                # Stepping this binder, then each binder that returns, takes
                # below + 1 steps and ends in place(value): value is the
                # variable handed to step below - index if that is not
                # negative, and the target untouched otherwise, since the
                # named binder was entered further out.
                below = opened.below
                n = below + 1
                named = below - opened.index
                c = var(level + named) if named >= 0 else opened.target
                level += below + 1
            # The n binders stepped or skipped nest nothing: they are charged
            # at once, as n charges of one would be. The trip point moves
            # down with left, floored at 0, so only a charge past the limit
            # takes left below it. An idle budget is charged nothing.
            if budget.limit:
                budget.left -= n
                budget.trip = budget.trip - n if budget.trip > n else 0
                if budget.left < budget.trip:
                    _trip(budget, n)
            if type(opened) is _Lam:
                body, opened = opened._body, None
                continue
        elif isinstance(opened, OpenTerm):
            c = opened.interpret(alg)
        else:
            raise _ill_formed(body)
        if type(c) is not cls:
            return level, c
        body, alg, opened = c.body, c.alg, None


def _ill_formed(c) -> TypeError:
    what = "neither a variable bound by the term nor a binder body"
    return TypeError(f"ill-formed term: it holds {reprlib.repr(c)}, which is {what}")


def _raise_if_refused(c, err: TypeError) -> None:
    """Raise ``_ill_formed(c)`` if calling ``c`` raised ``err`` itself.

    A ``TypeError`` raised by the call, not from inside a Python function
    it ran, means ``c`` cannot be called with those arguments: it is no
    binder body, or no value a carrier's chain can end in.
    """
    if err.__traceback__.tb_next is None:
        raise _ill_formed(c) from err


def _trip(budget: _Budget, n: int) -> None:
    """The slow path of a charge of ``n`` that took ``left`` below the trip point.

    Past the limit it raises :class:`DepthLimitError` (a ``lam_alg``
    layer, ``n == 0``, charges nothing and raises nothing) and leaves
    ``left`` where the charge of the binder that crossed the limit left
    it. Otherwise the tripwire fires: it measures the thread's stack and
    raises the recursion limit to ``_STACK_MULTIPLE`` times that, until
    the call ends, if that is higher. Then it re-arms to look again once
    the call has made about as many units again, so a fold that nests
    ``k`` units looks O(log k) times.
    """
    global _in_flight, _limit_before, _limit_set
    if budget.left < 0 and n:
        budget.left = min(budget.left + n, 0) - 1
        raise DepthLimitError(budget.limit)
    # The power of two past the stack's depth, in log2(depth) + 1 calls.
    depth = 1
    try:
        while sys._getframe(depth):
            depth *= 2
    except ValueError:
        pass
    need = _STACK_MULTIPLE * depth
    # Look again after as many units again as the call has made, but after
    # no more than half as many as the power of two has frames: units that
    # did not nest (folds run one after another in one call) must not let
    # the next ones nest past the limit, which is 3 such powers above the
    # stack, room for half of one at 6 frames a unit.
    units = min(2 * budget.units + 1, depth // 2) if budget.units else _TRIP + 1
    with _limit_lock:
        if not budget.units:
            if _in_flight == 0:
                _limit_before = _limit_set = sys.getrecursionlimit()
            _in_flight += 1
        # Stored next to the count, so an interrupt cannot leave the call
        # counted in flight with nothing to restore.
        budget.units = units
        if need > sys.getrecursionlimit():
            sys.setrecursionlimit(need)
            _limit_set = need
    budget.trip = budget.left - units if budget.left > units else 0


def _restore_limit() -> None:
    """End one tripped call; the last call in flight puts the limit back."""
    global _in_flight
    with _limit_lock:
        _in_flight -= 1
        # A limit someone else set while the call ran is theirs to keep.
        if _in_flight == 0 and sys.getrecursionlimit() == _limit_set:
            sys.setrecursionlimit(_limit_before)


def run_guarded(thunk: Callable[[], Any], max_depth: int | None = None):
    """Run ``thunk`` under the binder guard and return its result.

    The guard counts the binders interpreted while ``thunk`` runs and raises
    :class:`DepthLimitError` past ``max_depth``, an integer of at least 1
    (default ``DEFAULT_MAX_NESTING``); anything else raises ``TypeError``
    naming it. Inside a guarded call on the same thread this is a plain
    call: its folds count against the enclosing budget, whatever
    ``max_depth`` it passes. Folds on another thread are top-level calls
    there.

    At top level the thunk runs once, on the calling thread. Once it has
    nested 10 binder interpretations or ``lam_alg`` layers, the process-wide
    recursion limit is raised as its measured stack needs; the last such
    call to end puts the limit back, unless it was set to another value
    meanwhile.
    """
    return _guarded(operator.call, thunk, max_depth)


def _guarded(run, arg, max_depth=None, var=None, cls=None):
    """``run(arg)`` under the binder guard; every guarded call enters here.

    At top level it sets the thread's budget for ``max_depth`` binders and
    clears it on exit; nested, it keeps the enclosing one. With a carrier
    class ``cls``, an entry point's, the chain is walked with the budget
    read here, ``var`` and the algebra ``arg``, from level 1: from the
    term's outermost binder when ``run`` is a library binder's
    ``interpret``, so nothing interprets that binder; otherwise from
    ``run(arg)``, its de Bruijn carrier value, which must be a ``cls``.
    """
    budget = _guard.budget
    limit = outer = budget.limit
    if not outer:
        limit = DEFAULT_MAX_NESTING
        if max_depth is not None:
            limit = _at_least(_integer(max_depth, "max_depth must be an integer"), "max_depth", 1)
        budget.left = limit
        budget.trip = limit - _TRIP if limit > _TRIP else 0
        budget.units = 0
    # Marked busy inside the try, so an interrupt cannot leave it so.
    try:
        budget.limit = limit
        if cls is None:
            return run(arg)
        # The outermost binder of a closed, db_to_hoas or skeleton term.
        node = getattr(run, "__self__", None)
        if (type(node) is _ChainBinder or type(node) is _Lam) and run.__func__ is type(node).interpret:
            return _chain_end(None, arg, 1, var, arg, cls, budget, node)
        c = run(arg)
        if type(c) is not cls:
            raise _ill_formed(c)
        return _chain_end(c.body, c.alg, 1, var, arg, cls, budget)
    finally:
        if not outer:
            budget.limit = 0
            if budget.units:
                _restore_limit()
