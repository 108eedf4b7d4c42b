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
it only through ``place`` and through renames. Algebras that respect purity
may be folded concurrently; all values here are immutable after
construction.

Deep terms: no fold of a library algebra recurses per binder. A
``size_alg`` fold, the entry points of :mod:`kripkelam.algebras` and the
values of its two function carriers when applied walk the chain in one
loop, which steps a ``lam`` node in place and skips a chain from
``db_to_hoas`` in O(1), charged to the guard as its ``B + 1`` binders.
Only two things still recurse: a fold with a foreign algebra (a wrapper
or subclass of a library algebra too), which goes through ``interpret``,
``interpret_lam`` and the algebra once per binder, and a term folded
through ``lam_alg`` many times, whose first body calls one body per layer.
The guard counts every binder interpreted, stepped or skipped in one
top-level guarded call; passing the active limit
(default ``DEFAULT_MAX_NESTING``) raises :class:`DepthLimitError` instead
of exhausting the interpreter stack. A binder is interpreted before those
inside it, so this bounds nesting too, but an algebra that interprets
each body twice trips it at 14 binders.

Each top-level guarded call runs once, on the calling thread, and leaves
the recursion limit alone until its tripwire fires: after about 40
interpretations or ``lam_alg`` layers, which may nest. A binder skipped or
stepped in place nests nothing and never fires it. Only then does the call
raise the limit to what its budget needs; the limit is process-wide, so it
stays raised while any such call is in flight and is restored when the
last one ends, unless it was set to another value meanwhile. On CPython
3.11 a raised limit lets another thread's deep C recursion (``repr`` of a
deeply nested list) overflow the C stack and crash the process, so that
window stays open while a call whose tripwire fired is in flight. A call
started near the caller's limit needs headroom below it to fire the
tripwire in time; :func:`run_guarded` gives the figures. This relies on
CPython 3.11 and later, where a Python-to-Python call takes no C stack, so
a 10,000-binder fold fits even a thread started with a 256 KiB stack. An
algebra whose per-binder recursion passes through a C function (a
generator inside ``sum``, say) takes C stack per binder: a deep fold of it
raises ``RecursionError`` on 3.12 and later, or can overflow a small thread
stack and crash the interpreter.

The guard's budget is per thread: each thread has one, made the first
time the thread touches the guard and reused by every top-level guarded
call there, so a call allocates nothing and reads one thread-local. Only
the thread that owns a budget can reach it, and a limit of 0 marks that no
call is running. Folds on another thread are top-level calls there with
their own count, whether that thread was started inside a guarded call or
runs a context copied inside one. A guarded thunk is synchronous, so an
asyncio task runs during the call only if the thunk drives an event loop
on its own thread, and then the task shares the call's count.
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

# Python frames allowed per binder while folding. The library's folds loop;
# a foreign algebra recursing per binder takes 3 or more (interpret,
# interpret_lam and the algebra), and a lam_alg tower 1 per layer. The rest
# is margin for user algebras.
_FRAMES_PER_LEVEL = 16
_FRAME_HEADROOM = 2048

# The objects the library makes for itself once per term, binder or call
# (terms, renames, placed values, chain nodes, name streams) are made with
# object.__new__ and slot stores, never a class call: a class call enters a
# Python __init__ from C each time. Public constructors keep their checks.
_new = object.__new__


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

    The fold runs once, on the calling thread, inside :func:`run_guarded`.
    Pure: same term, same algebra, same result. With a function-typed
    carrier the carrier value may recurse further when applied. Use
    ``run_guarded(thunk, max_depth)`` for a tighter or looser budget, or to
    apply a function carrier under the guard; a nested call keeps the outer
    budget.
    """
    return run_guarded(lambda: t.run(alg))


class _Budget:
    """A thread's count of binders for the top-level guarded call running
    there, and its tripwire.

    ``limit`` is the call's limit, or 0 while no call runs on the thread:
    then nothing is charged. ``left`` is what is left of ``limit``. The trip
    point ``trip`` starts ``_TRIP`` below ``limit`` and moves down with
    every charge that nests nothing and up with every ``lam_alg`` layer, so
    ``left`` falls below it once the call has made more than ``_TRIP``
    interpretations and layers, which may nest. The tripwire then fires:
    the call raises the recursion limit (``raised``). :func:`run_guarded`
    sets all four for each top-level call; only the thread that owns the
    budget can reach it, so nothing here takes a lock.
    """

    __slots__ = ("left", "limit", "trip", "raised")


# Charges that may nest before a top-level guarded call raises the recursion
# limit; run_guarded's docstring gives the headroom that costs a call near
# the caller's limit. A guarded call of the law suites makes at most 8.
_TRIP = 40


class _Guard(threading.local):
    """Per thread, the one budget that every top-level guarded call there
    reuses, made idle the first time the thread touches the guard."""

    def __init__(self):
        budget = self.budget = _new(_Budget)
        budget.left = budget.limit = budget.trip = 0
        budget.raised = False


_guard = _Guard()
# The recursion limit is process-wide, so these are shared by every thread:
# top-level guarded calls in flight whose tripwire fired, the recursion limit
# before the first of them, and the limit the guard last left in place.
_limit_lock = threading.Lock()
_in_flight = 0
_limit_before = 0
_limit_set = 0


def _charge(budget: _Budget, n: int) -> None:
    """Charge ``budget`` for ``n`` binders that nest nothing, as ``n`` charges of one would.

    The trip point moves down with ``left``, floored at 0, so only a charge
    past the limit takes ``left`` below it. A budget raises
    :class:`DepthLimitError` on the charge that takes it past its limit,
    and keeps ``left`` where the charge of the binder that crossed it left
    it. The chain loop of :mod:`kripkelam.algebras` charges here every
    binder it steps in place or skips; ``Algebra.interpret_lam`` charges
    one that may nest. An idle budget is charged nothing.
    """
    if budget.limit:
        budget.left -= n
        budget.trip = budget.trip - n if budget.trip > n else 0
        if budget.left < budget.trip:
            _trip(budget, n)


def _trip(budget: _Budget, n: int) -> None:
    """The slow path of a charge of ``n`` that took ``left`` below the trip point.

    Past the limit it raises :class:`DepthLimitError` (a ``lam_alg``
    layer, ``n == 0``, charges nothing and raises nothing). Otherwise the
    tripwire fires: the trip point drops to 0, where only the limit check
    is left, and the recursion limit is raised for the call.
    """
    if budget.left < 0 and n:
        budget.left = min(budget.left + n, 0) - 1
        raise DepthLimitError(budget.limit)
    budget.trip = 0
    if not budget.raised:
        _raise_limit(budget)


def _raise_limit(budget: _Budget) -> None:
    """Raise the recursion limit to what ``budget.limit`` binders need, until the call ends."""
    global _in_flight, _limit_before, _limit_set
    # The interpreter stores its recursion limit in a C int.
    need = min(budget.limit * _FRAMES_PER_LEVEL + _FRAME_HEADROOM, 2**31 - 1)
    with _limit_lock:
        if _in_flight == 0:
            _limit_before = _limit_set = sys.getrecursionlimit()
        if need > sys.getrecursionlimit():
            sys.setrecursionlimit(need)
            _limit_set = need
        _in_flight += 1
        budget.raised = True


def _restore_limit() -> None:
    """Undo one ``_raise_limit``; the last call in flight puts the limit back."""
    global _in_flight
    with _limit_lock:
        _in_flight -= 1
        # A limit someone else set while the call ran is theirs to keep.
        if _in_flight == 0 and sys.getrecursionlimit() == _limit_set:
            sys.setrecursionlimit(_limit_before)


def run_guarded(thunk: Callable[[], Any], max_depth: int | None = None):
    """Run ``thunk`` under the binder guard and return its result.

    The guard counts the binders interpreted while ``thunk`` runs, which
    bounds their nesting too, and raises :class:`DepthLimitError` past
    ``max_depth``, an integer of at least 1 (default
    ``DEFAULT_MAX_NESTING``); anything else raises ``TypeError`` naming it.
    Inside an already-guarded computation this is a plain call, so nested
    folds accumulate into the enclosing count and keep its budget, whatever
    ``max_depth`` they pass. The count is per thread: each thread has one
    budget, which every top-level call there resets on entry and marks idle
    on exit, so a call reads one thread-local and allocates nothing. Folds
    on another thread, started or run in a copied context inside this call,
    are top-level calls there with their own count.

    At top level the thunk runs once, on the calling thread, and leaves
    the interpreter's recursion limit alone until the call's tripwire
    fires: after about 40 binder interpretations or ``lam_alg`` layers,
    which may nest. Binders skipped or stepped in place by the library's
    folds nest nothing and never fire it. Then the call raises the limit
    to what ``max_depth`` binders need. The limit is process-wide: it stays
    raised while any such call is in flight, and when the last one ends it
    goes back to what it was before the first, unless it was set to
    another value in the meantime: that setting stays. On CPython 3.11 a
    raised limit also lets another thread's deep C recursion (``repr`` of
    a deeply nested list, say) overflow the C stack and crash the process,
    so that window stays open while a call whose tripwire fired is in
    flight. A call started near the caller's limit must fire its tripwire
    before it runs out of frames, so it needs about 41 times its frames per
    nested binder below that limit: a 100-binder fold of an algebra that
    recurses once per binder needs 130 frames at 3 frames a binder and 650
    at the 16 a binder that the raised limit budgets for. So at the default
    limit of 1,000, such a 16-frame fold started more than about 350 frames
    deep raises ``RecursionError``.
    """
    budget = _guard.budget
    if budget.limit:
        return thunk()
    if max_depth is None:
        limit = DEFAULT_MAX_NESTING
    else:
        try:
            limit = operator.index(max_depth)
        except TypeError:
            raise TypeError(f"max_depth must be an integer, not {reprlib.repr(max_depth)}") from None
        if limit < 1:
            raise ValueError("max_depth must be at least 1")
    budget.left = limit
    budget.trip = limit - _TRIP if limit > _TRIP else 0
    budget.raised = False
    # Marked busy inside the try, so an interrupt cannot leave it so.
    try:
        budget.limit = limit
        return thunk()
    finally:
        budget.limit = 0
        if budget.raised:
            _restore_limit()
