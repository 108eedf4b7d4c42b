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
Each top-level guarded call runs once, on the calling thread, with the
recursion limit raised to what its limit needs; the limit is process-wide,
so it stays raised while any guarded call is in flight and is restored
when the last one ends, unless it was set to another value meanwhile.
This relies on CPython 3.11 and later, where a Python-to-Python call
takes no C stack, so a 10,000-binder fold fits even a thread started with
a 256 KiB stack. An algebra whose
per-binder recursion passes through a C function (a generator inside
``sum``, say) takes C stack per binder: a deep fold of it raises
``RecursionError`` on 3.12 and later, or can overflow a small thread stack
and crash the interpreter.

The guard's own state is a context variable, so it is per thread and per
asyncio task. A new thread starts unguarded on Python 3.11 to 3.13, so its
folds are top-level calls with their own count; free-threaded builds of
3.14 may copy the starting thread's context into it. A task or copied
context made inside a guarded call shares that call's count while the
call runs.
"""

from __future__ import annotations

import operator
import sys
import threading
from contextvars import ContextVar
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


class DepthLimitError(RuntimeError):
    """A guarded call interpreted more binders than the active limit allows."""

    def __init__(self, limit: int):
        super().__init__(
            f"more than {limit} binder interpretations in one guarded call "
            "(the limit on binder nesting counts every binder interpreted)"
        )
        self.limit = limit


class Rename:
    """A world coercion: ``apply`` moves a value from one world into a later one."""

    __slots__ = ("apply",)

    def __init__(self, apply: Callable[[Any], Any]):
        self.apply = apply

    def then(self, outer: "Rename") -> "Rename":
        """Left-to-right composition: ``f.then(g).apply(x) == g.apply(f.apply(x))``."""
        return Rename(lambda value: outer.apply(self.apply(value)))

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

    def __init__(self, value):
        self._value = value

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
        # The hot tick: _charge(budget, 1) written out, which saves a call
        # per interpreted binder.
        budget = _budget.get()
        if budget is not None:
            budget.left -= 1
            if budget.left < 0 and budget.active:
                raise DepthLimitError(budget.limit)
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
    return _Placed(x)


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
            return body(Rename(lambda t: mx.apply(t.run(alg))), fresh)

        return alg.interpret_lam(shifted, embed, embed(alg))

    return Term(run)


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
    """Binder interpretations left to one top-level guarded call, and its limit."""

    __slots__ = ("left", "limit", "active")

    def __init__(self, limit: int):
        self.left = limit
        self.limit = limit
        self.active = True


# The budget of the top-level guarded call this context runs in, or None. A
# context copied inside the call keeps the budget after the call ends; the
# call marks it inactive then, and an inactive budget guards nothing.
_budget: ContextVar[_Budget | None] = ContextVar("kripkelam_guard_budget", default=None)
_limit_lock = threading.Lock()
# Top-level guarded calls in flight, the recursion limit before the first
# of them, and the limit the guard last left in place.
_in_flight = 0
_limit_before = 0
_limit_set = 0


def _charge(budget: _Budget | None, n: int) -> None:
    """Charge ``budget`` for ``n`` binders as ``n`` charges of one would.

    An active budget raises :class:`DepthLimitError` on the charge that
    takes it past its limit, and keeps ``left`` where the charge of the
    binder that crossed it left it. The chain loop of
    :mod:`kripkelam.algebras` charges here every binder it steps in place
    or skips; ``Algebra.interpret_lam`` charges the same way for one.
    """
    if budget is not None:
        budget.left -= n
        if budget.left < 0 and budget.active:
            budget.left = min(budget.left + n, 0) - 1
            raise DepthLimitError(budget.limit)


def run_guarded(thunk: Callable[[], Any], max_depth: int | None = None):
    """Run ``thunk`` under the binder guard and return its result.

    The guard counts the binders interpreted while ``thunk`` runs, which
    bounds their nesting too, and raises :class:`DepthLimitError` past
    ``max_depth``, an integer of at least 1 (default
    ``DEFAULT_MAX_NESTING``). Inside an already-guarded computation this is
    a plain call, so nested folds accumulate into the enclosing count and
    keep its budget, whatever ``max_depth`` they pass. The count lives in a
    context variable: each thread and each asyncio task has its own, and a
    thread started inside a guarded call starts unguarded on Python 3.11 to
    3.13, so its folds are top-level calls with their own count.

    At top level the thunk runs once, on the calling thread, with the
    interpreter's recursion limit raised to what ``max_depth`` binders
    need. The limit is process-wide: it stays raised while any top-level
    guarded call is in flight, and when the last one ends it goes back to
    what it was before the first, unless it was set to another value in
    the meantime: that setting stays.
    """
    global _in_flight, _limit_before, _limit_set
    budget = _budget.get()
    if budget is not None and budget.active:
        return thunk()
    limit = DEFAULT_MAX_NESTING if max_depth is None else operator.index(max_depth)
    if limit < 1:
        raise ValueError("max_depth must be at least 1")
    # The interpreter stores its recursion limit in a C int.
    need = min(limit * _FRAMES_PER_LEVEL + _FRAME_HEADROOM, 2**31 - 1)
    with _limit_lock:
        if _in_flight == 0:
            _limit_before = _limit_set = sys.getrecursionlimit()
        if need > sys.getrecursionlimit():
            sys.setrecursionlimit(need)
            _limit_set = need
        _in_flight += 1
    budget = _Budget(limit)
    token = _budget.set(budget)
    try:
        return thunk()
    finally:
        budget.active = False
        _budget.reset(token)
        with _limit_lock:
            _in_flight -= 1
            # A limit someone else set while the call ran is theirs to keep.
            if _in_flight == 0 and sys.getrecursionlimit() == _limit_set:
                sys.setrecursionlimit(_limit_before)
