"""First-order term representations and the oracles built on them.

Because the term language has binders and variables only, every closed term
is a chain: some number of nested binders around a single variable
occurrence. That makes the first-order side easy to enumerate exhaustively
and to compute against directly, which is exactly what the differential
tests for the higher-order encoding need. Everything in this module is
written as plain walks over the chain structure, independent of the
encoding in :mod:`kripkelam.encoding`.

The bridge to the encoding, :func:`db_to_hoas`, uses the chain shape too:
only the denotation of the binder the occurrence names is carried inward.
It is captured when that binder is entered and renamed once by each binder
inside it, so folding a converted term takes time and memory linear in its
depth.

De Bruijn convention: indices are 0-based and count binders between an
occurrence and its binder, innermost binder = 0.

Text format for de Bruijn terms: constructor name, a space, and a
parenthesized argument, as in ``Lam (Lam (Var 1))``. The parser accepts
arbitrary whitespace between tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .encoding import Rename, Term, TermBody, closed, lam, place

__all__ = [
    "Abs",
    "DbTerm",
    "Lam",
    "NamedTerm",
    "OpenTermError",
    "ParseError",
    "Ref",
    "UnboundVariable",
    "Var",
    "db_to_body",
    "db_to_hoas",
    "db_to_named",
    "db_validate",
    "enumerate_terms",
    "format_db",
    "gen_term",
    "named_to_db",
    "oracle_print",
    "oracle_size",
    "parse_db",
    "splitmix64",
]


@dataclass(frozen=True)
class Var:
    """A variable occurrence by de Bruijn index."""

    index: int


@dataclass(frozen=True)
class Lam:
    """A binder node."""

    body: "DbTerm"


DbTerm = Union[Lam, Var]


@dataclass(frozen=True)
class Ref:
    """A named variable occurrence."""

    name: str


@dataclass(frozen=True)
class Abs:
    """A named binder."""

    name: str
    body: "NamedTerm"


NamedTerm = Union[Abs, Ref]


class UnboundVariable(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name}")
        self.name = name


class OpenTermError(ValueError):
    """An operation that needs a closed term was given an open one."""


class ParseError(ValueError):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _unchain(d: DbTerm) -> tuple[int, int]:
    """Split a chain into (binder count, final index)."""
    k = 0
    while isinstance(d, Lam):
        k += 1
        d = d.body
    if not isinstance(d, Var):
        raise TypeError(f"not a de Bruijn term: {d!r}")
    return k, d.index


def _chain(k: int, i: int) -> DbTerm:
    d: DbTerm = Var(i)
    for _ in range(k):
        d = Lam(d)
    return d


def db_validate(d: DbTerm, depth: int = 0) -> bool:
    """True iff ``d`` is well-scoped under ``depth`` enclosing binders."""
    k, i = _unchain(d)
    return 0 <= i < depth + k


def oracle_size(d: DbTerm) -> int:
    """Node count: one per binder plus one per variable occurrence."""
    size = 0
    while isinstance(d, Lam):
        size += 1
        d = d.body
    return size + 1


def oracle_print(d: DbTerm) -> str:
    """Render a closed term with canonical names x1, x2, ...

    Byte format: backslash, space, name, period, space per binder, then the
    occurrence's name; no trailing newline.
    """
    k, i = _unchain(d)
    if not 0 <= i < k:
        raise OpenTermError(f"term is open: index {i} under {k} binders")
    parts = [f"\\ x{level}. " for level in range(1, k + 1)]
    parts.append(f"x{k - i}")
    return "".join(parts)


def db_to_named(d: DbTerm) -> NamedTerm:
    """Closed term to named form, binder at nesting level k named ``x{k}``."""
    k, i = _unchain(d)
    if not 0 <= i < k:
        raise OpenTermError(f"term is open: index {i} under {k} binders")
    t: NamedTerm = Ref(f"x{k - i}")
    for level in range(k, 0, -1):
        t = Abs(f"x{level}", t)
    return t


def named_to_db(t: NamedTerm) -> DbTerm:
    """Named form to de Bruijn; the nearest enclosing binder wins on shadowing."""
    binders: list[str] = []
    while isinstance(t, Abs):
        binders.append(t.name)
        t = t.body
    if not isinstance(t, Ref):
        raise TypeError(f"not a named term: {t!r}")
    for index, binder in enumerate(reversed(binders)):
        if binder == t.name:
            return _chain(len(binders), index)
    raise UnboundVariable(t.name)


_IDENTITY = Rename.identity()


def _open_chain(below: int, index: int, target) -> TermBody:
    # Kripke body of a binder with ``below`` binders under it, in a chain whose
    # occurrence names the binder with ``index`` binders under it. Only that
    # binder's denotation, ``target``, is carried: the step entering the
    # binder captures its fresh variable, and each binder inside it renames
    # the value into its own world, so the occurrence is renamed exactly
    # ``index`` times and a fold stays linear in the depth. Binders outside
    # the named one leave ``target`` untouched, as does the identity rename.
    def step(mx: Rename, fresh):
        if below == index:
            value = fresh
        elif below > index or mx is _IDENTITY:
            value = target
        else:
            value = mx.apply(target)
        if below == 0:
            return place(value)
        return lam(_open_chain(below - 1, index, value))

    return step


def db_to_body(d: DbTerm) -> TermBody:
    """Binder body of a closed term, usable with ``lam`` or as a raw body.

    The returned callable is the body of the outermost binder: given the
    (ignored) outer rename and the outermost variable's denotation, it
    builds the rest of the chain.
    """
    k, i = _unchain(d)
    if not 0 <= i < k:
        raise OpenTermError(f"not a closed term: {format_db(d)}")
    return _open_chain(k - 1, i, None)


def db_to_hoas(d: DbTerm) -> Term:
    """Closed first-order term to the higher-order encoding.

    Round-trips: converting the result back to de Bruijn form yields ``d``.
    """
    return closed(db_to_body(d))


def enumerate_terms(max_depth: int) -> Iterator[DbTerm]:
    """All closed chains of depth 1..max_depth in (depth, index) order.

    Yields exactly ``max_depth * (max_depth + 1) // 2`` terms.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    for k in range(1, max_depth + 1):
        for i in range(k):
            yield _chain(k, i)


_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: (output, next state).

    Fixed constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB, so seeds mean the same thing everywhere.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def gen_term(seed: int, max_depth: int) -> DbTerm:
    """Deterministic pseudo-random closed chain for a seed.

    Two splitmix64 draws from ``seed``: depth is ``1 + draw0 mod max_depth``
    and index is ``draw1 mod depth``. Streams of terms use consecutive
    seeds.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    draw0, state = splitmix64(seed & _MASK64)
    draw1, _ = splitmix64(state)
    k = 1 + draw0 % max_depth
    return _chain(k, draw1 % k)


def format_db(d: DbTerm) -> str:
    """Canonical text form, e.g. ``Lam (Lam (Var 1))``."""
    k, i = _unchain(d)
    return "Lam (" * k + f"Var {i}" + ")" * k


_DB_WORDS = ("Lam", "Var")


def _tokenize_db(text: str):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        col = pos - line_start + 1
        if ch in "()":
            tokens.append((ch, ch, line, col))
            pos += 1
        elif ch.isdigit():
            end = pos
            while end < n and text[end].isdigit():
                end += 1
            tokens.append(("int", text[pos:end], line, col))
            pos = end
        elif ch.isalpha():
            end = pos
            while end < n and text[end].isalnum():
                end += 1
            word = text[pos:end]
            if word not in _DB_WORDS:
                raise ParseError(f"unknown constructor {word}", line, col)
            tokens.append((word, word, line, col))
            pos = end
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, n - line_start + 1))
    return tokens


def parse_db(text: str) -> DbTerm:
    """Parse the de Bruijn text format; whitespace between tokens is free."""
    tokens = _tokenize_db(text)
    at = 0

    def fail(message):
        kind, value, line, col = tokens[at]
        raise ParseError(message, line, col)

    # Chains only: a prefix of Lam and ( markers, one Var, then the
    # closing parens in reverse marker order.
    markers = []
    while tokens[at][0] in ("Lam", "("):
        markers.append(tokens[at][0])
        at += 1
    if tokens[at][0] != "Var":
        fail("expected Lam, Var or (")
    at += 1
    if tokens[at][0] != "int":
        fail("expected an index after Var")
    term: DbTerm = Var(int(tokens[at][1]))
    at += 1
    for marker in reversed(markers):
        if marker == "(":
            if tokens[at][0] != ")":
                fail("expected )")
            at += 1
        else:
            term = Lam(term)
    if tokens[at][0] != "eof":
        fail("trailing input after term")
    return term
