"""First-order terms, their two text syntaxes, and the oracles built on them.

Because the term language has binders and variables only, every closed term
is a chain: some number of nested binders around a single variable
occurrence, and that pair is what a first-order term stores: a
:class:`DbTerm` its binder count and de Bruijn index, a :class:`NamedTerm`
its binder names (outermost first) and occurrence name. ``Lam``/``Var`` and
``Abs``/``Ref`` build and view them one node at a time; ``Lam(d)`` and
``d.body`` cost O(1). ``==``, ``hash``, ``repr``, the oracles and the
conversions read the two fields and never recurse, so they work at any
depth, which the differential tests for the encoding rely on.

The bridge to the encoding, :func:`db_to_hoas`, uses the chain shape too:
only the denotation of the binder the occurrence names is carried inward.
It is captured when that binder is entered and renamed once by each binder
inside it, so folding a converted term takes time and memory linear in its
depth. Each binder of a converted term is one small object that is both the
``lam`` node and its own body, so a fold keeps one GC-tracked object alive
per binder. The library's own folds and chain loop skip such a chain in O(1).

De Bruijn convention: indices are 0-based and count binders between an
occurrence and its binder, innermost binder = 0.

Each text syntax is recognised by one regular-expression match whose
repeats are possessive, so reading a term builds no token list and the match
keeps no state per binder. Any whitespace may separate tokens. De Bruijn
text reads ``Lam (Lam (Var 1))``, parentheses optional. Named text is
``('\\' | 'λ') ident '.' term | ident`` with ``ident := [A-Za-z][A-Za-z0-9_]*``.
A text that does not match raises :class:`ParseError` at a 1-based line and
column: at the first character that starts no token, anywhere in the text,
or else at one of the first tokens after the binder run or among the
closing parentheses. The names of a named binder run are then listed by
``str.split``, once ``\\``, ``λ`` and ``.`` are read as spaces; a run of
4,096 characters or more is listed a chunk of about that many characters at
a time, each ending just after a binder's ``.``, and the names are streamed
into the term, so no list of every name is held beside them.
:func:`format_db`'s own spelling, with an index of at most 18 ASCII digits,
skips the match: ``str.count``, ``startswith``, ``isascii`` and ``isdigit``
recognise it. Any other de Bruijn text takes the match.

The canonical names ``x1``, ``x2``, ... come from one table that grows on
demand to at most ``DEFAULT_MAX_NESTING`` names (about 0.6 MB).
:func:`db_to_named` slices its binder names from it, and binder text is
joined from such names in one ``str.join``; a name past the table is
formatted per call. The oracles do not use the table.
"""

from __future__ import annotations

import operator
import re
import reprlib
from itertools import chain, islice
from operator import attrgetter
from typing import Iterator

from .encoding import DEFAULT_MAX_NESTING, OpenTerm, Rename, Term, TermBody, _new, identity_embed, place

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
    "enumerate_terms",
    "format_db",
    "gen_term",
    "named_to_db",
    "oracle_print",
    "oracle_size",
    "parse_db",
    "parse_named",
    "render_named",
    "splitmix64",
]


class _Chain:
    """A chain: ``binders`` around one variable ``occurrence``, both read-only."""

    __slots__ = ("_binders", "_occurrence")
    binders = property(attrgetter("_binders"))
    occurrence = property(attrgetter("_occurrence"))

    def __eq__(self, other):
        if not isinstance(other, _Chain):
            return NotImplemented
        return self._binders == other._binders and self._occurrence == other._occurrence

    def __hash__(self):
        return hash((self._binders, self._occurrence))

    def __reduce__(self):
        return _make, (type(self), self._binders, self._occurrence)


def _make(cls, binders, occurrence):
    t = _new(cls)
    t._binders = binders
    t._occurrence = occurrence
    return t


class DbTerm(_Chain):
    """``binders`` binders around the index ``occurrence``: a ``Lam``, or a ``Var`` if none."""

    __slots__ = ()

    index = property(attrgetter("_occurrence"))

    def __repr__(self):
        return "Lam(" * self._binders + f"Var({self._occurrence!r})" + ")" * self._binders


class Var(DbTerm):
    """A variable occurrence by de Bruijn index.

    ``index`` is read with ``operator.index``: any integer, and a ``bool``
    as its ``int``. Anything else raises ``TypeError`` naming it.
    """

    __slots__ = ()

    def __new__(cls, index: int):
        try:
            return _make(Var, 0, operator.index(index))
        except TypeError:
            raise TypeError(f"a de Bruijn index is an integer, not {reprlib.repr(index)}") from None


class Lam(DbTerm):
    """A binder node."""

    __slots__ = ()

    def __new__(cls, body: DbTerm):
        if not isinstance(body, DbTerm):
            raise TypeError(f"not a de Bruijn term: {body!r}")
        return _make(Lam, body._binders + 1, body._occurrence)

    @property
    def body(self) -> DbTerm:
        return _chain(self._binders - 1, self._occurrence)


class NamedTerm(_Chain):
    """Binder names, outermost first, around ``occurrence``: an ``Abs``, or a ``Ref`` if none."""

    __slots__ = ()

    def __repr__(self):
        opened = "".join([f"Abs({name!r}, " for name in self._binders])
        return opened + f"Ref({self._occurrence!r})" + ")" * len(self._binders)


class Ref(NamedTerm):
    """A named variable occurrence."""

    __slots__ = ()

    name = property(attrgetter("_occurrence"))

    def __new__(cls, name: str):
        return _make(Ref, (), _checked_name(name))


class Abs(NamedTerm):
    """A named binder; ``Abs(name, body)`` and ``.body`` copy the names."""

    __slots__ = ()

    def __new__(cls, name: str, body: NamedTerm):
        if not isinstance(body, NamedTerm):
            raise TypeError(f"not a named term: {body!r}")
        return _make(Abs, (_checked_name(name), *body._binders), body._occurrence)

    @property
    def name(self) -> str:
        return self._binders[0]

    @property
    def body(self) -> NamedTerm:
        return _named(self._binders[1:], self._occurrence)


class UnboundVariable(ValueError):
    """A named term's occurrence that no binder of it binds."""

    def __init__(self, name: str):
        # args are the constructor's, so pickle and copy rebuild the error.
        super().__init__(name)
        self.name = name

    def __str__(self):
        return f"unbound variable {self.name}"


class OpenTermError(ValueError):
    """An operation that needs a closed term was given an open one."""


class ParseError(ValueError):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        # args are the constructor's, so pickle and copy rebuild the error.
        super().__init__(message, line, column)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self):
        return f"{self.line}:{self.column}: {self.message}"


def _unchain(d: DbTerm) -> tuple[int, int]:
    """Split a chain into (binder count, final index)."""
    if not isinstance(d, DbTerm):
        raise TypeError(f"not a de Bruijn term: {d!r}")
    return d._binders, d._occurrence


def _chain(k: int, i: int) -> DbTerm:
    t = _new(Lam if k else Var)
    t._binders = k
    t._occurrence = i
    return t


def _named(binders: tuple[str, ...], occurrence: str) -> NamedTerm:
    t = _new(Abs if binders else Ref)
    t._binders = binders
    t._occurrence = occurrence
    return t


def _checked_name(name: str) -> str:
    """``name`` if the named syntax can spell it as an identifier."""
    if not isinstance(name, str):
        raise TypeError(f"a variable name must be a str, not {type(name).__name__}")
    if _NAME.fullmatch(name) is None:
        raise ValueError(f"not an identifier: {name!r}")
    return name


def oracle_size(d: DbTerm) -> int:
    """Node count: one per binder plus one per variable occurrence."""
    return _unchain(d)[0] + 1


def _unchain_closed(d: DbTerm) -> tuple[int, int]:
    k, i = _unchain(d)
    if not 0 <= i < k:
        raise OpenTermError(f"term is open: index {i} under {k} binders")
    return k, i


def oracle_print(d: DbTerm) -> str:
    """Render a closed term with canonical names x1, x2, ...

    Byte format: backslash, space, name, period, space per binder, then the
    occurrence's name; no trailing newline.
    """
    k, i = _unchain_closed(d)
    return "".join([f"\\ x{level}. " for level in range(1, k + 1)]) + f"x{k - i}"


def db_to_named(d: DbTerm) -> NamedTerm:
    """Closed term to named form, binder at nesting level k named ``x{k}``."""
    k, i = _unchain_closed(d)
    return _named(_canonical(1, k), f"x{k - i}")


# The canonical names: entry n is x{n + 1}. The table grows by doubling up
# to DEFAULT_MAX_NESTING names, and growing rebinds it whole, so a thread
# that reads it during another's growth still reads a correct table.
_CANONICAL: tuple[str, ...] = ()


def _canonical(start: int, last: int) -> tuple[str, ...]:
    """The names x{start} to x{last}: a slice of the table where it holds them."""
    global _CANONICAL
    if 1 <= start and last <= DEFAULT_MAX_NESTING:
        table = _CANONICAL
        if len(table) < last:
            size = min(max(2 * len(table), last), DEFAULT_MAX_NESTING)
            table += tuple([f"x{n}" for n in range(len(table) + 1, size + 1)])
            _CANONICAL = table
        return table[start - 1 : last]
    return tuple([f"x{n}" for n in range(start, last + 1)])


def _binder_text(binders: tuple[str, ...]) -> str:
    """The binder prefixes ``\\ name. `` of ``binders``, outermost first."""
    if not binders:
        return ""
    return "\\ " + ". \\ ".join(binders) + ". "


def named_to_db(t: NamedTerm) -> DbTerm:
    """Named form to de Bruijn; the nearest enclosing binder wins on shadowing."""
    if not isinstance(t, NamedTerm):
        raise TypeError(f"not a named term: {t!r}")
    try:
        return _chain(len(t.binders), t.binders[::-1].index(t.occurrence))
    except ValueError:
        raise UnboundVariable(t.occurrence) from None


_IDENTITY = Rename.identity()
_EMBED = identity_embed()


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
    ``size_alg`` fold and the chain loop of :mod:`kripkelam.algebras`,
    which the entry points and the applied carriers share, skip the chain
    in O(1) from them, charged to the guard as its ``below + 1`` binders;
    any other algebra calls each binder in turn.

    There is no ``__init__``: every binder is made as :func:`_binder`
    makes one, by the rule for the library's own objects in
    :mod:`kripkelam.encoding`.
    """

    __slots__ = ("below", "index", "target")

    def interpret(self, alg):
        return alg.interpret_lam(self, _EMBED, alg)

    def __call__(self, mx: Rename, fresh) -> OpenTerm:
        below = self.below
        index = self.index
        if below == index:
            value = fresh
        elif below > index or mx is _IDENTITY:
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


def db_to_body(d: DbTerm) -> TermBody:
    """Binder body of a closed term, usable with ``lam`` or as a raw body.

    The returned callable is the body of the outermost binder: given the
    (ignored) outer rename and the outermost variable's denotation, it
    builds the rest of the chain.
    """
    k, i = _unchain_closed(d)
    return _binder(k - 1, i, None)


def db_to_hoas(d: DbTerm) -> Term:
    """Closed first-order term to the higher-order encoding.

    Round-trips: converting the result back to de Bruijn form yields ``d``.
    """
    # The outermost binder is its own ``lam`` node.
    t = _new(Term)
    t.run = db_to_body(d).interpret
    return t


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
    seeds. ``max_depth`` is read with ``operator.index``, as ``Var`` reads
    an index.
    """
    try:
        max_depth = operator.index(max_depth)
    except TypeError:
        raise TypeError(f"a depth bound is an integer, not {reprlib.repr(max_depth)}") from None
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    draw0, state = splitmix64(seed & _MASK64)
    draw1, _ = splitmix64(state)
    k = 1 + draw0 % max_depth
    return _chain(k, draw1 % k)


def format_db(d: DbTerm) -> str:
    """Canonical text form, e.g. ``Lam (Lam (Var 1))``.

    A negative index, which ``Var`` takes, has no text form: ``parse_db``
    reads none, so it raises ``ValueError``.
    """
    k, i = _unchain(d)
    if i < 0:
        raise ValueError(f"a negative de Bruijn index has no text form: {i}")
    return "Lam (" * k + f"Var {i}" + ")" * k


def render_named(t: NamedTerm) -> str:
    """Named term back to source syntax, one space after each backslash."""
    return _binder_text(t.binders) + t.occurrence


# Each syntax is one match of possessive repeats, which keep no backtracking
# state per binder: a run of binders (named) or of ``Lam`` markers, each
# with the whitespace and ``(`` after it (de Bruijn), then the occurrence or
# as much of a binder or ``Var`` as there is. The match always succeeds;
# the text is a term when the occurrence matched and the match reached the
# end, and otherwise the error is placed where the match ended. A word ends
# where no character can continue it: ``Var_`` is ``Var``, then an
# unexpected ``_``.
_IDENT = r"[A-Za-z][A-Za-z0-9_]*+"
_NAMED = re.compile(
    rf"((?>\s*+[\\λ]\s*+{_IDENT}\s*+\.)*+)\s*+(?:({_IDENT})\s*+|([\\λ])\s*+(?:({_IDENT})\s*+)?)?"
)
_NAME = re.compile(_IDENT)
_DB = re.compile(r"([\s(]*+(?:Lam(?![^\W_])[\s(]*+)*+)(?:Var(?![^\W_])\s*+(?:(\d++)[\s)]*+)?)?")
# Every token of each syntax, and whitespace; the error path compiles these.
_NAMED_LEXICON = rf"(?:[\s\\λ.]++|{_IDENT})*+"
_DB_LEXICON = r"(?:[\s()]++|\d++|(?:Lam|Var)(?![^\W_]))*+"
# Binder-run characters past which parse_named lists the names a chunk of
# about this many characters at a time, instead of all at once.
_LISTED_RUN = 4096


def _error_at(text: str, pos: int, message: str) -> ParseError:
    column = pos - text.rfind("\n", 0, pos)
    return ParseError(message, text.count("\n", 0, pos) + 1, column)


def _syntax_error(text: str, lexicon: str, pos: int, message: str) -> ParseError:
    """``message`` at ``pos``, unless some character of ``text`` starts no
    token of ``lexicon``: the first such character outranks any syntax error."""
    bad = re.compile(lexicon).match(text).end()
    if bad == len(text):
        return _error_at(text, pos, message)
    word = re.compile(r"[^\W_]+|.", re.S).match(text, bad).group()
    return _error_at(text, bad, f"unexpected {word!r}")


def parse_db(text: str) -> DbTerm:
    """Parse the de Bruijn text format; whitespace between tokens is free."""
    # format_db's spelling, "Lam (" * k + "Var " + digits + ")" * k, by str
    # methods, with any whitespace around it, as a saved line has. "Lam ("
    # cannot overlap itself, so k of them in the first 5 * k characters are
    # the whole prefix; then the line's k closing parens are its last k
    # characters. At most 18 digits: a longer index takes the match, which
    # reports one too long for int().
    line = text.strip()
    k = line.count(")")
    start, stop = 5 * k + 4, len(line) - k
    if stop - start <= 18 and line.startswith("Var ", 5 * k) and line.count("Lam (", 0, 5 * k) == k:
        digits = line[start:stop]
        if digits.isascii() and digits.isdigit():
            return _chain(k, int(digits))
    # Chains only: a run of Lam and ( markers, one Var and its index, then
    # as many closing parens as the run opened.
    match = _DB.match(text)
    markers, end = match.end(1), match.end()

    def fail(pos, message):
        raise _syntax_error(text, _DB_LEXICON, pos, message)

    digits = match.group(2)
    if digits is None:  # the run stopped at no Var, or at one with no index
        fail(end, "expected an index after Var" if end > markers else "expected Lam, Var or (")
    # Leading zeros, in any script, do not count towards int()'s limit on
    # digits. The match holds decimal digits only, so each reads as one int.
    if not digits.isascii():
        digits = digits.translate({ord(ch): str(int(ch)) for ch in set(digits)})
    digits = digits.lstrip("0") or "0"
    try:
        index = int(digits)
    except ValueError:  # more digits than int() converts
        fail(match.start(2), f"index too long: {len(digits)} digits")
    opens = text.count("(", 0, markers)
    closers = text.count(")", match.end(2), end)
    if closers < opens:
        fail(end, "expected )")
    if closers > opens:
        extra = next(islice(re.compile(r"\)").finditer(text, match.end(2)), opens, None))
        fail(extra.start(), "trailing input after term")
    if end < len(text):
        fail(end, "trailing input after term")
    return _chain(text.count("Lam", 0, markers), index)


def parse_named(text: str) -> NamedTerm:
    """Parse named syntax into a named term, or raise ParseError."""
    match = _NAMED.match(text)
    end = match.end()
    if match.start(2) < 0 or end < len(text):
        if match.start(2) >= 0:
            message = "trailing input after term"
        elif match.start(3) < 0:  # no binder after the run
            message = "expected a variable or a binder"
        elif match.start(4) < 0:  # a binder with no name
            message = "expected an identifier after the binder"
        else:
            message = "expected '.' after the bound name"
        raise _syntax_error(text, _NAMED_LEXICON, end, message)
    # A name list costs 8 bytes a name on top of the names, so a long run
    # is listed a chunk at a time and streamed into the tuple. A short one,
    # the common case, is copied from one list: a tuple made at its exact
    # size is one CPython's per-size free lists recycle.
    run = match.end(1)
    if run < _LISTED_RUN:
        binders = tuple(_names(text, 0, run))
    else:
        binders = tuple(chain.from_iterable(_chunked_names(text, run)))
    return _named(binders, match.group(2))


def _names(text: str, start: int, end: int) -> list[str]:
    """The names of the binders in ``text[start:end]``, which ``_NAMED`` matched.

    Matched binder text holds only binder symbols, ``.``, names and what
    ``\\s`` matches, which is what ``str.split`` splits at.
    """
    return text[start:end].replace("\\", " ").replace("λ", " ").replace(".", " ").split()


def _chunked_names(text: str, run: int) -> Iterator[list[str]]:
    """The names of the binder run ``text[:run]``, listed a chunk at a time.

    A chunk is about ``_LISTED_RUN`` characters and ends just after a
    binder's ``.``, so no name is split between two chunks.
    """
    pos = 0
    while pos < run:
        end = text.find(".", pos + _LISTED_RUN, run) + 1 or run
        yield _names(text, pos, end)
        pos = end
