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
it makes the outermost binder of the converted term, a chain binder, and
each chain binder makes the next when its body is called. The chain binder
and the chain loop that skips a chain of them live in
:mod:`kripkelam.encoding`, beside the binder guard the loop charges.

De Bruijn convention: indices are 0-based and count binders between an
occurrence and its binder, innermost binder = 0.

Any whitespace may separate tokens. De Bruijn text reads
``Lam (Lam (Var 1))``, parentheses optional, and is recognised by one
regular-expression match whose repeats are possessive, so reading a term
builds no token list and the match keeps no state per binder.
:func:`format_db`'s own spelling, with an index of at most 18 decimal
digits, skips the match: ``str.find`` places its one ``V``, ``startswith``
compares its ``Lam (`` and ``)`` runs a block of 1,024 binders at a time,
and ``str.count`` counts the rest, so nothing is built per binder. Named
text is ``('\\' | 'λ') ident '.' term | ident`` with
``ident := [A-Za-z][A-Za-z0-9_]*``, and is read by ``str`` methods: the
binder run ends at the last ``.``, and the rest, stripped, is the
occurrence. The run is read a chunk at a time: whole if it is shorter than
8,192 characters, and otherwise in chunks of about that many, each ending
just after a binder's ``.``. In a chunk each ``λ`` is read as ``\\``; ``str.split`` lists its names, once
``\\`` and ``.`` are read as spaces, and ``str.translate`` and
``str.count`` check that it is all binders. The names are streamed into the
term, so neither a copy of the whole text nor a list of every name is held
beside them. A text that is no term raises :class:`ParseError` at a 1-based
line and column, placed by one match of its syntax's pattern, which for
named text only this error path compiles: at the first character that
starts no token, anywhere in the text, or else at one of the first tokens
after the binder run or among the closing parentheses.

The canonical names ``x1``, ``x2``, ... come from one table that grows on
demand to at most ``DEFAULT_MAX_NESTING`` names. Beside the names it holds
their binder text, ``\\ x1. \\ x2. ...``, and it grows both in one step;
where each binder's text ends in it is computed. :func:`db_to_named` slices
its binder names from it. The binder text of x{s} to x{l}, which
``print_term`` and the print carrier give, and of the names
:func:`db_to_named` gives, which :func:`render_named` writes, is sliced from
its text. A name past the table is formatted per call, and any other names'
text is joined in one ``str.join``. The oracles do not use the table.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from operator import attrgetter
from typing import Iterator

from .encoding import DEFAULT_MAX_NESTING, Term, TermBody, _at_least, _binder, _integer, _new

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

    ``index`` may be any integer, and a ``bool`` counts as its ``int``.
    Anything else raises ``TypeError`` naming it.
    """

    __slots__ = ()

    def __new__(cls, index: int):
        return _make(Var, 0, _integer(index, "a de Bruijn index is an integer"))


class Lam(DbTerm):
    """A binder node."""

    __slots__ = ()

    # Each builds its node in place, in one Python call: code that builds or
    # walks a chain one binder at a time calls them once per binder.
    def __new__(cls, body: DbTerm):
        if not isinstance(body, DbTerm):
            raise TypeError(f"not a de Bruijn term: {body!r}")
        t = _new(Lam)
        t._binders = body._binders + 1
        t._occurrence = body._occurrence
        return t

    @property
    def body(self) -> DbTerm:
        t = _new(Lam if self._binders > 1 else Var)
        t._binders = self._binders - 1
        t._occurrence = self._occurrence
        return t


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
    if k <= DEFAULT_MAX_NESTING:
        return _named(_table(k)[0][:k], f"x{k - i}")
    return _named(tuple([f"x{n}" for n in range(1, k + 1)]), f"x{k - i}")


# The canonical-name table: names, entry n being x{n + 1}, and the binder
# text "\\ x1. \\ x2. ..." of those names. It grows by doubling up to
# DEFAULT_MAX_NESTING names, and growing rebinds both as one tuple, so a
# thread that reads it during another's growth still reads a table whose
# text fits its names.
_CANONICAL: tuple[tuple[str, ...], str] = ((), "")


def _table(last: int) -> tuple[tuple[str, ...], str]:
    """The canonical-name table, grown first if it holds fewer than ``last`` names."""
    global _CANONICAL
    table = _CANONICAL
    names, text = table
    if len(names) < last:
        size = min(max(2 * len(names), last), DEFAULT_MAX_NESTING)
        more = [f"x{n}" for n in range(len(names) + 1, size + 1)]
        table = _CANONICAL = (names + tuple(more), text + "\\ " + ". \\ ".join(more) + ". ")
    return table


def _canonical_text(start: int, last: int) -> str:
    """The text of binders named x{start} to x{last}, outermost first: a
    slice of the table's text where it can hold them, read in place once it
    holds ``last`` names and grown first otherwise.

    The binder text of x{m} is 5 characters and m's digits, and the m up to
    n have ``(n + 1)d - (10**d - 1) / 9`` digits in all, d being the digits
    of n: so the first n binders' text ends at 5n plus that.
    """
    if 1 <= start and last <= DEFAULT_MAX_NESTING:
        n = start - 1
        d, e = len(str(n)), len(str(last))
        begin = 5 * n + (n + 1) * d - (10**d - 1) // 9
        table = _CANONICAL
        if len(table[0]) < last:
            table = _table(last)
        return table[1][begin : 5 * last + (last + 1) * e - (10**e - 1) // 9]
    return "".join([f"\\ x{n}. " for n in range(start, last + 1)])


def _binder_text(binders: tuple[str, ...]) -> str:
    """The binder prefixes ``\\ name. `` of ``binders``, outermost first.

    The first ``k`` canonical names, which :func:`db_to_named` gives, are a
    slice of the table's text; any other names are joined.
    """
    names = _CANONICAL[0]
    k = len(binders)
    if binders == names[:k]:
        return _canonical_text(1, k)
    return "\\ " + ". \\ ".join(binders) + ". "


def named_to_db(t: NamedTerm) -> DbTerm:
    """Named form to de Bruijn; the nearest enclosing binder wins on shadowing."""
    if not isinstance(t, NamedTerm):
        raise TypeError(f"not a named term: {t!r}")
    try:
        return _chain(len(t.binders), t.binders[::-1].index(t.occurrence))
    except ValueError:
        raise UnboundVariable(t.occurrence) from None


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

    Yields exactly ``max_depth * (max_depth + 1) // 2`` terms. The bound is
    read and checked at the call, not when the terms are first asked for.
    """
    max_depth = _at_least(_integer(max_depth, "a depth bound is an integer"), "max_depth", 1)
    return (_chain(k, i) for k in range(1, max_depth + 1) for i in range(k))


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
    seeds. ``seed`` may be any integer and ``max_depth`` any positive one;
    a ``bool`` counts as its ``int``, and anything else raises
    ``TypeError`` naming it.
    """
    seed = _integer(seed, "a seed is an integer")
    max_depth = _at_least(_integer(max_depth, "a depth bound is an integer"), "max_depth", 1)
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
_NAMED = rf"((?>\s*+[\\λ]\s*+{_IDENT}\s*+\.)*+)\s*+(?:({_IDENT})\s*+|([\\λ])\s*+(?:({_IDENT})\s*+)?)?"
# The skeleton of ASCII binder text: whitespace deleted, letters read as
# "a", digits and "_" as "0", "\\" and "." kept, and any other character
# read as "!". Characters past ASCII are kept.
_SKELETON = str.maketrans(
    {
        ch: None if ch.isspace() else "a" if ch.isalpha() else "0" if ch.isalnum() or ch == "_" else "!"
        for ch in map(chr, range(128))
    }
    | {"\\": "\\", ".": "."}
)
_NAME = re.compile(_IDENT)
_DB = re.compile(r"([\s(]*+(?:Lam(?![^\W_])[\s(]*+)*+)(?:Var(?![^\W_])\s*+(?:(\d++)[\s)]*+)?)?")
# Every token of each syntax, and whitespace; the error path compiles these
# and _NAMED.
_NAMED_LEXICON = rf"(?:[\s\\λ.]++|{_IDENT})*+"
_DB_LEXICON = r"(?:[\s()]++|\d++|(?:Lam|Var)(?![^\W_]))*+"
# Binder-run characters past which parse_named lists the names a chunk of
# about this many characters at a time, instead of all at once. Each chunk
# has a fixed cost, and so has streaming the chunks' names, so a 1,000-binder
# run is read whole; a chunk's copy and names list take about 26 KB beyond
# the names at 10,000 binders.
_LISTED_RUN = 8192
# format_db's binder and closing-paren runs, compared a block of this many
# binders at a time.
_BLOCK = 1024
_LAM_BLOCK = "Lam (" * _BLOCK
_CLOSER_BLOCK = ")" * _BLOCK


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
    # methods, with any whitespace around it, as a saved line has. Its one V
    # is at 5 * k, and its index runs up to its k closing parens. "Lam ("
    # cannot overlap itself, so k of them in the first 5 * k characters are
    # the whole prefix. Runs of a block or more are compared a block at a
    # time, so no pass counts the whole line and nothing is built per
    # binder; shorter ones are counted here, since a call to _in_blocks
    # would add about a fifth to a short text's read. At most 18 digits: a
    # longer index takes the match, which reports one too long for int().
    # Decimal digits of any script read as int() reads them, which is how
    # the match reads them too.
    line = text.strip()
    at = line.find("V")
    k = at // 5
    start, stop = at + 4, len(line) - k
    if (
        at == 5 * k
        and stop - start <= 18
        and line.startswith("Var ", at)
        and (line.count("Lam (", 0, at) == line.count(")", stop) == k if k < _BLOCK else _in_blocks(line, stop, k))
    ):
        digits = line[start:stop]
        if digits.isdecimal():
            # Built in place: a call to _chain is about 5% of a short read.
            t = _new(Lam if k else Var)
            t._binders = k
            t._occurrence = int(digits)
            return t
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


def _in_blocks(line: str, stop: int, k: int) -> bool:
    """Whether ``line`` opens with ``"Lam (" * k`` and holds ``")" * k`` from
    ``stop`` on: the first ``k % _BLOCK`` of each run counted, then the
    rest compared a block at a time. A run shorter than a block is counted
    whole, as ``parse_db`` does itself."""
    rest = k % _BLOCK
    return line.count("Lam (", 0, 5 * rest) == line.count(")", stop, stop + rest) == rest and all(
        line.startswith(_LAM_BLOCK, 5 * j) and line.startswith(_CLOSER_BLOCK, stop + j) for j in range(rest, k, _BLOCK)
    )


def parse_named(text: str) -> NamedTerm:
    """Parse named syntax into a named term, or raise ParseError."""
    # In a term the binder run ends at the last '.', and the rest is the
    # occurrence. A text that is no term fails here or in a chunk of the
    # run, and _named_error places its error. A name list costs 8 bytes a
    # name on top of the names, so a long run is listed a chunk at a time
    # and streamed into the tuple. A short one, the common case, is copied
    # from one list: a tuple made at its exact size is one CPython's
    # per-size free lists recycle.
    run = text.rfind(".") + 1
    occurrence = text[run:].strip()
    if _NAME.fullmatch(occurrence) is None:
        raise _named_error(text)
    if run < _LISTED_RUN:
        binders = tuple(_names(text, 0, run))
    else:
        binders = tuple(chain.from_iterable(_chunked_names(text, run)))
    return _named(binders, occurrence)


def _named_error(text: str) -> ParseError:
    """The error of a text that is no named term, placed by one ``_NAMED`` match."""
    match = re.compile(_NAMED).match(text)
    if match.start(2) >= 0:
        message = "trailing input after term"
    elif match.start(3) < 0:  # no binder after the run
        message = "expected a variable or a binder"
    elif match.start(4) < 0:  # a binder with no name
        message = "expected an identifier after the binder"
    else:
        message = "expected '.' after the bound name"
    return _syntax_error(text, _NAMED_LEXICON, match.end(), message)


def _names(text: str, start: int, end: int) -> list[str]:
    """The names of the binders that are all of ``text[start:end]``, which
    is empty or ends with a ``.``; or else the ParseError of ``text``.

    ``λ`` is read as ``\\``, one character for one, and in a chunk that is
    then not ASCII each whitespace run as one space, which leaves binders
    binders. The names are what ``str.split`` leaves once ``\\`` and ``.``
    are read as spaces too. The chunk is ``n`` binders exactly when its
    skeleton, after a leading ``.``, holds only ``\\``, ``.``, ``a`` and
    ``0``, ``n`` of ``.\\a`` and of ``\\``, ``n + 1`` of ``.``, and there are
    ``n`` names: then the ``n`` stretches between its dots each start with
    ``\\a`` and hold no other ``\\``, so each is a binder symbol and a name,
    and no whitespace splits that name in two, or there would be more names
    than binders.
    """
    chunk = text[start:end].replace("λ", "\\")
    if not chunk.isascii():
        chunk = " ".join(chunk.split())
    names = chunk.replace("\\", " ").replace(".", " ").split()
    skeleton = "." + chunk.translate(_SKELETON)
    if (
        skeleton.isascii()
        and "!" not in skeleton
        and skeleton.count(".\\a") == skeleton.count("\\") == skeleton.count(".") - 1 == len(names)
    ):
        return names
    raise _named_error(text)


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
