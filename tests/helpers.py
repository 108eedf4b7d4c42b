"""Shared builders for the test suite."""

import os
import re
import subprocess
import sys
import textwrap
from itertools import islice
from pathlib import Path

import numpy as np

from kripkelam import (
    DEFAULT_MAX_NESTING,
    Algebra,
    DepthLimitError,
    Lam,
    Rename,
    Term,
    Var,
    body_of_skeleton,
    closed,
    db_to_hoas,
    enumerate_skeletons,
    enumerate_terms,
    fold,
    lam,
    lam_alg,
    names,
    oracle_print,
    place,
    print_alg,
    print_term,
    run_guarded,
    size,
    size_alg,
    to_debruijn,
    to_debruijn_alg,
)
from kripkelam import encoding
from kripkelam.debruijn import DbTerm, NamedTerm, ParseError, _canonical_text, _chain, _named

SRC = Path(__file__).resolve().parent.parent / "src"


def empty_name_table():
    """A canonical-name table that holds no names, as the library starts with."""
    return (), ""


def check_name_table(table):
    """Assert that the canonical-name table ``table``, which the library
    holds, fits its names, and that the offsets computed into its text do:
    entry n is x{n + 1}, the text is those names' binder text, and the
    slice for each binder alone is its text."""
    names, text = table
    assert len(names) <= DEFAULT_MAX_NESTING
    assert all(entry == f"x{n + 1}" for n, entry in enumerate(names))
    binders = [f"\\ {name}. " for name in names]
    assert text == "".join(binders)
    assert [_canonical_text(n, n) for n in range(1, len(names) + 1)] == binders


def reference_splitmix64(state: int) -> tuple[int, int]:
    """splitmix64's (output, next state), evaluated independently of the
    library with numpy's wrapping uint64 arithmetic."""
    with np.errstate(over="ignore"):
        state = np.uint64(state) + np.uint64(0x9E3779B97F4A7C15)
        z = state
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return int(z ^ (z >> np.uint64(31))), int(state)


def term_xy_x() -> Term:
    """Two binders, body is the outer variable: the running example term."""
    return closed(lambda mo, x: lam(lambda mx, y: place(mx.apply(x))))


def term_x_x() -> Term:
    """One binder, body is its own variable."""
    return closed(lambda _mo, x: place(x))


def term_xy_y() -> Term:
    """Two binders, body is the inner variable."""
    return closed(lambda mo, x: lam(lambda mx, y: place(y)))


def chain(k: int, i: int):
    """The de Bruijn chain of ``k`` binders around ``Var(i)``."""
    d = Var(i)
    for _ in range(k):
        d = Lam(d)
    return d


def deep_term(depth: int) -> Term:
    """``depth`` nested binders around the innermost variable.

    Built without an environment so folding is linear in ``depth``; used to
    exercise the nesting guard.
    """

    def level(j):
        def body(mx, fresh):
            if j == depth:
                return place(fresh)
            return lam(level(j + 1))

        return body

    return closed(level(1))


def closure_chain(k: int, i: int, leaf=place) -> Term:
    """The chain of ``k`` binders around ``Var(i)``, built from ``lam``/``place`` closures.

    The binder the occurrence names captures its fresh variable, and each
    binder inside it renames that value into its own world, as a
    ``db_to_hoas`` term does. No binder is a chain binder, so no fold or
    chain loop skips any of them: each binder's body is called, under the
    library's algebras by the chain loop's in-place step and under any
    other through ``interpret_lam``. The innermost body returns
    ``leaf(value)``, ``value`` being the variable the occurrence names.
    """
    named = k - i

    def level(j, target):
        def body(mx, fresh):
            if j < named:
                value = None
            elif j == named:
                value = fresh
            else:
                value = mx.apply(target)
            if j == k:
                return leaf(value)
            return lam(level(j + 1, value))

        return body

    return closed(level(1, None))


def _applying(value):
    """An occurrence that applies the variable ``value`` to what it is applied to."""
    return place(lambda arg: value(arg))


def check_applied_variables_agree(max_depth: int):
    """The applied carriers agree with the oracles on every closed chain up
    to ``max_depth`` binders whose occurrence applies its variable.

    Such a chain ends in no bound variable but in a function that calls
    one, so each carrier applies it, and the variable's denotation is
    called: ``print_alg``'s with the name stream that is left,
    ``to_debruijn_alg``'s with the depth reached.
    """
    for d in enumerate_terms(max_depth):
        t = closure_chain(d.binders, d.index, _applying)
        assert fold(print_alg(), t)(names(1)) == oracle_print(d)
        assert fold(to_debruijn_alg(), t)(1) == d


# What a term gives to the three entry points, the size_alg fold and both
# applied carriers.
SIX_RUNS = (
    size,
    print_term,
    to_debruijn,
    lambda t: fold(size_alg(), t),
    lambda t: fold(print_alg(), t)(names(1)),
    lambda t: fold(to_debruijn_alg(), t)(1),
)


def _outcome(run, t, budget):
    try:
        return run_guarded(lambda: run(t), budget)
    except DepthLimitError as err:
        return DepthLimitError, err.limit


def six_outcomes(t: Term, budget: int | None = None) -> list:
    """What each of ``SIX_RUNS`` gives for ``t`` under ``budget``, or the
    limit of the ``DepthLimitError`` it raises."""
    return [_outcome(run, t, budget) for run in SIX_RUNS]


def hidden(t: Term) -> Term:
    """``t`` with its outermost binder hidden: its ``run`` is no library
    binder's ``interpret``, so an entry point interprets it, as it does a
    ``lam_alg`` result or any term of the caller's own."""
    return Term(lambda alg, run=t.run: run(alg))


def _outcome_or_type_error(run, t):
    try:
        return _outcome(run, t, None)
    except TypeError as err:
        return TypeError, str(err)


def check_chains_agree_with_closures(max_depth: int) -> None:
    """Assert that ``db_to_hoas`` chains and their ``closure_chain`` twins agree.

    For every chain of ``enumerate_terms(max_depth)``, directly and folded
    through ``lam_alg``, the six runs must give the same values, and with a
    budget one binder short the same ``DepthLimitError``: the chain loop's
    skip of a chain binder against its in-place step of each closure
    binder, one at a time. The direct terms have one more twin each, their
    ``hidden`` term, which an entry point interprets where it hands the
    others' outermost binder to the chain loop.

    So does a ``body_of_skeleton`` binder as a term, for every skeleton of
    up to 3 binders (fresh, local and env leaves), with an env value that
    each run sizes or rejects: the same values, or the same ill-formed
    ``TypeError`` text, as its ``hidden`` twin.
    """
    for d in enumerate_terms(max_depth):
        k, i = d.binders, d.index
        skipped, walked = db_to_hoas(d), closure_chain(k, i)
        direct = (skipped, walked, hidden(skipped), hidden(walked))
        budgets = (None, k - 1) if k > 1 else (None,)
        for terms in (direct, (fold(lam_alg(), skipped), fold(lam_alg(), walked))):
            for budget in budgets:
                first, *rest = [six_outcomes(t, budget) for t in terms]
                assert all(outcomes == first for outcomes in rest), (d, budget)
    for skeleton in enumerate_skeletons(3):
        for env_value in (7, "env"):
            t = Term(body_of_skeleton(skeleton, env_value).interpret)
            outcomes = [[_outcome_or_type_error(run, u) for run in SIX_RUNS] for u in (t, hidden(t))]
            assert outcomes[0] == outcomes[1], (skeleton, env_value)


def check_guard_charges_k_binders(run, t: Term, k: int) -> None:
    """Assert that ``run(t)`` fits a budget of ``k`` binders and not ``k - 1``."""
    run_guarded(lambda: run(t), k)
    try:
        run_guarded(lambda: run(t), k - 1)
    except DepthLimitError as err:
        assert err.limit == k - 1
    else:
        raise AssertionError(f"a budget of {k - 1} binders ran {run!r} to the end")


def _limit_inside(thunk):
    """``thunk()`` run as a top-level guarded call, the recursion limit read
    inside that call after it, and the budget's ``units`` there, 0 unless
    the call's tripwire fired."""
    return run_guarded(lambda: (thunk(), sys.getrecursionlimit(), encoding._guard.budget.units))


def check_calls_that_nest_nothing_leave_the_limit_alone() -> None:
    """Assert that guarded calls which nest nothing never fire their
    tripwire and read the caller's recursion limit inside.

    The six runs of a 10,000-binder ``db_to_hoas`` chain, which the chain
    loop skips, and of its ``closure_chain`` twin, which it steps in place,
    and a call that folds nothing.
    """
    before = sys.getrecursionlimit()
    d = chain(10_000, 5_000)
    for t in (db_to_hoas(d), closure_chain(10_000, 5_000)):
        for run in SIX_RUNS:
            assert _limit_inside(lambda: run(t))[1:] == (before, 0), run
    assert _limit_inside(lambda: None) == (None, before, 0)


def _visiting_term(depth: int, visit) -> Term:
    """``deep_term(depth)`` whose body at binder ``j`` calls ``visit(j)`` first."""

    def level(j):
        def body(mx, fresh):
            visit(j)
            return place(fresh) if j == depth else lam(level(j + 1))

        return body

    return closed(level(1))


# An algebra that recurses once per binder: interpret, interpret_lam and it.
_RECURSING = Algebra(lambda body, embed, alg: 1 + body(Rename.identity(), 1).interpret(alg))


def check_a_deep_foreign_fold_raises_the_limit_while_it_runs() -> None:
    """Assert that a 2,000-binder fold of an algebra that recurses once per
    binder trips the guard: it runs under the raised limit, and the
    caller's limit is back after it."""
    before = sys.getrecursionlimit()
    seen = []
    try:
        value = fold(_RECURSING, _visiting_term(2_000, lambda j: j == 2_000 and seen.append(sys.getrecursionlimit())))
    except RecursionError:
        raise AssertionError("a 2,000-binder foreign fold ran out of stack") from None
    assert value == 2_001
    assert seen[0] > before
    assert sys.getrecursionlimit() == before


def check_a_limit_set_inside_a_tripped_call_stays() -> None:
    """Assert that a recursion limit set at the innermost binder of a
    2,000-binder foreign fold, which trips the guard, is still set after it."""
    before = sys.getrecursionlimit()
    seen = []

    def visit(j):
        if j == 2_000:
            seen.append(sys.getrecursionlimit() + 1)
            sys.setrecursionlimit(seen[0])

    try:
        assert fold(_RECURSING, _visiting_term(2_000, visit)) == 2_001
        assert seen[0] > before + 1 and sys.getrecursionlimit() == seen[0]
    finally:
        sys.setrecursionlimit(before)


def _stack_depth() -> int:
    """How many frames the calling thread's stack holds below this call."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def check_a_tripped_call_keeps_its_limit_near_its_stack() -> None:
    """Assert that at every binder of a 3,000-binder fold of an algebra that
    recurses once per binder, the recursion limit is at least twice the
    stack's depth there, and less than 8 times it wherever the call raised it."""
    before = sys.getrecursionlimit()
    n = 3_000
    limits = []
    innermost = []

    def visit(j):
        limits.append(sys.getrecursionlimit())
        if j == n:
            innermost.append(_stack_depth())

    assert fold(_RECURSING, _visiting_term(n, visit)) == n + 1
    assert len(limits) == n and limits[-1] > before
    for j, limit in enumerate(limits, 1):
        # Each binder out from the innermost takes interpret, interpret_lam
        # and the algebra off the stack.
        depth = innermost[0] - 3 * (n - j)
        assert 2 * depth <= limit and (limit == before or limit < 8 * depth), (j, depth, limit)
    assert sys.getrecursionlimit() == before


class Poison:
    """Algebra that records every interpretation and must stay uninvoked."""

    def __init__(self):
        self.calls = 0
        self.alg = Algebra(self._hit, name="poison")

    def _hit(self, body, embed, candidate):
        self.calls += 1
        return 0


class RenameCounter:
    """Algebra that hands every body a counting, tagging rename.

    The n-th binder interpreted gives its variable the denotation
    ``("var", n)``; the rename wraps a value as ``("renamed", value)`` and
    counts its calls. The carrier is whatever the occurrence denotes, so a
    fold shows which binder an occurrence names and how often its
    denotation was renamed on the way.
    """

    def __init__(self):
        self.applies = 0
        self.binders = 0
        self.rename = Rename(self._tag)
        self.alg = Algebra(self._interpret, name="rename-counter")

    def _tag(self, value):
        self.applies += 1
        return ("renamed", value)

    def _interpret(self, body, embed, candidate):
        self.binders += 1
        return body(self.rename, ("var", self.binders)).interpret(candidate)


def renamed(value, times: int):
    """``value`` as ``RenameCounter`` shows it after ``times`` renames."""
    for _ in range(times):
        value = ("renamed", value)
    return value


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args``, at the default recursion limit,
    with this checkout's ``src`` first on the path; capture its output."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )


def run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter (see ``run_python``); return its stdout."""
    done = run_python("-c", textwrap.dedent(script))
    assert done.returncode == 0, done.stderr
    return done.stdout


# ---------------------------------------------------------------- reference parsers

# The token-walk parsers that ``parse_db`` and ``parse_named`` replaced, kept
# as they were: each tokenizes the whole text into a list and walks it one
# token at a time. Differential tests hold the library's parsers to them,
# term for term and error for error.

# One token of each syntax. A word ends where no character can continue it:
# ``Var_`` is ``Var``, then an unexpected ``_``.
_DB_TOKEN = re.compile(r"[()]|\d+|(?:Lam|Var)(?![^\W_])")
_NAMED_TOKEN = re.compile(r"[\\λ.]|[A-Za-z][A-Za-z0-9_]*")
_SPACE = re.compile(r"\s*")
_UNEXPECTED = re.compile(r"[^\W_]+|.", re.S)


def _error_at(text: str, pos: int, message: str) -> ParseError:
    column = pos - text.rfind("\n", 0, pos)
    return ParseError(message, text.count("\n", 0, pos) + 1, column)


def _tokenize(text: str, token: re.Pattern) -> list[str]:
    """Tokens of ``text``, then ``""`` for its end; a character that starts
    no token is a ParseError, even after a token the parser would reject."""
    tokens = token.findall(text)
    # Tokens hold no whitespace, so they cover every other character
    # exactly when findall skipped nothing but whitespace. Counting the
    # ASCII spaces settles that without building anything; when they fall
    # short, the gaps may still hold only other (e.g. Unicode) whitespace.
    if sum(map(len, tokens)) + sum(map(text.count, " \n\t\r")) < len(text):
        # Find the first non-whitespace character between two tokens, or
        # after the last one, holding one match at a time.
        end = 0
        for match in token.finditer(text):
            if text[end : match.start()].strip():
                break
            end = match.end()
        end = _SPACE.match(text, end).end()
        if end < len(text):
            raise _error_at(text, end, f"unexpected {_UNEXPECTED.match(text, end).group()!r}")
    tokens.append("")
    return tokens


def _token_error(text: str, token: re.Pattern, at: int, message: str) -> ParseError:
    # Token `at` is the end-of-input sentinel when the text has no more.
    match = next(islice(token.finditer(text), at, None), None)
    return _error_at(text, match.start() if match else len(text), message)


def reference_parse_db(text: str) -> DbTerm:
    """Parse the de Bruijn text format; whitespace between tokens is free."""
    tokens = _tokenize(text, _DB_TOKEN)

    def fail(at, message):
        raise _token_error(text, _DB_TOKEN, at, message)

    # Chains only: a prefix of Lam and ( markers, one Var, then the
    # closing parens in reverse marker order.
    at = 0
    while tokens[at] in ("Lam", "("):
        at += 1
    markers = tokens[:at]
    if tokens[at] != "Var":
        fail(at, "expected Lam, Var or (")
    if not tokens[at + 1][:1].isdigit():
        fail(at + 1, "expected an index after Var")
    # Leading zeros, in any script, do not count towards int()'s limit on
    # digits. A token holds decimal digits only, so each reads as one int.
    digits = tokens[at + 1]
    if not digits.isascii():
        digits = digits.translate({ord(ch): str(int(ch)) for ch in set(digits)})
    digits = digits.lstrip("0") or "0"
    try:
        index = int(digits)
    except ValueError:  # more digits than int() converts
        fail(at + 1, f"index too long: {len(digits)} digits")
    at += 2
    for marker in reversed(markers):
        if marker == "(":
            if tokens[at] != ")":
                fail(at, "expected )")
            at += 1
    if tokens[at]:
        fail(at, "trailing input after term")
    return _chain(markers.count("Lam"), index)


_LAMBDAS = ("\\", "λ")
_NOT_IDENT = (*_LAMBDAS, ".", "")


def reference_parse_named(text: str) -> NamedTerm:
    """Parse named syntax into a named term, or raise ParseError."""
    tokens = _tokenize(text, _NAMED_TOKEN)

    def fail(at, message):
        raise _token_error(text, _NAMED_TOKEN, at, message)

    binders = []
    at = 0
    while tokens[at] in _LAMBDAS:
        if tokens[at + 1] in _NOT_IDENT:
            fail(at + 1, "expected an identifier after the binder")
        if tokens[at + 2] != ".":
            fail(at + 2, "expected '.' after the bound name")
        binders.append(tokens[at + 1])
        at += 3
    if tokens[at] in _NOT_IDENT:
        fail(at, "expected a variable or a binder")
    if tokens[at + 1]:
        fail(at + 1, "trailing input after term")
    return _named(tuple(binders), tokens[at])
