import copy
import pickle
import re
import sys
import threading
import tracemalloc
from functools import partial
from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkelam import (
    DEFAULT_MAX_NESTING,
    Abs,
    Lam,
    OpenTermError,
    ParseError,
    Ref,
    UnboundVariable,
    Var,
    db_to_hoas,
    db_to_named,
    fold,
    enumerate_terms,
    format_db,
    gen_term,
    named_to_db,
    names,
    oracle_print,
    oracle_size,
    parse_db,
    print_alg,
    print_term,
    run_guarded,
    size,
    size_alg,
    splitmix64,
    to_debruijn,
    to_debruijn_alg,
)
from kripkelam import debruijn
from kripkelam.debruijn import _LISTED_RUN, parse_named, render_named

from helpers import (
    RenameCounter,
    chain,
    check_name_table,
    empty_name_table,
    reference_parse_db,
    reference_parse_named,
    reference_splitmix64,
    renamed,
    run_fresh,
)
from test_algebras import _profiled


chains = st.integers(min_value=1, max_value=64).flatmap(
    lambda k: st.integers(min_value=0, max_value=k - 1).map(lambda i: chain(k, i))
)


# ---------------------------------------------------------------- oracles


def test_oracle_size_values():
    assert oracle_size(Lam(Lam(Var(1)))) == 3
    assert oracle_size(Lam(Var(0))) == 2
    assert oracle_size(Lam(Lam(Lam(Var(0))))) == 4


def test_oracle_print_values():
    assert oracle_print(Lam(Lam(Var(1)))) == "\\ x1. \\ x2. x1"
    assert oracle_print(Lam(Var(0))) == "\\ x1. x1"
    assert oracle_print(Lam(Lam(Var(0)))) == "\\ x1. \\ x2. x2"


def test_oracle_print_rejects_open_terms():
    with pytest.raises(OpenTermError):
        oracle_print(Lam(Var(3)))


# ---------------------------------------------------------------- hoas bridge


def test_db_to_hoas_prints_like_oracle():
    assert print_term(db_to_hoas(Lam(Lam(Var(1))))) == "\\ x1. \\ x2. x1"


def test_db_to_hoas_identity_size():
    assert size(db_to_hoas(Lam(Var(0)))) == 2


def test_db_to_hoas_rejects_open_terms():
    with pytest.raises(OpenTermError):
        db_to_hoas(Var(0))
    with pytest.raises(OpenTermError):
        db_to_hoas(Lam(Var(1)))


def test_roundtrip_on_all_chains_to_depth_32():
    for d in enumerate_terms(32):
        assert to_debruijn(db_to_hoas(d)) == d



def test_db_to_hoas_renames_only_the_occurrence():
    # The occurrence names binder k - i, and its denotation is renamed once
    # by each of the i binders inside it. No other binder's denotation is
    # renamed at all, so the rename runs exactly i times, not about k*k/2.
    for k in range(1, 33):
        for i in range(k):
            counter = RenameCounter()
            assert fold(counter.alg, db_to_hoas(chain(k, i))) == renamed(("var", k - i), i)
            assert counter.applies == i

@settings(max_examples=60, deadline=None)
@given(chains)
def test_roundtrip_on_random_chains(d):
    assert to_debruijn(db_to_hoas(d)) == d


# ---------------------------------------------------------------- named


def test_named_to_db_running_example():
    t = Abs("x", Abs("y", Ref("x")))
    assert named_to_db(t) == Lam(Lam(Var(1)))


def test_named_to_db_identity():
    assert named_to_db(Abs("x", Ref("x"))) == Lam(Var(0))


def test_named_to_db_unbound_name():
    with pytest.raises(UnboundVariable) as err:
        named_to_db(Abs("x", Ref("y")))
    assert err.value.name == "y"
    assert "unbound variable y" in str(err.value)


def test_named_to_db_shadowing_picks_innermost():
    t = Abs("x", Abs("x", Ref("x")))
    assert named_to_db(t) == Lam(Lam(Var(0)))


def test_db_to_named_canonical_names():
    assert db_to_named(Lam(Lam(Var(1)))) == Abs("x1", Abs("x2", Ref("x1")))
    assert db_to_named(Lam(Var(0))) == Abs("x1", Ref("x1"))
    assert db_to_named(Lam(Lam(Lam(Var(2))))) == Abs(
        "x1", Abs("x2", Abs("x3", Ref("x1")))
    )


def test_db_to_named_rejects_open_terms():
    with pytest.raises(OpenTermError):
        db_to_named(Var(2))


def test_named_roundtrip_on_closed_chains():
    for d in enumerate_terms(24):
        assert named_to_db(db_to_named(d)) == d


def test_render_named_slices_the_table_only_for_its_names():
    # The first k canonical names, as db_to_named gives them, are rendered
    # as a slice of the canonical-name table's text; other names, even ones
    # that start or end as the table does, are joined.
    db_to_named(chain(7, 0))
    for binders in [(), ("x1",), ("x1", "x2", "x3"), ("x1", "x3"), ("x2",), ("x1", "x1"), ("x1", "x2", "y")]:
        t = Ref("x1")
        for name in reversed(binders):
            t = Abs(name, t)
        assert render_named(t) == "".join([f"\\ {name}. " for name in binders]) + "x1"


# ---------------------------------------------------------------- enumerate


def test_enumerate_depth_one():
    assert list(enumerate_terms(1)) == [Lam(Var(0))]


def test_enumerate_counts():
    assert len(list(enumerate_terms(2))) == 3
    assert len(list(enumerate_terms(10))) == 55
    assert len(list(enumerate_terms(32))) == 528


def test_enumerate_order_is_depth_then_index():
    got = list(enumerate_terms(3))
    want = [chain(1, 0), chain(2, 0), chain(2, 1), chain(3, 0), chain(3, 1), chain(3, 2)]
    assert got == want


def test_enumerate_rejects_nonpositive_depth():
    with pytest.raises(ValueError):
        list(enumerate_terms(0))


def test_enumerate_terms_checks_its_bound_at_the_call():
    # It once returned a generator, which raised only on the first next.
    for bad in (0, -5):
        with pytest.raises(ValueError, match="max_depth must be at least 1"):
            enumerate_terms(bad)
    with pytest.raises(TypeError) as err:
        enumerate_terms(2.5)
    assert str(err.value) == "a depth bound is an integer, not 2.5"


# ---------------------------------------------------------------- generator


def test_splitmix64_matches_independent_arithmetic():
    state = 0
    ref_state = 0
    for _ in range(500):
        out, state = splitmix64(state)
        ref_out, ref_state = reference_splitmix64(ref_state)
        assert out == ref_out
        assert state == ref_state


def test_splitmix64_known_values():
    # frozen anchors for cross-implementation portability
    out0, state0 = splitmix64(0)
    assert out0 == 0xE220A8397B1DCDAF
    out1, _ = splitmix64(state0)
    assert out1 == 0x6E789E6AA1B965F4


def test_gen_term_depth_one_is_forced():
    for seed in range(20):
        assert gen_term(seed, 1) == Lam(Var(0))


def test_gen_term_is_deterministic():
    assert gen_term(42, 8) == gen_term(42, 8)


def test_gen_term_always_closed():
    for seed in range(200):
        t = gen_term(seed, 17)
        assert 0 <= t.index < t.binders


def test_gen_term_covers_depth_range():
    depths = set()
    for seed in range(300):
        d = gen_term(seed, 5)
        k = 0
        while isinstance(d, Lam):
            k += 1
            d = d.body
        depths.add(k)
    assert depths == {1, 2, 3, 4, 5}


def test_gen_term_rejects_nonpositive_depth():
    with pytest.raises(ValueError):
        gen_term(1, 0)


@pytest.mark.parametrize("bound", [2.5, 3.0, "3", None])
def test_gen_term_rejects_a_bound_that_is_no_integer(bound):
    # gen_term(3, 2.5) once built a chain of 3.0 binders, whose repr and
    # format_db raised TypeError and whose size was 4.0.
    with pytest.raises(TypeError) as err:
        gen_term(3, bound)
    assert str(err.value) == f"a depth bound is an integer, not {bound!r}"
    # enumerate_terms(2.5) once returned a generator that raised a bare
    # TypeError from range, and gen_term(2.5, 3) one from the seed's mask.
    with pytest.raises(TypeError) as err:
        enumerate_terms(bound)
    assert str(err.value) == f"a depth bound is an integer, not {bound!r}"
    # The seed is read first, so a bad seed is named before a bad bound.
    for depth in (3, 0):
        with pytest.raises(TypeError) as err:
            gen_term(bound, depth)
        assert str(err.value) == f"a seed is an integer, not {bound!r}"


def test_a_bool_or_numpy_seed_or_depth_bound_is_its_int():
    for one, three in ((True, 3), (1, np.int64(3))):
        assert gen_term(one, three) == gen_term(1, 3)
        assert gen_term(three, one) == gen_term(3, 1)
        assert list(enumerate_terms(three)) == list(enumerate_terms(3))
        assert list(enumerate_terms(one)) == [Lam(Var(0))]
        d = gen_term(three, three)
        assert type(d.binders) is int and type(d.index) is int


# ---------------------------------------------------------------- text format


def test_format_db_canonical():
    assert format_db(Lam(Lam(Var(1)))) == "Lam (Lam (Var 1))"
    assert format_db(Lam(Var(0))) == "Lam (Var 0)"
    assert format_db(Var(3)) == "Var 3"


def test_parse_db_canonical():
    assert parse_db("Lam (Lam (Var 1))") == Lam(Lam(Var(1)))


def test_parse_db_arbitrary_whitespace():
    assert parse_db("  Lam\n(\tLam ( Var\n1 ) )  ") == Lam(Lam(Var(1)))


def test_parse_db_without_parens():
    assert parse_db("Lam Lam Var 1") == Lam(Lam(Var(1)))


def test_parse_db_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_db("Lam (Var x)")
    assert err.value.line == 1
    assert err.value.column == 10

    with pytest.raises(ParseError):
        parse_db("Lam (Var 0")
    with pytest.raises(ParseError):
        parse_db("Lam (Var 0)) ")
    with pytest.raises(ParseError):
        parse_db("Foo (Var 0)")
    with pytest.raises(ParseError):
        parse_db("")


@settings(max_examples=100, deadline=None)
@given(chains)
def test_format_parse_roundtrip(d):
    assert parse_db(format_db(d)) == d


@pytest.mark.parametrize("d", [Var(-1), Lam(Var(-1)), Lam(Lam(Var(-(10**20))))])
def test_format_db_rejects_a_negative_index(d):
    # It once wrote Lam (Var -1), which parse_db rejects at the '-'.
    with pytest.raises(ValueError, match="a negative de Bruijn index has no text form"):
        format_db(d)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=64), st.integers(min_value=-3, max_value=10**20))
def test_every_term_format_db_writes_parses_back(k, i):
    # Open and closed terms alike, with indices past the 18-digit fast path.
    d = chain(k, i)
    try:
        text = format_db(d)
    except ValueError:
        assert i < 0
    else:
        assert i >= 0 and parse_db(text) == d


# ---------------------------------------------------------------- syntax parity

# Both syntaxes place errors the same way. Every row is what the earlier
# per-syntax tokenizers gave: the parsed term, or the (line, column) of the
# ParseError.
PARSE_TABLE = [
    (parse_named, "\\é. é", (1, 2)),  # identifiers are ASCII
    (parse_named, "\\λ. λ", (1, 2)),
    (parse_named, "\\x.\n  \\y. 1", (2, 7)),
    (parse_named, "_x", (1, 1)),
    (parse_named, "\\x_.x_", Abs("x_", Ref("x_"))),
    (parse_named, "\\x. x\r\n", Abs("x", Ref("x"))),
    (parse_named, "λx.x", Abs("x", Ref("x"))),
    (parse_named, "  λ a .\n \\ b_2 . a ", Abs("a", Abs("b_2", Ref("a")))),
    (parse_named, "x", Ref("x")),
    (parse_named, "\\x. (y)", (1, 5)),
    (parse_named, "\\x.\n\\y infix", (2, 4)),
    (parse_named, "\\. x", (1, 2)),
    (parse_named, "", (1, 1)),
    (parse_named, "\\x. x y", (1, 7)),
    (parse_named, "\\x.", (1, 4)),
    (parse_named, "\\1x. x", (1, 2)),
    (parse_named, "\\x y. x", (1, 4)),
    (parse_named, "\\x.\r\n\\y.é", (2, 4)),
    (parse_named, "x\ty", (1, 3)),
    (parse_db, "Var_ 0", (1, 4)),  # _ is not part of a de Bruijn word
    (parse_db, "Lam (Var 1x)", (1, 11)),
    (parse_db, "Lam (Var é)", (1, 10)),
    (parse_db, "Lam\n (Var -1)", (2, 7)),
    (parse_db, "Lam(Var 0)", Lam(Var(0))),
    (parse_db, "Lam ( Lam Var 0 )", Lam(Lam(Var(0)))),
    (parse_db, "  Lam\n(\tLam ( Var\n1 ) )  ", Lam(Lam(Var(1)))),
    (parse_db, "Lam Lam Var 1", Lam(Lam(Var(1)))),
    (parse_db, "Var ٣", Var(3)),  # any decimal digit, as int() reads it
    (parse_db, "Lam (Var x)", (1, 10)),
    (parse_db, "Lam (Var 0", (1, 11)),
    (parse_db, "Lam (Var 0)) ", (1, 12)),
    (parse_db, "Lam (Var 0)) é", (1, 14)),  # a bad character outranks a bad parse
    (parse_db, "Foo (Var 0)", (1, 1)),
    (parse_db, "Lamx (Var 0)", (1, 1)),
    (parse_db, "", (1, 1)),
    (parse_db, "Var", (1, 4)),
    (parse_db, "(Var 0", (1, 7)),
    (parse_db, "Var 0 )", (1, 7)),
    # Whitespace beyond the ASCII space, tab and line breaks separates tokens too.
    (parse_named, "\u3000λx.\u3000x\u3000", Abs("x", Ref("x"))),
    (parse_named, "\\x.\xa0\x0bx\x0c", Abs("x", Ref("x"))),
    (parse_named, "\\x.\u3000y\u3000é", (1, 7)),
    (parse_db, "Lam\u2003(Var\x850)", Lam(Var(0))),
    (parse_db, "Var\u30000\u3000?", (1, 7)),
    # An index past int()'s 4,300-digit limit: leading zeros do not count,
    # and one int() cannot convert is a placed syntax error.
    pytest.param(parse_db, "Lam (Var " + "0" * 5000 + ")", Lam(Var(0)), id="db-5000-leading-zeros"),
    pytest.param(parse_db, "Var " + "1" * 5000, (1, 5), id="db-5000-digit-index"),
    # Zeros of every script are leading zeros.
    pytest.param(parse_db, "Lam (Var " + "٠" * 5000 + ")", Lam(Var(0)), id="db-5000-arabic-indic-zeros"),
    pytest.param(parse_db, "Var " + "٠0" * 2500 + "٣", Var(3), id="db-5000-mixed-script-zeros"),
    # format_db's spelling, and texts one edit away from it: the str-method
    # path takes the first kind, the match the rest.
    (parse_db, "Lam (Lam (Var 007))", Lam(Lam(Var(7)))),
    pytest.param(parse_db, "Lam (Var " + "9" * 18 + ")", Lam(Var(10**18 - 1)), id="db-18-digit-index"),
    pytest.param(parse_db, "Lam (Var " + "1" * 19 + ")", Lam(Var(int("1" * 19))), id="db-19-digit-index"),
    pytest.param(parse_db, "Lam (Var " + "0" * 18 + "1)", Lam(Var(1)), id="db-19-digits-leading-zeros"),
    (parse_db, "Lam (Var ٣)", Lam(Var(3))),
    (parse_db, "Lam (Var 0١)", Lam(Var(1))),
    (parse_db, " Lam (Var 0)", Lam(Var(0))),
    (parse_db, "Lam (Var 0)\n", Lam(Var(0))),
    (parse_db, "Lam (Var 0 )", Lam(Var(0))),
    (parse_db, "Lam (Lam(Var 1))", Lam(Lam(Var(1)))),
    (parse_db, "(Lam Var 0)", Lam(Var(0))),
    (parse_db, "Lam(xVar 0)", (1, 5)),
    (parse_db, "Lam((Lam (Var 0))", (1, 18)),
    (parse_db, "Lam (Var 0))", (1, 12)),
    (parse_db, "Lam (Var )", (1, 10)),
    # format_db's spelling with whitespace around it, as a saved line has,
    # and one edit away from it.
    (parse_db, " Var 5\n", Var(5)),
    (parse_db, "\u3000Lam (Var 0)\x85", Lam(Var(0))),
    (parse_db, "\x85\tLam (Lam (Var 1))\r\n", Lam(Lam(Var(1)))),
    (parse_db, "\nLam (Var 0)\u3000\u3000", Lam(Var(0))),
    (parse_db, "\u3000Lam (Var 0))\x85", (1, 13)),
    (parse_db, "\u3000Lam (Var 0\x85", (1, 13)),
]


@pytest.mark.parametrize("parse, text, expected", PARSE_TABLE)
def test_parsers_match_the_table(parse, text, expected):
    if isinstance(expected, tuple):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == expected
    else:
        assert parse(text) == expected


def test_parse_db_rejects_non_decimal_digits():
    # "²" passes str.isdigit but int() cannot read it: a syntax error, not
    # a bare ValueError from int().
    with pytest.raises(ParseError) as err:
        parse_db("Lam (Var ²)")
    assert (err.value.line, err.value.column) == (1, 10)


DEEP_NAMED_TEXT = "".join(f"\\ x{j}. " for j in range(10_000)) + "x0"
DEEP_DB_TEXT = "Lam (" * 10_000 + "Var 0" + ")" * 10_000


@pytest.mark.parametrize(
    "parse, text, column",
    [(parse_named, DEEP_NAMED_TEXT, 88892), (parse_db, DEEP_DB_TEXT, 60005)],
    ids=["named", "db"],
)
def test_placing_a_lexical_error_takes_memory_like_tokenizing(parse, text, column):
    # A bad last character on a 10,000-binder text: placing the error must
    # not hold a backtracking stack that grows with the text (it took
    # 7.4 MB when a regex over the whole token run placed it).
    bad = text[:-1] + "?"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.line, err.value.column) == (1, column)
    assert "unexpected '?'" in str(err.value)
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "parse, bad, column",
    [(parse_named, DEEP_NAMED_TEXT + " y", 88894), (parse_db, DEEP_DB_TEXT + " Var", 60007)],
    ids=["named", "db"],
)
def test_placing_a_syntax_error_takes_memory_like_tokenizing(parse, bad, column):
    # Every token of a 10,000-binder text is valid but one too many: placing
    # the error must not list every token's start on top of the tokens (that
    # peaked at 2.19 MB named, 2.25 MB de Bruijn).
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.line, err.value.column) == (1, column)
    assert "trailing input after term" in str(err.value)
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "parse, text, unparse",
    [(parse_named, DEEP_NAMED_TEXT, render_named), (parse_db, DEEP_DB_TEXT, format_db)],
    ids=["named", "db"],
)
def test_tokenizing_a_valid_text_builds_no_word_list(parse, text, unparse):
    # Both texts are already canonical. Checking that the tokens cover the
    # text once split it into a list of every word, which peaked at
    # 1.58 MB (named) and 1.44 MB (de Bruijn).
    tracemalloc.start()
    try:
        term = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unparse(term) == text
    assert peak < 1_200_000


def test_parsing_a_valid_db_text_keeps_nothing_per_binder():
    # format_db's spelling is compared a block at a time against two
    # constants, which slices and builds nothing per binder: 788 bytes in
    # all at 10,000 binders. The regex path's greedy repeat once kept a
    # backtracking frame per binder and peaked at 4.3 MB.
    term, peak = _traced(parse_db, DEEP_DB_TEXT)
    assert term == chain(10_000, 0)
    assert peak < 1024


def test_parsing_a_valid_named_text_takes_little_beyond_its_names():
    # The names are the result; building them must not also list them, as
    # findall followed by tuple() did (85 KB over the names at 10,000).
    # Nor may the text be copied whole: reading each λ as a backslash in
    # the whole of the deep workload's spelling, where every other binder
    # is a λ, copies 78,896 characters.
    for text in (DEEP_NAMED_TEXT, _named_spelling(DEFAULT_MAX_NESTING, "1")):
        term, peak = _traced(parse_named, text)
        assert term == reference_parse_named(text)
        names = sys.getsizeof(term.binders) + sum(map(sys.getsizeof, term.binders))
        assert peak - names < 64 * 1024


# What both parsers meet in the differential test below: tokens of either
# syntax, decimal digits of three scripts and one digit that is no decimal,
# whitespace beyond ASCII, and characters that start no token.
_GAPS = ["", " ", "\u3000", "\x85", "\xa0", "\x1c", "\u2028", "\r\n"]
_SOUP = ["\\", "λ", ".", "x", "y1", "a_b", "Lam", "Var", "(", ")", "0", "12", "٣", "٠", "²"]
_SOUP += [*_GAPS[1:], "_", "é", "?"]


@st.composite
def parser_inputs(draw):
    """A token soup, or a chain in either syntax with up to two tokens edited."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_SOUP), max_size=16)))
    k = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        binder = st.tuples(st.sampled_from(["\\", "λ"]), st.sampled_from(["x", "y1", "a_b"]), st.just("."))
        tokens = [token for _ in range(k) for token in draw(binder)]
        tokens.append(draw(st.sampled_from(["x", "y1"])))
    else:
        parens = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        tokens = [token for paren in parens for token in (("Lam", "(") if paren else ("Lam",))]
        tokens += ["Var", draw(st.sampled_from(["0", "12", "٣", "٠0"])), *[")"] * sum(parens)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(tokens)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit != "insert":
            del tokens[at : at + 1]
        if edit != "delete":
            tokens.insert(at, draw(st.sampled_from(_SOUP)))
    return "".join(token + draw(st.sampled_from(_GAPS)) for token in tokens)


# The two spellings the fast paths are for: format_db's, and the named one
# the deep benchmark workload writes.
def _db_spelling(k, index):
    return "Lam (" * k + "Var " + index + ")" * k


def _named_spelling(k, index):
    return "".join(f"{'λ' if j % 2 else chr(92)}v{j}. " for j in range(1, k + 1)) + f"v{index}"


_INDICES = ["0", "7", "12", "0" * 3 + "1", "9" * 18, "1" * 19, "1" * 5_000, "0" * 5_000 + "2"]


def _last_digits(text):
    """The span of the last run of ASCII digits in ``text``, or None."""
    match = re.search(r"[0-9]++(?=[^0-9]*+$)", text)
    return match and match.span()


@st.composite
def fast_path_inputs(draw):
    """Either spelling of a chain, with one or two character edits."""
    k = draw(st.integers(min_value=0, max_value=8))
    spell = draw(st.sampled_from([_db_spelling, _named_spelling]))
    text = spell(k, draw(st.sampled_from(_INDICES)))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        edit = draw(st.sampled_from(["drop", "double", "unspace", "swap", "zeros", "index", "digit", "pad"]))
        if edit in ("drop", "double", "unspace"):
            # A paren, '.' or space dropped or doubled, or the space after a
            # Lam or a binder's '.' dropped: Lam( and v1.λv2.
            if edit == "unspace":
                spots = [p + 1 for p in range(len(text) - 1) if text[p] in "m." and text[p + 1] == " "]
            else:
                char = draw(st.sampled_from([")", "(", ".", " "]))
                spots = [p for p, ch in enumerate(text) if ch == char]
            if spots:
                p = draw(st.sampled_from(spots))
                text = text[:p] + text[p] * (2 if edit == "double" else 0) + text[p + 1 :]
        elif edit == "swap":  # two neighbours swapped: the text keeps its length
            p = draw(st.integers(min_value=0, max_value=max(len(text) - 2, 0)))
            text = text[:p] + text[p + 1 : p + 2] + text[p : p + 1] + text[p + 2 :]
        elif edit == "pad":
            gap = draw(st.sampled_from(_GAPS[1:]))
            text = gap + text if draw(st.booleans()) else text + gap
        elif span := _last_digits(text):
            start, end = span
            if edit == "zeros":
                new = "0" * draw(st.sampled_from([1, 3, 17, 18])) + text[start:end]
            elif edit == "index":
                new = draw(st.sampled_from(_INDICES))
            else:  # one digit of another script, or no decimal digit at all
                at = draw(st.integers(min_value=start, max_value=end - 1))
                new = text[start:at] + draw(st.sampled_from(["٣", "٠", "߀", "²"])) + text[at + 1 : end]
            text = text[:start] + new + text[end:]
    return text


def _outcome(parse, text):
    try:
        term = parse(text)
    except ParseError as err:
        return "error", err.line, err.column, err.message
    return type(term), term


@settings(max_examples=2000, deadline=None)
@given(st.one_of(parser_inputs(), fast_path_inputs()))
def test_parsers_agree_with_the_token_walk_reference(text):
    # The same term, or the same error at the same place, as the parsers
    # that tokenized the whole text and walked the token list. parser_inputs
    # edits whole tokens, so it rarely spells a chain exactly the way the
    # str-method paths read it, or misses that by one character, as
    # fast_path_inputs does.
    for parse, reference in ((parse_db, reference_parse_db), (parse_named, reference_parse_named)):
        assert _outcome(parse, text) == _outcome(reference, text)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 1_023, 1_024, 1_025, 2_049, 4_097, DEFAULT_MAX_NESTING])
def test_format_db_text_is_read_without_the_match(monkeypatch, k):
    # Every index format_db writes in at most 18 digits takes the str-method
    # path, open terms' too, and so does the text with whitespace around
    # it: `kripkelam to-db` ends its line with a newline.
    def no_match(text):
        raise AssertionError(f"the regular-expression path read {text[:40]!r}")

    monkeypatch.setattr(debruijn, "_DB", SimpleNamespace(match=no_match))
    for i in sorted({0, 1, k // 2, k, 10**17, 10**18 - 1}):
        d = chain(k, i)
        text = format_db(d)
        for line in (text, text + "\n", "\u3000" + text + "\x85"):
            assert debruijn.parse_db(line) == d


def _block_edges(k, i):
    """``format_db(chain(k, i))``, then each text made from it by one character
    deleted, doubled or replaced by ``x`` at the edges of 1,024-binder blocks
    counted from either end of each run: at the ``L`` and the ``(`` of those
    binders, and at their closing parens counted from the index and from
    the end of the line."""
    text = format_db(chain(k, i))
    stop, r = len(text) - k, k % 1_024
    binders = {b for b in (0, 1_023, 1_024, r - 1, r, k - 1_025, k - 1_024, k - 1) if 0 <= b < k}
    spots = sorted({p for b in binders for p in (5 * b, 5 * b + 4, stop + b, len(text) - 1 - b)})
    edits = [(text[:p], text[p + 1 :], text[p]) for p in spots]
    return [text] + [head + new + tail for head, tail, ch in edits for new in ("", 2 * ch, "x")]


@pytest.mark.parametrize("k", [1_023, 1_024, 1_025, 2_048, 2_049, DEFAULT_MAX_NESTING])
def test_format_db_text_agrees_with_the_reference_at_block_edges(k):
    # parse_db compares format_db's runs a block of 1,024 binders at a time
    # and counts the rest: a block or a rest read one binder off leaves a
    # character unread, or reads one twice.
    for i in (0, k - 1):
        text = format_db(chain(k, i))
        assert _outcome(parse_db, text) == _outcome(reference_parse_db, text) == (Lam, chain(k, i))
    for text in _block_edges(k, k // 2):
        assert _outcome(parse_db, text) == _outcome(reference_parse_db, text)


def test_str_split_and_the_pattern_whitespace_agree_on_every_code_point():
    # _names lists binder names with str.split(), and parse_named reads the
    # occurrence with str.strip(), where the error path's _NAMED matches \s:
    # they must read the same characters as whitespace.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(re.findall(r"\s", every))
    assert spaces == "".join(filter(str.isspace, every))
    assert ("x" + "x".join(spaces) + "x").split() == ["x"] * (len(spaces) + 1)
    assert (spaces + "x" + spaces).strip() == "x"


def _binder_run(length, width):
    """Binder text of exactly ``length`` characters, and the names it binds.

    Names are ``width`` characters long. Binders alternate ``\\`` and
    ``λ``, with the whitespace of ``_GAPS`` before each binder and before
    each ``.``; the last binder is padded with spaces to the length.
    """
    parts, bound, size = [], [], 0
    for j in range(length):
        name = (chr(ord("a") + j % 26) + str(j) + "_" * width)[:width]
        marker = "\\λ"[j % 2]
        binder = f"{_GAPS[j % len(_GAPS)]}{marker}{name}{_GAPS[(j + 3) % len(_GAPS)]}."
        if length - size - len(binder) < width + 2:  # too little left for the last binder
            binder = " " * (length - size - width - 2) + f"{marker}{name}."
        parts.append(binder)
        bound.append(name)
        size += len(binder)
        if size == length:
            break
    return "".join(parts), bound


# Runs of about half a chunk and a chunk, and of about one and a half
# chunks and three, each of a length on either side of its round figure.
@pytest.mark.parametrize("width", [1, 300])
@pytest.mark.parametrize(
    "length",
    [n + d for n in (_LISTED_RUN // 2, _LISTED_RUN) for d in (-1, 0, 1)]
    + [3 * n + d for n in (_LISTED_RUN // 2, _LISTED_RUN) for d in (-3, 0, 3)],
)
def test_a_long_binder_run_is_read_in_chunks_that_split_no_name(length, width):
    # From _LISTED_RUN characters on, the names of a binder run are listed a
    # chunk at a time, each chunk ending just after a binder's '.': a chunk
    # cut at a fixed width would split a name in two.
    run, bound = _binder_run(length, width)
    assert len(run) == length
    for gap in _GAPS:
        term = parse_named(run + gap + bound[0])
        assert term.binders == tuple(bound) and term.occurrence == bound[0]


def _spelt(k, gap):
    """A named text of ``k`` binders, alternately ``\\`` and ``λ``, with
    ``gap`` before, between and after its tokens."""
    tokens = [token for j in range(1, k + 1) for token in ("\\λ"[j % 2], f"v{j}", ".")]
    return gap + gap.join([*tokens, f"v{k // 2}"]) + gap


def _unmade(text):
    """Texts that are no named term, made by editing ``text``: among them
    an edit in its last binder, which the last chunk of a long run holds,
    and one in its first."""
    last, first = text.rfind("."), text.find(".")
    edits = [text + " y", text + ".", "λ" + text, text[:1] + "?" + text[1:], text[: len(text) // 2] + "?"]
    if first >= 0:
        edits += [text[:last] + text[last + 1 :], text[:first] + " " + text[first + 1 :], text[:last] + "λ."]
    return edits


@pytest.mark.parametrize("k", [0, 1, 2, 7, 4_097, DEFAULT_MAX_NESTING])
def test_named_text_is_read_without_the_match(monkeypatch, k):
    # A named term is read by str methods, a chunk of its binder run at a
    # time, and one precompiled match of its occurrence: only a text that
    # is no term compiles _NAMED, which places its error. That holds for
    # both binder spellings, with any whitespace between tokens, and for
    # binder runs on either side of the length that is read in chunks.
    texts = [_spelt(k, gap) for gap in _GAPS]
    if k:
        texts.append(render_named(db_to_named(chain(k, k // 2))))
    for length in (_LISTED_RUN - 1, _LISTED_RUN, _LISTED_RUN + 1):
        run, bound = _binder_run(length, 1)
        texts += [run + gap + bound[-1] for gap in _GAPS]
    expected = [reference_parse_named(text) for text in texts]

    def no_compile(pattern, *args):
        raise AssertionError(f"parse_named compiled {pattern[:40]!r}")

    with monkeypatch.context() as patch:
        patch.setattr(debruijn, "re", SimpleNamespace(compile=no_compile))
        assert [debruijn.parse_named(text) for text in texts] == expected
    for bad in _unmade(_spelt(k, " ")) + _unmade(texts[-1]):
        assert _outcome(debruijn.parse_named, bad) == _outcome(reference_parse_named, bad)


# ---------------------------------------------------------------- deep terms


def test_deep_terms_compare_hash_and_print_at_the_default_recursion_limit():
    # A fresh process has never raised its recursion limit, so any of these
    # that recursed once per binder would fail at this depth.
    out = run_fresh(f"""
        from kripkelam import Lam, Var, db_to_named

        def chain(k, i):
            d = Var(i)
            for _ in range(k):
                d = Lam(d)
            return d

        k = {DEFAULT_MAX_NESTING}
        a, b = chain(k, 7), chain(k, 7)
        assert a == b and hash(a) == hash(b) and a != chain(k, 8)
        assert repr(a) == "Lam(" * k + "Var(7)" + ")" * k
        na, nb = db_to_named(a), db_to_named(b)
        assert na == nb and hash(na) == hash(nb) and na != db_to_named(chain(k, 8))
        assert repr(na).startswith("Abs('x1', Abs('x2', ") and repr(na).endswith("Ref('x9993')" + ")" * k)
        print("ok")
    """)
    assert out == "ok\n"


def _traced(run, t):
    """``run(t)`` and the peak memory tracemalloc saw it take, after a warm-up call."""
    run(t)
    tracemalloc.start()
    try:
        out = run(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_folding_a_deep_chain_takes_little_memory_per_binder():
    # The entry points run the applied carriers' chain loop, which keeps
    # nothing alive per binder, and so does a size_alg fold. size and
    # to_debruijn peak at under 1 KB at 1,000 and at 10,000 binders alike,
    # and the size_alg fold at 776 bytes; print_term, which joins a slice of
    # the canonical-name table, and format_db both peak at about twice their
    # text (print_term took 8.5 times its text when it joined one prefix
    # string per binder). A size_alg fold that recursed once per binder
    # peaked at 872 KB at 10,000 binders, and took 14 s traced, because
    # tracemalloc walks the whole stack on every allocation. The applied
    # carriers are also checked at 3,000 binders, where closure carriers
    # peaked at 1.99 MB for print_term and 1.54 MB for to_debruijn.
    folded_size = lambda term: fold(size_alg(), term)  # noqa: E731
    for k in (1_000, DEFAULT_MAX_NESTING):
        d = chain(k, k // 2)
        t = db_to_hoas(d)
        runs = ((size, oracle_size(d)), (folded_size, oracle_size(d)), (to_debruijn, d))
        for run, expected in runs:
            out, peak = _traced(run, t)
            assert out == expected
            assert peak < 1_500, (run, k, peak)
        text, peak = _traced(print_term, t)
        assert text == oracle_print(d)
        assert peak < 10 * len(text), (k, peak)
        text, peak = _traced(lambda term: format_db(to_debruijn(term)), t)
        assert text == format_db(d)
        assert peak < 3 * len(text), (k, peak)
    d = chain(3_000, 1_500)
    t = db_to_hoas(d)
    folds = [
        (
            lambda term: run_guarded(lambda: fold(print_alg(), term)(names(1))),
            oracle_print(d),
            1_750_000,
        ),
        (
            lambda term: format_db(run_guarded(lambda: fold(to_debruijn_alg(), term)(1))),
            format_db(d),
            1_200_000,
        ),
    ]
    for run, expected, bound in folds:
        out, peak = _traced(run, t)
        assert out == expected
        assert peak < bound, (run, peak)


def test_applying_a_carrier_at_depth_takes_little_memory():
    # An applied carrier walks the chain in a loop, so tracemalloc runs at
    # 10,000 binders. The print carrier peaks at about twice its text,
    # 0.18 MB (0.75 MB when it joined one prefix string per binder); the de
    # Bruijn carrier keeps nothing per binder. Carriers that recursed once
    # per binder peaked at 4.67 and 3.15 MB.
    d = chain(DEFAULT_MAX_NESTING, DEFAULT_MAX_NESTING // 2)
    t = db_to_hoas(d)
    text, peak = _traced(lambda term: run_guarded(lambda: fold(print_alg(), term)(names(1))), t)
    assert text == oracle_print(d)
    assert peak < 1_500_000, peak
    out, peak = _traced(lambda term: run_guarded(lambda: fold(to_debruijn_alg(), term)(1)), t)
    assert format_db(out) == format_db(d)
    assert peak < 100_000, peak


deep_chains = st.integers(min_value=1, max_value=DEFAULT_MAX_NESTING).flatmap(
    lambda k: st.integers(min_value=0, max_value=k - 1).map(lambda i: chain(k, i))
)


@settings(max_examples=40, deadline=None)
@given(deep_chains)
def test_text_roundtrips_up_to_the_guard_limit(d):
    assert parse_db(format_db(d)) == d
    assert named_to_db(parse_named(render_named(db_to_named(d)))) == d


@pytest.mark.parametrize("k", [DEFAULT_MAX_NESTING - 1, DEFAULT_MAX_NESTING, DEFAULT_MAX_NESTING + 1, 20_000])
def test_canonical_names_agree_with_the_oracle_past_the_name_table(k):
    # db_to_named slices its names from a table of at most
    # DEFAULT_MAX_NESTING names and formats any further ones per call.
    d = chain(k, k // 3)
    assert render_named(db_to_named(d)) == oracle_print(d)


def test_the_name_table_stays_correct_when_threads_grow_it_at_once(monkeypatch):
    # Each thread that grows the table rebinds its names and text as one
    # tuple, so however the threads interleave, every entry
    # n is x{n + 1}, and a reader slices a text that fits the names it read.
    # The chain past DEFAULT_MAX_NESTING is printed under a larger budget:
    # its names and text are formatted per call.
    depths = [1, 3, 40, 300, 2_000, 5_000, DEFAULT_MAX_NESTING, DEFAULT_MAX_NESTING + 5]
    chains = [chain(k, k - 1) for k in depths]
    expected = [oracle_print(d) for d in chains]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(debruijn, "_CANONICAL", empty_name_table())
            start = threading.Barrier(len(chains), timeout=60)
            texts = [None] * len(chains)
            printed = [None] * len(chains)

            def name(slot):
                d = chains[slot]
                start.wait()
                texts[slot] = render_named(db_to_named(d))
                printed[slot] = run_guarded(partial(print_term, db_to_hoas(d)), max_depth=d.binders)

            threads = [threading.Thread(target=name, args=(slot,)) for slot in range(len(chains))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert texts == expected
            assert printed == expected
            check_name_table(debruijn._CANONICAL)
    finally:
        sys.setswitchinterval(interval)


def test_terms_are_immutable():
    for t in (Var(0), Lam(Lam(Var(1))), Ref("x"), Abs("x", Ref("x"))):
        for field in ("binders", "occurrence"):
            with pytest.raises(AttributeError):
                setattr(t, field, getattr(t, field))
            with pytest.raises(AttributeError):
                delattr(t, field)
    with pytest.raises(AttributeError):
        Var(0).index = 1
    with pytest.raises(AttributeError):
        Ref("x").name = "y"


def test_terms_copy_and_pickle_as_values():
    for t in (Var(0), Lam(Lam(Var(1))), Ref("x"), Abs("x", Abs("y", Ref("x")))):
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and type(twin) is type(t)


@pytest.mark.parametrize(
    "name, error",
    [
        ("1", ValueError),
        ("", ValueError),
        ("_x", ValueError),
        ("x y", ValueError),
        ("x.", ValueError),
        ("λ", ValueError),
        ("x\n", ValueError),
        (None, TypeError),
        (5, TypeError),
        (b"x", TypeError),
    ],
)
def test_a_name_the_named_syntax_cannot_spell_is_rejected(name, error):
    with pytest.raises(error):
        Ref(name)
    with pytest.raises(error):
        Abs(name, Ref("x"))


@pytest.mark.parametrize("index", [1.0, 0.5, "0", None])
def test_a_de_bruijn_index_that_is_no_integer_is_rejected(index):
    # Var once stored any object: Lam(Lam(Var(1.0))) formatted as text
    # parse_db rejects, and printed as x1.0 or x1 depending on the path.
    with pytest.raises(TypeError) as err:
        Var(index)
    assert str(err.value) == f"a de Bruijn index is an integer, not {index!r}"


def test_a_bool_de_bruijn_index_is_its_int():
    for flag in (True, False):
        v = Var(flag)
        assert type(v.index) is int and v == Var(int(flag)) and repr(v) == f"Var({int(flag)})"
    d = Lam(Lam(Var(True)))
    assert format_db(d) == "Lam (Lam (Var 1))" and parse_db(format_db(d)) == d
    assert oracle_print(d) == print_term(db_to_hoas(d)) == render_named(db_to_named(d)) == "\\ x1. \\ x2. x1"
    v = Var(np.int64(3))
    assert type(v.index) is int and v == Var(3)


identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True)


@settings(max_examples=100)
@given(st.lists(identifiers, max_size=6), identifiers)
def test_named_terms_roundtrip_through_their_text(binders, occurrence):
    t = Ref(occurrence)
    for name in reversed(binders):
        t = Abs(name, t)
    assert parse_named(render_named(t)) == t


def test_a_lam_node_is_built_and_opened_in_one_python_call():
    # The benchmarks' set-up builds every input chain one Lam at a time.
    for d in (Var(3), Lam(Lam(Var(1)))):
        node = Lam(d)
        assert _profiled(partial(Lam, d))[0] == 1
        assert _profiled(partial(attrgetter("body"), node))[0] == 1
        assert node.body == d and type(node.body) is type(d)
    with pytest.raises(TypeError) as err:
        Lam(3)
    assert str(err.value) == "not a de Bruijn term: 3"


def test_node_views_of_stored_chains():
    d = parse_db("Lam (Lam (Var 1))")
    assert isinstance(d, Lam) and isinstance(d.body, Lam) and isinstance(d.body.body, Var)
    assert d.body.body.index == 1
    t = parse_named("\\x. \\y. x")
    assert (t.name, t.body.name, t.body.body.name) == ("x", "y", "x")
    assert isinstance(t.body.body, Ref)
    assert Lam(Var(0)) != Abs("x", Ref("x")) and Var(0) != Ref("x")
    assert (Var(0) == 0) is False and (Ref("x") == "x") is False
    with pytest.raises(TypeError, match="not a de Bruijn term"):
        format_db("x")
    with pytest.raises(TypeError, match="not a named term"):
        named_to_db(Var(0))
    with pytest.raises(TypeError):
        Lam(Ref("x"))
    with pytest.raises(TypeError):
        Abs("x", Var(0))
