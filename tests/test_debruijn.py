import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkelam import (
    Abs,
    Lam,
    OpenTermError,
    ParseError,
    Ref,
    UnboundVariable,
    Var,
    db_to_hoas,
    db_to_named,
    db_validate,
    fold,
    enumerate_terms,
    format_db,
    gen_term,
    named_to_db,
    oracle_print,
    oracle_size,
    parse_db,
    print_term,
    size,
    splitmix64,
    to_debruijn,
)

from helpers import RenameCounter, renamed


def chain(k, i):
    d = Var(i)
    for _ in range(k):
        d = Lam(d)
    return d


chains = st.integers(min_value=1, max_value=64).flatmap(
    lambda k: st.integers(min_value=0, max_value=k - 1).map(lambda i: chain(k, i))
)


# ---------------------------------------------------------------- validate


def test_validate_closed_identity():
    assert db_validate(Lam(Var(0)), 0)


def test_validate_rejects_unbound_index():
    assert not db_validate(Var(0), 0)
    assert not db_validate(Lam(Var(1)), 0)
    assert not db_validate(Lam(Var(-1)), 0)


def test_validate_running_example_is_closed():
    assert db_validate(Lam(Lam(Var(1))), 0)


def test_validate_respects_ambient_depth():
    assert db_validate(Var(0), 1)
    assert db_validate(Lam(Var(1)), 1)
    assert not db_validate(Lam(Var(2)), 1)


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


# ---------------------------------------------------------------- generator


def test_splitmix64_matches_independent_arithmetic():
    # same algorithm evaluated with numpy's wrapping uint64 arithmetic
    def reference(state):
        state = np.uint64(state) + np.uint64(0x9E3779B97F4A7C15)
        z = state
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return int(z ^ (z >> np.uint64(31))), int(state)

    old = np.seterr(over="ignore")
    try:
        state = 0
        ref_state = 0
        for _ in range(500):
            out, state = splitmix64(state)
            ref_out, ref_state = reference(ref_state)
            assert out == ref_out
            assert state == ref_state
    finally:
        np.seterr(**old)


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
        assert db_validate(gen_term(seed, 17), 0)


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
