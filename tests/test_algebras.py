import copy
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkelam import (
    DEFAULT_MAX_NESTING,
    Algebra,
    Lam,
    Var,
    db_to_hoas,
    fold,
    format_db,
    lam_alg,
    oracle_print,
    oracle_size,
    print_alg,
    print_term,
    run_guarded,
    size,
    size_alg,
    to_debruijn,
    to_debruijn_alg,
)
from kripkelam.algebras import NameStream, names

from helpers import chain, term_x_x, term_xy_x, term_xy_y


# ---------------------------------------------------------------- names


def test_name_stream_yields_indexed_names():
    s = names(1)
    assert s.head == "x1"
    assert s.rest.head == "x2"
    assert s.rest.rest.head == "x3"


def test_name_stream_from_arbitrary_start():
    assert names(12).head == "x12"
    assert NameStream(7).rest.head == "x8"


def test_name_streams_are_immutable_values():
    s = names(1)
    assert s == NameStream(1) == NameStream() and s != NameStream(2) and s != 1
    assert hash(s) == hash(NameStream(1)) and s.rest == NameStream(2)
    assert repr(s) == "NameStream(start=1)" and repr(NameStream(7).rest) == "NameStream(start=8)"
    for twin in (copy.copy(s.rest), copy.deepcopy(s.rest), pickle.loads(pickle.dumps(s.rest))):
        assert twin == NameStream(2) and type(twin) is NameStream
    with pytest.raises(AttributeError):
        s.start = 2
    with pytest.raises(AttributeError):
        del s.start
    assert s.start == 1


# ---------------------------------------------------------------- size


def test_size_of_running_example():
    assert fold(size_alg(), term_xy_x()) == 3


def test_size_of_identity():
    assert size(term_x_x()) == 2


def test_size_counts_each_binder_and_occurrence():
    # three binders, one occurrence: derived by first-order node count
    t = db_to_hoas(chain(3, 1))
    assert size(t) == 4


def test_size_lower_bound_is_two():
    for k in range(1, 12):
        for i in range(k):
            assert size(db_to_hoas(chain(k, i))) >= 2


# ---------------------------------------------------------------- print


def test_print_running_example():
    assert print_term(term_xy_x()) == "\\ x1. \\ x2. x1"


def test_print_identity():
    assert print_term(term_x_x()) == "\\ x1. x1"


def test_print_three_binders_innermost():
    t = db_to_hoas(chain(3, 0))
    assert print_term(t) == "\\ x1. \\ x2. \\ x3. x3"


def test_print_has_no_trailing_newline():
    assert not print_term(term_xy_x()).endswith("\n")


def test_print_alg_variable_denotation_discards_its_stream():
    # folding gives a renderer; the stream argument only names binders
    renderer = fold(print_alg(), term_xy_y())
    assert renderer(names(5)) == "\\ x5. \\ x6. x6"


def test_print_is_pure():
    t = term_xy_x()
    assert print_term(t) == print_term(t)


# ---------------------------------------------------------------- de Bruijn


def test_to_debruijn_running_example():
    assert fold(to_debruijn_alg(), term_xy_x())(1) == Lam(Lam(Var(1)))


def test_to_debruijn_identity():
    assert fold(to_debruijn_alg(), term_x_x())(1) == Lam(Var(0))


def test_to_debruijn_inner_occurrence():
    assert fold(to_debruijn_alg(), term_xy_y())(1) == Lam(Lam(Var(0)))


def test_to_debruijn_entry_point_starts_at_depth_one():
    assert to_debruijn(term_xy_x()) == Lam(Lam(Var(1)))


def test_place_denotation_applied_at_depth():
    # a variable denotation planted at depth 3 refers two binders out
    from kripkelam import place

    denotation = lambda n: Var(n - 2)  # noqa: E731
    carrier = place(denotation).interpret(to_debruijn_alg())
    assert carrier(3) == Var(1)


def test_to_debruijn_output_is_well_scoped():
    for k in range(1, 10):
        for i in range(k):
            d = to_debruijn(db_to_hoas(chain(k, i)))
            levels = 0
            node = d
            while isinstance(node, Lam):
                levels += 1
                node = node.body
            assert 0 <= node.index < levels


# ------------------------------------------------------- chain properties


def test_chain_terms_exhaustively_against_oracles():
    # every closed chain with up to 32 binders
    for k in range(1, 33):
        for i in range(k):
            d = chain(k, i)
            t = db_to_hoas(d)
            assert size(t) == k + 1
            assert size(t) == oracle_size(d)
            assert print_term(t) == oracle_print(d)
            assert to_debruijn(t) == d


def test_chain_print_shape():
    # binder level i is named x{i}; the occurrence at index i names x{k-i}
    assert print_term(db_to_hoas(chain(4, 2))) == "\\ x1. \\ x2. \\ x3. \\ x4. x2"


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=48).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=k - 1))
))
def test_random_chains_agree_with_oracles(ki):
    k, i = ki
    d = chain(k, i)
    t = db_to_hoas(d)
    assert size(t) == oracle_size(d)
    assert print_term(t) == oracle_print(d)
    assert to_debruijn(t) == d



@pytest.mark.parametrize(
    "index", [0, DEFAULT_MAX_NESTING // 2, DEFAULT_MAX_NESTING - 1]
)
def test_chains_at_the_guard_limit_agree_with_oracles(index):
    # Compared as ints and strings: == on a Lam chain this deep recurses
    # once per binder.
    d = chain(DEFAULT_MAX_NESTING, index)
    t = db_to_hoas(d)
    assert size(t) == oracle_size(d)
    assert print_term(t) == oracle_print(d)
    assert format_db(to_debruijn(t)) == format_db(d)
    assert size(fold(lam_alg(), t)) == oracle_size(d)


@pytest.mark.parametrize(
    "alg, apply, per_binder",
    [
        (size_alg(), lambda v: v, 1),
        (print_alg(), lambda v: v(names(1)), 4),
        (to_debruijn_alg(), lambda v: v(1), 3),
    ],
    ids=["size", "print", "debruijn"],
)
def test_a_fold_keeps_few_tracked_objects_alive_per_binder(alg, apply, per_binder):
    # What a fold allocates for a binder stays alive until the fold returns,
    # and the cyclic GC rescans every tracked object of it. Counting the
    # live tracked objects at the 1,001st and the 2,000th binder gives the
    # cost of one binder. A lam node around a partial body, and closure
    # carriers, kept 3, 8 and 7 alive.
    k = 2_000
    binders = 0
    counts = {}

    def counting(body, embed, candidate):
        nonlocal binders
        binders += 1
        if binders in (1_001, k):
            counts[binders] = len(gc.get_objects())
        return alg.interpret_lam(body, embed, candidate)

    wrapper = Algebra(counting, name="counting")
    t = db_to_hoas(chain(k, k // 2))
    # Each binder counts twice against the guard: once for the wrapper and
    # once for the wrapped algebra.
    limit = 2 * k
    gc.disable()
    try:
        run_guarded(lambda: apply(fold(wrapper, t)), limit)
    finally:
        gc.enable()
    assert binders == k
    assert (counts[k] - counts[1_001]) / (k - 1_001) <= per_binder


# ---------------------------------------------------------------- guard


def test_entry_points_accept_max_depth():
    from kripkelam import DepthLimitError

    with pytest.raises(DepthLimitError):
        print_term(db_to_hoas(chain(50, 0)), max_depth=10)
    with pytest.raises(DepthLimitError):
        to_debruijn(db_to_hoas(chain(50, 0)), max_depth=10)
