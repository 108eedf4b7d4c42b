import copy
import gc
import pickle
import reprlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkelam import (
    DEFAULT_MAX_NESTING,
    Algebra,
    DepthLimitError,
    Lam,
    Rename,
    Term,
    Var,
    closed,
    db_to_body,
    db_to_hoas,
    enumerate_terms,
    fold,
    format_db,
    identity_embed,
    lam,
    lam_alg,
    oracle_print,
    oracle_size,
    place,
    print_alg,
    print_term,
    run_guarded,
    size,
    size_alg,
    to_debruijn,
    to_debruijn_alg,
)
from kripkelam import algebras, debruijn, encoding
from kripkelam.debruijn import _canonical_text
from kripkelam.algebras import NameStream, names
from kripkelam.encoding import _Lam
from kripkelam.laws import body_of_skeleton, enumerate_skeletons

from helpers import (
    SIX_RUNS,
    Poison,
    chain,
    check_applied_variables_agree,
    check_chains_agree_with_closures,
    check_guard_charges_k_binders,
    check_name_table,
    closure_chain,
    deep_term,
    empty_name_table,
    six_outcomes,
    term_x_x,
    term_xy_x,
    term_xy_y,
)


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


@pytest.mark.parametrize("start", [1.5, "3", None, 2.0])
def test_a_name_stream_rejects_a_start_that_is_no_integer(start):
    # Read with operator.index when the stream is made, not when a carrier
    # first formats a name from it.
    with pytest.raises(TypeError) as err:
        names(start)
    assert repr(start) in str(err.value)
    with pytest.raises(TypeError):
        NameStream(start)


def test_a_name_stream_reads_a_bool_start_as_its_int():
    # As run_guarded(max_depth=True) reads its bound.
    for flag in (True, False):
        s = names(flag)
        assert type(s.start) is int and s == NameStream(int(flag))
        assert repr(s) == f"NameStream(start={int(flag)})"
    assert fold(print_alg(), db_to_hoas(chain(2, 1)))(names(True)) == "\\ x1. \\ x2. x1"
    s = names(np.int64(3))
    assert type(s.start) is int and s == NameStream(3)


def _printed_from(start, k, i):
    """The text of the chain of ``k`` binders around ``Var(i)``, names from x{start}."""
    return "".join([f"\\ x{start + j}. " for j in range(k)]) + f"x{start + k - 1 - i}"


@pytest.mark.parametrize("table", ["empty", "full"])
@pytest.mark.parametrize("start", [-2, 0, 1, 2, 9_995, DEFAULT_MAX_NESTING, DEFAULT_MAX_NESTING + 1])
def test_the_print_carrier_names_binders_from_any_start(monkeypatch, table, start):
    # Names x1 to x{DEFAULT_MAX_NESTING} come from the canonical-name table,
    # which grows on demand; any other name is formatted per call.
    monkeypatch.setattr(debruijn, "_CANONICAL", empty_name_table())
    if table == "full":
        debruijn._table(DEFAULT_MAX_NESTING)
    for k in (1, 7, 20):
        for i in sorted({0, k // 2, k - 1}):
            for t in (db_to_hoas(chain(k, i)), closure_chain(k, i)):
                assert fold(print_alg(), t)(names(start)) == _printed_from(start, k, i)
    check_name_table(debruijn._CANONICAL)


def test_a_print_carrier_ending_in_a_bound_variable_makes_no_name_stream(monkeypatch):
    # Where the chain ends in a bound variable the carrier reads its name:
    # the text is what the variable's denotation gives the stream that is
    # left, and no stream is made for it.
    values = []
    for k in (1, 7, 20):
        for i in sorted({0, k // 2, k - 1}):
            d = chain(k, i)
            for t in (db_to_hoas(d), closure_chain(k, i), fold(lam_alg(), db_to_hoas(d))):
                values.append((k, i, fold(print_alg(), t)))
    made = []

    def recording(cls):
        made.append(cls)
        return object.__new__(cls)

    monkeypatch.setattr(algebras, "_new", recording)
    for start in (-2, 1, 9_995, DEFAULT_MAX_NESTING + 1):
        for k, i, value in values:
            last = start + k - 1
            named = algebras._Name(last - i)
            assert value(names(start)) == _canonical_text(start, last) + named(names(last + 1))
    assert NameStream not in made


def test_an_occurrence_that_applies_its_variable_is_applied_by_each_carrier():
    check_applied_variables_agree(12)


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
    # A db_to_hoas chain, skipped in one step, and the same chain of
    # lam/place closures, interpreted binder by binder.
    d = chain(DEFAULT_MAX_NESTING, index)
    for t in (db_to_hoas(d), closure_chain(DEFAULT_MAX_NESTING, index)):
        for u in (t, fold(lam_alg(), t)):
            n, text, db, folded_n, folded_text, folded_db = six_outcomes(u)
            assert n == folded_n == oracle_size(d)
            assert text == folded_text == oracle_print(d)
            assert format_db(db) == format_db(folded_db) == format_db(d)


def test_skipped_chains_agree_with_chains_of_closures():
    # A db_to_hoas chain is skipped in one step on every library path; the
    # same chain built from lam/place closures has every binder interpreted.
    check_chains_agree_with_closures(40)


@pytest.mark.parametrize(
    "alg, apply, per_binder",
    [
        (size_alg(), lambda v: v, 1),
        (print_alg(), lambda v: v(names(1)), 1),
        (to_debruijn_alg(), lambda v: v(1), 1),
    ],
    ids=["size", "print", "debruijn"],
)
def test_a_fold_keeps_few_tracked_objects_alive_per_binder(alg, apply, per_binder):
    # What a fold allocates for a binder stays alive until the fold returns,
    # and the cyclic GC rescans every tracked object of it. Counting the
    # live tracked objects at the 1,001st and the 2,000th binder gives the
    # cost of one binder. A lam node around a partial body, and closure
    # carriers, kept 3, 8 and 7 alive; carriers that recursed once per
    # binder when applied kept 4 and 3 for print and debruijn. A carrier
    # that walks the chain in a loop keeps none.
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


_SIX_IDS = ["size", "print_term", "to_debruijn", "size_alg", "print_alg", "to_debruijn_alg"]


def _profiled(run) -> tuple[int, int]:
    """Python function calls entered while ``run()`` runs, and the most of
    them on the stack at once, with the GC off."""
    calls = depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal calls, depth, deepest
        if event == "call":
            calls += 1
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, deepest


def _calls_per_binder(make) -> float:
    """Python calls per binder: those of a 200-binder chain less those of a 100-binder one."""
    calls = {k: _profiled(make(k))[0] for k in (100, 200)}
    return (calls[200] - calls[100]) / 100


def _walk_of(entry):
    def make(k):
        t = db_to_hoas(chain(k, k // 2))
        return lambda: entry(t)

    return make


def _size_fold(k):
    t = db_to_hoas(chain(k, k // 2))
    return lambda: fold(size_alg(), t)


def _applied_fold(alg, apply):
    def make(k):
        t = db_to_hoas(chain(k, k // 2))
        return lambda: run_guarded(lambda: apply(fold(alg, t)))

    return make


def _on_closures(run):
    def make(k):
        t = closure_chain(k, k // 2)
        return lambda: run_guarded(lambda: run(t))

    return make


def _closure_bodies(k):
    # The bodies of closure_chain(k, k // 2) alone, each asked at the
    # identity rename as the chain loop asks it.
    top = fold(Algebra(lambda body, embed, candidate: body, name="body"), closure_chain(k, k // 2))
    identity = Rename.identity()

    def walk():
        opened = top(identity, 1)
        while type(opened) is _Lam:
            opened = opened._body(identity, 1)

    return walk


@pytest.mark.parametrize(
    "make, per_binder",
    [
        (_walk_of(size), 0),
        (_walk_of(print_term), 0),
        (_walk_of(to_debruijn), 0),
        (_size_fold, 0),
        (_applied_fold(print_alg(), lambda render: render(names(1))), 0),
        (_applied_fold(to_debruijn_alg(), lambda at_depth: at_depth(1)), 0),
        *[(_on_closures(run), _closure_bodies) for run in SIX_RUNS],
    ],
    ids=[
        "walk-size",
        "walk-print",
        "walk-debruijn",
        "fold-size",
        "fold-print",
        "fold-debruijn",
        *[f"closures-{name}" for name in _SIX_IDS],
    ],
)
def test_a_binder_costs_few_python_calls(make, per_binder):
    # The chain loop, which the entry points and the applied carriers share,
    # and the size fold skip a chain of chain binders in one step, whatever
    # its length, and charge the guard for it at once; calling each binder
    # would add a call per binder, and interpreting it interpret,
    # interpret_lam and the algebra too. A lam/place binder is stepped in
    # place: it costs the calls its body makes and no more, since the loop
    # charges the guard inline.
    if callable(per_binder):
        per_binder = _calls_per_binder(per_binder)
    assert _calls_per_binder(make) <= per_binder


@pytest.mark.parametrize(
    "run, calls",
    [
        (size, 8),
        (print_term, 9),
        (to_debruijn, 9),
        (lambda t: size(fold(lam_alg(), t)), 17),
    ],
    ids=["size", "print", "debruijn", "size-of-lam-alg-fold"],
)
def test_a_call_on_a_short_chain_costs_a_fixed_number_of_python_calls(run, calls):
    # On short terms the fixed cost of a call is what counts: a top-level
    # guarded call allocates no budget, and the library makes its own terms,
    # renames and name streams without entering an __init__. calls counts
    # run and every Python call under it; the lambda around it adds one.
    # The first call may grow the table of canonical names; later ones read
    # it in place.
    t = db_to_hoas(chain(16, 8))
    run(t)
    assert _profiled(lambda: run(t))[0] == calls + 1


@pytest.mark.parametrize(
    "run, expected",
    [(size, 17), (print_term, oracle_print(chain(16, 8))), (to_debruijn, chain(16, 8))],
    ids=["size", "print", "debruijn"],
)
def test_an_entry_point_reads_the_threads_budget_twice(monkeypatch, run, expected):
    # The guarded entry reads the thread-local once and hands the budget to
    # the chain loop; the other read is the tick of the outermost binder.
    budget = encoding._guard.budget
    reads = []

    class Counting:
        # Stands in for the thread-local and counts the reads of its budget.
        @property
        def budget(self):
            reads.append(budget)
            return budget

    monkeypatch.setattr(encoding, "_guard", Counting())
    assert run(db_to_hoas(chain(16, 8))) == expected
    assert len(reads) == 2


@pytest.mark.parametrize("run", SIX_RUNS, ids=_SIX_IDS)
def test_a_closure_chain_takes_the_same_stack_at_any_depth(run):
    # Every library path steps lam/place closures in a loop, so the deepest
    # stack a fold or walk reaches does not grow with the chain.
    terms = {k: closure_chain(k, k // 2) for k in (100, 2_000)}
    depths = {k: _profiled(lambda: run(t))[1] for k, t in terms.items()}
    assert depths[100] == depths[2_000]


# ----------------------------------------- entry points and their folds


def _hand_built_terms():
    running = lambda mo, x: lam(lambda mx, y: place(mx.apply(x)))  # noqa: E731
    # A body whose occurrence is a closed term renamed in: folded with
    # lam_alg, the rename folds that term with the algebra in play.
    renamed_in = closed(lambda mo, x: lam(lambda mx, y: place(mo.apply(term_xy_x()))))
    return [
        term_x_x(),
        term_xy_x(),
        term_xy_y(),
        deep_term(7),
        closed(lambda mo, x: lam(lambda mx, y: lam(lambda mz, z: place(mz.apply(mx.apply(x)))))),
        lam_alg().interpret_lam(running, identity_embed(), Poison().alg),
        fold(lam_alg(), renamed_in),
        fold(lam_alg(), fold(lam_alg(), renamed_in)),
    ]


def test_entry_points_equal_their_folds_at_the_canonical_argument():
    terms = [db_to_hoas(d) for d in enumerate_terms(40)]
    terms += [fold(lam_alg(), t) for t in terms]
    terms += _hand_built_terms()
    # Every skeleton's body under one outer binder: its leaf names that
    # binder, the body's own binder or a local one.
    skeletons = [closed(lambda mo, x, s=s: lam(body_of_skeleton(s, x))) for s in enumerate_skeletons(32)]
    terms += skeletons + [fold(lam_alg(), t) for t in skeletons]
    for t in terms:
        assert size(t) == fold(size_alg(), t)
        assert print_term(t) == fold(print_alg(), t)(names(1))
        assert to_debruijn(t) == fold(to_debruijn_alg(), t)(1)


@pytest.mark.parametrize("entry", [size, print_term, to_debruijn])
@pytest.mark.parametrize(
    "t, held",
    [
        (closed(lambda mo, x: place(42)), "42"),
        (closed(lambda mo, x: lam(lambda mx, y: place("x1"))), "'x1'"),
        (closed(lambda mo, x: place(len)), "<built-in function len>"),
        (closed(lambda mo, x: place(lambda *a: 5)), "<function "),
        (closed(lambda mo, x: lam(lambda my: place(my))), "<function "),
        (closed(lambda mo, x: place(lambda mx, y: place(y))), "<function "),
        # A term whose meaning is no binder at all.
        (Term(lambda alg: 5), "5"),
    ],
    ids=["outer", "inner", "builtin", "not-an-open-term", "wrong-arity-body", "placed-body", "no-binder"],
)
def test_an_occurrence_no_binder_bound_is_a_type_error(entry, t, held):
    # size once counted the 42 as the occurrence's size, and print_term
    # and to_debruijn called it. A callable is no binder body unless it
    # takes a rename and a variable and returns an open term, and a placed
    # value is no binder at all, even one that is a binder body: the entry
    # points once walked a placed function as a further binder, so size
    # gave 3 where the folds raise.
    with pytest.raises(TypeError, match="ill-formed term: it holds ") as err:
        entry(t)
    assert str(err.value).startswith(f"ill-formed term: it holds {held}")
    assert str(err.value).endswith("neither a variable bound by the term nor a binder body")


@pytest.mark.parametrize("entry", [size, print_term, to_debruijn])
def test_a_type_error_raised_inside_a_body_is_its_own(entry):
    def body(mo, x):
        return lam(lambda my, y: place(my.apply(x) + "!"))

    with pytest.raises(TypeError, match="unsupported operand") as err:
        entry(closed(body))
    assert err.value.__cause__ is None


_APPLIED_CARRIERS = pytest.mark.parametrize(
    "apply",
    [lambda t: fold(print_alg(), t)(names(1)), lambda t: fold(to_debruijn_alg(), t)(1)],
    ids=["print_alg", "to_debruijn_alg"],
)


@_APPLIED_CARRIERS
@pytest.mark.parametrize(
    "t, held",
    [
        (closed(lambda mo, x: place(42)), "42"),
        (closed(lambda mo, x: lam(lambda mx, y: place("x1"))), "'x1'"),
        (closed(lambda mo, x: place(len)), "<built-in function len>"),
        (closed(lambda mo, x: place(lambda: "x1")), "<function "),
    ],
    ids=["outer", "inner", "builtin", "wrong-arity"],
)
def test_an_applied_carrier_ending_in_a_value_it_cannot_apply_is_a_type_error(apply, t, held):
    # Whatever ends a carrier's chain is applied to the stream or depth left.
    # A value that cannot take it is the ill-formed term the entry points
    # report, not the error of the call.
    with pytest.raises(TypeError, match="ill-formed term: it holds ") as err:
        apply(t)
    assert str(err.value).startswith(f"ill-formed term: it holds {held}")
    assert isinstance(err.value.__cause__, TypeError)


@_APPLIED_CARRIERS
def test_an_applied_carrier_ending_in_a_value_that_gives_no_text_or_term_is_a_type_error(apply):
    # The value takes the stream or depth but gives neither a text nor a de
    # Bruijn term: the print carrier once failed joining it to the binder
    # prefixes, and the de Bruijn carrier said it was no de Bruijn term.
    with pytest.raises(TypeError, match="ill-formed term: it holds <function ") as err:
        apply(closed(lambda mo, x: place(lambda *a: 5)))
    assert str(err.value).endswith("neither a variable bound by the term nor a binder body")
    assert err.value.__cause__ is None


@pytest.mark.parametrize(
    "run",
    [
        lambda t: fold(size_alg(), t),
        lambda t: fold(print_alg(), t)(names(1)),
        lambda t: fold(to_debruijn_alg(), t)(1),
    ],
    ids=["size_alg", "print_alg", "to_debruijn_alg"],
)
@pytest.mark.parametrize(
    "t",
    [closed(lambda mo, x: 5), closed(lambda mo, x: lam(lambda my: place(my)))],
    ids=["not-an-open-term", "wrong-arity-body"],
)
def test_a_fold_of_a_body_that_is_no_binder_body_is_a_type_error(run, t):
    # The entry points' error, holding the body: a body that returns no open
    # term, or one the call itself refuses.
    with pytest.raises(TypeError, match="ill-formed term: it holds <function ") as err:
        run(t)
    assert str(err.value).endswith("neither a variable bound by the term nor a binder body")


def _no_size(*_args):
    return 5


@pytest.mark.parametrize(
    "t",
    [
        closed(lambda mo, x: place(_no_size)),
        # A chain binder with none under it, naming the binder outside it:
        # the size fold skips it and reads the value that binder held.
        closed(lambda mo, x: db_to_body(chain(2, 1))(mo, _no_size)),
    ],
    ids=["interpreted", "skipped"],
)
def test_a_size_fold_of_a_held_value_that_is_no_size_is_a_type_error(t):
    # The fold once added the held function to the binder count and raised
    # "unsupported operand type(s) for +"; now it names the value as the
    # entry point does.
    for run in (lambda: fold(size_alg(), t), lambda: size(t)):
        with pytest.raises(TypeError, match="ill-formed term: it holds ") as err:
            run()
        assert str(err.value).startswith(f"ill-formed term: it holds {reprlib.repr(_no_size)}")
    # A held int still reads as a size: a term renamed in through lam_alg
    # reaches the body as one, and place takes a value already interpreted
    # at the carrier. The fold counts it as a subterm of that size; size,
    # which agrees with the fold when the occurrence is a bound variable,
    # finds no binder. Both by design.
    held = closed(lambda mo, x: place(42))
    assert fold(size_alg(), held) == 43
    assert fold(size_alg(), closed(lambda mo, x: db_to_body(chain(2, 1))(mo, 42))) == 44
    with pytest.raises(TypeError) as err:
        size(held)
    assert str(err.value).startswith("ill-formed term: it holds 42, ")


# A chain of chain binders, whose occurrence the loop reads from a binder,
# and one of closures, whose occurrence a place holds.
_TWO_BINDERS_OVER_THE_OUTER = [db_to_hoas(Lam(Lam(Var(1)))), term_xy_x()]


@pytest.mark.parametrize("depth", [2.5, "1", None])
def test_a_de_bruijn_carrier_value_names_a_depth_that_is_no_integer(depth):
    # Applied to 2.5 it once said "a de Bruijn index is an integer, not
    # 1.5", naming a value worked out from the depth, and applied to "1" it
    # raised a bare "can only concatenate str".
    for t in _TWO_BINDERS_OVER_THE_OUTER:
        with pytest.raises(TypeError) as err:
            fold(to_debruijn_alg(), t)(depth)
        assert str(err.value) == f"a de Bruijn carrier value takes an integer depth, not {depth!r}"


def test_a_de_bruijn_carrier_value_reads_a_bool_or_numpy_depth_as_its_int():
    for t in _TWO_BINDERS_OVER_THE_OUTER:
        for one in (True, np.int64(1)):
            d = fold(to_debruijn_alg(), t)(one)
            assert d == Lam(Lam(Var(1)))
            assert type(d.binders) is int and type(d.index) is int
        assert fold(to_debruijn_alg(), t)(np.int64(4)) == fold(to_debruijn_alg(), t)(4)


@pytest.mark.parametrize("stream", [3, True, "x1", None])
def test_a_print_carrier_value_names_an_argument_that_is_no_name_stream(stream):
    # Applied to 3 it once raised "'int' object has no attribute 'start'".
    for t in _TWO_BINDERS_OVER_THE_OUTER:
        with pytest.raises(TypeError) as err:
            fold(print_alg(), t)(stream)
        assert str(err.value) == f"a print carrier value takes a NameStream, not {stream!r}"
        assert fold(print_alg(), t)(names(True)) == "\\ x1. \\ x2. x1"


@_APPLIED_CARRIERS
def test_a_type_error_raised_inside_a_carriers_last_value_is_its_own(apply):
    with pytest.raises(TypeError, match="has no len") as err:
        apply(closed(lambda mo, x: place(lambda arg: len(arg))))
    assert err.value.__cause__ is None


# ---------------------------------------------------------------- guard


def test_entry_points_keep_the_budget_of_an_enclosing_guarded_call():
    with pytest.raises(DepthLimitError):
        run_guarded(lambda: print_term(db_to_hoas(chain(50, 0))), max_depth=10)
    with pytest.raises(DepthLimitError):
        run_guarded(lambda: to_debruijn(db_to_hoas(chain(50, 0))), max_depth=10)


def _counted_terms(k):
    t = db_to_hoas(chain(k, k // 2))
    return [
        # Every binder after the first skipped in one step.
        t,
        # The first step through lam_alg's rebuilt body, the rest skipped.
        fold(lam_alg(), t),
        # lam/place closures: every step after the first taken in place.
        deep_term(k),
    ]


@pytest.mark.parametrize(
    "run",
    SIX_RUNS,
    ids=["size", "print_term", "to_debruijn", "size_alg", "print_alg", "to_debruijn_alg"],
)
@pytest.mark.parametrize("kind", range(3), ids=["db_to_hoas", "lam_alg", "closed"])
def test_the_guard_counts_each_binder_once_on_every_path(run, kind):
    # A k-binder chain fits a budget of k binder interpretations and not
    # one of k - 1, whichever path each step of the fold or the chain loop
    # takes.
    k = 60
    check_guard_charges_k_binders(run, _counted_terms(k)[kind], k)


def test_budgets_charged_in_one_step_accumulate_across_nested_calls():
    # Each nested call skips the chain and charges its k binders at once;
    # the enclosing budget sees all three charges.
    k = 60
    t = db_to_hoas(chain(k, k // 2))

    def three():
        return size(t), print_term(t), fold(to_debruijn_alg(), t)(1)

    assert run_guarded(three, 3 * k)[0] == k + 1
    with pytest.raises(DepthLimitError) as err:
        run_guarded(three, 3 * k - 1)
    assert err.value.limit == 3 * k - 1


def test_carriers_apply_at_depth_outside_the_guard():
    # Applying a carrier walks the chain in a loop, so it needs neither the
    # guard nor the recursion limit it raises, however deep the chain.
    d = chain(DEFAULT_MAX_NESTING, DEFAULT_MAX_NESTING // 2)
    t = db_to_hoas(d)
    render = fold(print_alg(), t)
    at_depth = fold(to_debruijn_alg(), t)
    assert render(names(1)) == oracle_print(d)
    assert format_db(at_depth(1)) == format_db(d)
