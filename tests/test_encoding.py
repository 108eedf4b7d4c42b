import contextvars
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import kripkelam.encoding as encoding
from kripkelam import (
    Algebra,
    DepthLimitError,
    OpenTerm,
    Rename,
    closed,
    db_to_hoas,
    fold,
    format_db,
    identity_embed,
    lam,
    lam_alg,
    oracle_print,
    oracle_size,
    place,
    print_term,
    size_alg,
    to_debruijn,
    to_debruijn_alg,
)
from kripkelam.algebras import names, print_alg, size

from helpers import (
    Poison,
    chain,
    check_a_deep_foreign_fold_raises_the_limit_while_it_runs,
    check_calls_that_nest_nothing_leave_the_limit_alone,
    deep_term,
    run_fresh,
    term_x_x,
    term_xy_x,
    term_xy_y,
)


# ---------------------------------------------------------------- place


def test_place_returns_value_and_ignores_algebra():
    assert place(7).interpret(size_alg()) == 7
    assert place("s").interpret(print_alg()) == "s"


def test_place_never_consults_the_algebra():
    poison = Poison()
    assert place(3).interpret(poison.alg) == 3
    assert poison.calls == 0


def test_lam_and_place_build_open_terms():
    assert isinstance(lam(lambda mx, x: place(x)), OpenTerm)
    assert isinstance(place(3), OpenTerm)


# ---------------------------------------------------------------- lam / fold


def test_fold_of_two_binder_term_with_outer_occurrence():
    assert fold(size_alg(), term_xy_x()) == 3


def test_fold_to_debruijn_of_running_example():
    from kripkelam import Lam, Var, to_debruijn_alg

    assert fold(to_debruijn_alg(), term_xy_x())(1) == Lam(Lam(Var(1)))


def test_fold_of_identity_term():
    # oracle_size(Lam(Var 0)) == 2
    assert fold(size_alg(), term_x_x()) == 2


def test_lam_interpret_directly_scores_identity_body():
    assert lam(lambda mx, y: place(y)).interpret(size_alg()) == 2


def test_nested_lam_moves_outer_variable_inward():
    inner = lam(lambda mo, x: lam(lambda mx, y: place(mx.apply(x))))
    assert inner.interpret(size_alg()) == 3


def test_nested_lam_with_inner_occurrence_to_debruijn():
    from kripkelam import Lam, Var, to_debruijn_alg

    open_term = lam(lambda mo, x: lam(lambda mx, y: place(y)))
    assert open_term.interpret(to_debruijn_alg())(1) == Lam(Lam(Var(0)))


def test_fold_is_deterministic():
    t = term_xy_x()
    assert fold(size_alg(), t) == fold(size_alg(), t)
    assert print_term(t) == print_term(t)
    assert to_debruijn(t) == to_debruijn(t)


# ---------------------------------------------------------------- closed


def test_closed_packages_a_body():
    assert size(closed(lambda mo, x: place(x))) == 2
    assert print_term(closed(lambda mo, x: place(x))) == "\\ x1. x1"


def test_closed_matches_running_example():
    t = closed(lambda mo, x: lam(lambda mx, y: place(mx.apply(x))))
    assert fold(size_alg(), t) == 3
    assert print_term(t) == "\\ x1. \\ x2. x1"


# ---------------------------------------------------------------- identity_embed


def test_identity_embed_returns_argument():
    embed = identity_embed()
    assert embed(size_alg()) is size_alg()


def test_lam_uses_identity_embedding():
    seen = {}

    def spy(body, embed, candidate):
        seen["embed"] = embed
        seen["candidate"] = candidate
        return 0

    alg = Algebra(spy, name="spy")
    lam(lambda mx, y: place(y)).interpret(alg)
    assert seen["candidate"] is alg
    assert seen["embed"](alg) is alg


def test_embed_through_lam_alg_is_observationally_identity():
    # rebuilding with lam_alg and folding must agree with folding directly
    from kripkelam import db_to_hoas, enumerate_terms

    terms = [term_x_x(), term_xy_x(), term_xy_y()]
    terms += [db_to_hoas(d) for d in enumerate_terms(12)]
    for t in terms:
        rebuilt = fold(lam_alg(), t)
        assert fold(size_alg(), rebuilt) == fold(size_alg(), t)
        assert print_term(rebuilt) == print_term(t)
        assert to_debruijn(rebuilt) == to_debruijn(t)


# ---------------------------------------------------------------- lam_alg


def test_lam_alg_rebuild_scores_like_original():
    rebuilt = fold(lam_alg(), term_xy_x())
    assert fold(size_alg(), rebuilt) == 3


def test_lam_alg_built_identity_prints_canonically():
    rebuilt = fold(lam_alg(), term_x_x())
    assert print_term(rebuilt) == "\\ x1. x1"


def test_lam_alg_ignores_construction_time_algebra():
    poison = Poison()
    body = lambda mo, x: lam(lambda mx, y: place(mx.apply(x)))  # noqa: E731
    t = lam_alg().interpret_lam(body, identity_embed(), poison.alg)
    assert fold(size_alg(), t) == 3
    assert print_term(t) == "\\ x1. \\ x2. x1"
    assert poison.calls == 0


def test_rebuilding_with_lam_alg_does_no_interpretation_work():
    # folding with lam_alg only repackages; counting happens later
    hits = []

    def counting(body, embed, candidate):
        hits.append(1)
        return 1 + body(Rename.identity(), 1).interpret(candidate)

    counter = Algebra(counting, name="counting")
    rebuilt = fold(lam_alg(), term_xy_x())
    assert hits == []
    assert fold(counter, rebuilt) == 3
    assert len(hits) == 2


# ---------------------------------------------------------------- renames


def test_rename_identity_law():
    r = Rename.identity()
    for v in (0, "a", (1, 2)):
        assert r.apply(v) == v


# ---------------------------------------------------------------- depth guard


def test_fold_trips_depth_guard_beyond_default_limit():
    with pytest.raises(DepthLimitError) as err:
        fold(size_alg(), deep_term(encoding.DEFAULT_MAX_NESTING + 50))
    assert err.value.limit == encoding.DEFAULT_MAX_NESTING


def test_fold_reaches_default_limit_depth():
    depth = 9_000
    assert fold(size_alg(), deep_term(depth)) == depth + 1


def test_fold_honors_explicit_max_depth():
    t = deep_term(120)
    with pytest.raises(DepthLimitError):
        encoding.run_guarded(lambda: fold(size_alg(), t), max_depth=100)
    assert encoding.run_guarded(lambda: fold(size_alg(), t), max_depth=120) == 121


def test_a_max_depth_beyond_any_recursion_limit_still_folds():
    # 10**9 binders would need more frames than a recursion limit can hold.
    before = sys.getrecursionlimit()
    assert encoding.run_guarded(lambda: fold(size_alg(), term_xy_x()), max_depth=10**9) == 3
    assert sys.getrecursionlimit() == before


def test_guard_covers_function_carrier_entry_points():
    t = deep_term(120)
    with pytest.raises(DepthLimitError):
        encoding.run_guarded(lambda: print_term(t), max_depth=100)
    with pytest.raises(DepthLimitError):
        encoding.run_guarded(lambda: to_debruijn(t), max_depth=100)
    assert format_db(
        encoding.run_guarded(lambda: to_debruijn(t), max_depth=200)
    ).startswith("Lam (")


def test_guard_resets_between_folds():
    t = deep_term(300)
    for _ in range(5):
        assert encoding.run_guarded(lambda: fold(size_alg(), t), max_depth=301) == 301


def test_deep_fold_matches_shallow_semantics():
    # The same entry points, and the folds of their algebras applied to the
    # canonical argument, agree with the first-order oracles whether a
    # chain fits the default recursion limit or needs it raised.
    for depth in (3, 300, 3_000):
        d = chain(depth, depth // 2)
        t = db_to_hoas(d)
        assert size(t) == oracle_size(d)
        assert print_term(t) == oracle_print(d)
        assert to_debruijn(t) == d
        assert fold(size_alg(), t) == oracle_size(d)
        assert encoding.run_guarded(lambda: fold(print_alg(), t)(names(1))) == oracle_print(d)
        assert encoding.run_guarded(lambda: fold(to_debruijn_alg(), t)(1)) == d
        assert fold(size_alg(), deep_term(depth)) == depth + 1
        assert to_debruijn(deep_term(depth)) == chain(depth, 0)


class Counting:
    """Size-like algebra that counts its interpretations; each body is
    interpreted ``times`` times."""

    def __init__(self, times: int = 1):
        self.calls = 0
        self.times = times
        self.alg = Algebra(self._interpret, name="counting")

    def _interpret(self, body, embed, alg):
        self.calls += 1
        # A list, not a generator: the recursion must not pass through C.
        return 1 + sum([body(Rename.identity(), 1).interpret(alg) for _ in range(self.times)])


@pytest.mark.parametrize("k", [500, 3_000])
def test_a_fold_interprets_each_binder_once(k):
    counting = Counting()
    assert fold(counting.alg, deep_term(k)) == k + 1
    assert counting.calls == k


def test_an_algebra_interpreting_bodies_twice_is_run_once():
    # 2**9 - 1 interpretations for 9 nested binders, each body twice.
    counting = Counting(times=2)
    assert fold(counting.alg, deep_term(9)) == 2**10 - 1
    assert counting.calls == 2**9 - 1


def test_guard_counts_binder_interpretations_not_nesting():
    # Interpreting each body twice makes 2**k - 1 interpretations for k
    # nested binders: 8,191 for 13 fit the default limit, 16,383 for 14 do
    # not, although 14 binders nest far below it.
    def twice(body, embed, alg):
        return sum(body(Rename.identity(), 1).interpret(alg) for _ in range(2))

    alg = Algebra(twice, name="twice")
    assert fold(alg, deep_term(13)) == 2**13
    with pytest.raises(DepthLimitError) as err:
        fold(alg, deep_term(14))
    assert err.value.limit == encoding.DEFAULT_MAX_NESTING
    assert "binder interpretations" in str(err.value) and "nesting" in str(err.value)


def test_invalid_max_depth_rejected():
    with pytest.raises(ValueError):
        encoding.run_guarded(lambda: fold(size_alg(), term_x_x()), max_depth=0)
    # Text and floats are no budget: none is converted or truncated.
    for bad in ("5", b"9", "  7\n", 2.9, 3.99):
        with pytest.raises(TypeError):
            encoding.run_guarded(lambda: fold(size_alg(), term_x_x()), max_depth=bad)


def test_a_max_depth_that_is_no_integer_is_named():
    for bad in (2.5, "5", [3]):
        with pytest.raises(TypeError) as err:
            encoding.run_guarded(lambda: fold(size_alg(), term_x_x()), max_depth=bad)
        assert str(err.value) == f"max_depth must be an integer, not {bad!r}"
    assert encoding.run_guarded(lambda: fold(size_alg(), term_x_x()), max_depth=True) == 2


# ---------------------------------------------------------------- the thread's budget


def _fields(budget):
    return budget.limit, budget.left, budget.trip, budget.raised


def test_a_thread_reuses_one_budget_for_every_top_level_call():
    budget = encoding._guard.budget
    assert "__init__" not in vars(encoding._Budget)
    assert encoding.run_guarded(lambda: encoding._guard.budget) is budget
    assert size(db_to_hoas(chain(50, 20))) == 51
    assert encoding.run_guarded(lambda: encoding._guard.budget, max_depth=5) is budget
    assert encoding._guard.budget is budget and budget.limit == 0
    others = []
    worker = threading.Thread(target=lambda: others.append(encoding.run_guarded(lambda: encoding._guard.budget)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert others[0] is not budget and others[0].limit == 0


def test_a_top_level_call_writes_nothing_to_the_thread_local(monkeypatch):
    class Recording:
        # Stands in for the thread-local: it holds the same budget and
        # records every attribute written to it.
        def __init__(self, budget):
            object.__setattr__(self, "budget", budget)
            object.__setattr__(self, "writes", [])

        def __setattr__(self, name, value):
            self.writes.append(name)
            object.__setattr__(self, name, value)

    guard = Recording(encoding._guard.budget)
    monkeypatch.setattr(encoding, "_guard", guard)
    assert encoding.run_guarded(lambda: fold(size_alg(), deep_term(50)), max_depth=60) == 51
    with pytest.raises(DepthLimitError):
        encoding.run_guarded(lambda: fold(size_alg(), deep_term(50)), max_depth=40)
    assert guard.writes == []


def test_a_term_interpreted_outside_any_guarded_call_charges_nothing():
    # Left idle, the budget charges neither a tick, a chain skip nor a
    # lam_alg layer: its fields are those the last call left.
    t = db_to_hoas(chain(50, 20))
    reinterpreted = fold(lam_alg(), t)
    budget = encoding._guard.budget
    before = _fields(budget)
    assert before[0] == 0
    assert t.run(size_alg()) == 51
    assert reinterpreted.run(size_alg()) == 51
    assert deep_term(60).run(size_alg()) == 61
    assert _fields(budget) == before


def test_an_interrupted_call_leaves_the_budget_idle():
    def interrupted():
        size(db_to_hoas(chain(50, 20)))
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        encoding.run_guarded(interrupted)
    assert encoding._guard.budget.limit == 0
    assert size(db_to_hoas(chain(50, 20))) == 51


# ---------------------------------------------------------------- concurrency


def test_concurrent_folds_share_terms_safely():
    t = term_xy_x()
    deep = deep_term(600)

    def work(_):
        return (
            fold(size_alg(), t),
            print_term(t),
            fold(size_alg(), deep),
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(32)))
    assert all(r == (3, "\\ x1. \\ x2. x1", 601) for r in results)


def test_guard_state_is_thread_local():
    t = deep_term(450)
    errors = []

    def tripping():
        try:
            encoding.run_guarded(lambda: fold(size_alg(), t), max_depth=100)
        except DepthLimitError:
            errors.append("tripped")

    worker = threading.Thread(target=tripping)
    worker.start()
    worker.join()
    assert errors == ["tripped"]
    # this thread's folds are unaffected
    assert fold(size_alg(), term_x_x()) == 2


def test_a_thread_started_inside_a_guarded_call_has_its_own_budget():
    # The outer call may make 510 interpretations and spends 500 before it
    # starts the thread. The thread's 500-binder fold is a top-level call
    # with its own budget, and the outer call still has exactly 10 left.
    results = []

    def thread_fold():
        results.append(size(db_to_hoas(chain(500, 250))))

    def outer():
        assert size(db_to_hoas(chain(500, 0))) == 501
        worker = threading.Thread(target=thread_fold)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert size(db_to_hoas(chain(10, 3))) == 11
        with pytest.raises(DepthLimitError) as err:
            size(term_x_x())
        assert err.value.limit == 510

    encoding.run_guarded(outer, max_depth=510)
    assert results == [501]


def test_a_context_copied_inside_a_guarded_call_is_unguarded_after_it():
    # The copy still holds the call's budget of 5; once the call has
    # returned, folds run in the copy are top-level calls again, and raw
    # interpretation there is unguarded, as it is outside any guarded call.
    copies = []
    encoding.run_guarded(lambda: copies.append(contextvars.copy_context()), max_depth=5)
    assert copies[0].run(size, db_to_hoas(chain(3_000, 7))) == 3_001
    assert copies[0].run(lambda: lam(lambda mx, x: place(x)).interpret(size_alg())) == 2
    assert copies[0].run(lambda: deep_term(6).run(size_alg())) == 7


def test_a_context_copied_inside_a_guarded_call_and_run_on_another_thread_has_its_own_budget():
    # The budget belongs to the thread, not to the context: run on a worker
    # during the call, the copy's 500-binder fold is a top-level call there,
    # and the outer call still has exactly 10 of its 510 left.
    results = []

    def outer():
        assert size(db_to_hoas(chain(500, 0))) == 501
        copied = contextvars.copy_context()
        worker = threading.Thread(target=lambda: results.append(copied.run(size, db_to_hoas(chain(500, 250)))))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return size(db_to_hoas(chain(8, 3)))

    assert encoding.run_guarded(outer, max_depth=510) == 9
    assert results == [501]


# ---------------------------------------------------------------- recursion limit


def test_deep_fold_restores_the_recursion_limit():
    # Raised for a deep fold, the limit goes back down when the last deep
    # fold in flight ends, on one thread and on two at once.
    out = run_fresh("""
        import sys, threading
        from kripkelam import db_to_hoas, size
        from kripkelam.debruijn import Lam, Var

        def chain(k, i):
            d = Var(i)
            for _ in range(k):
                d = Lam(d)
            return d

        before = sys.getrecursionlimit()
        assert size(db_to_hoas(chain(500, 3))) == 501
        print(sys.getrecursionlimit() == before)

        go = threading.Barrier(2)
        sizes = []

        def fold(k):
            go.wait()
            sizes.append(size(db_to_hoas(chain(k, k // 2))))

        threads = [threading.Thread(target=fold, args=(k,)) for k in (3000, 9000)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        print(sorted(sizes) == [3001, 9001], sys.getrecursionlimit() == before)
    """)
    assert out == "True\nTrue True\n"


def test_a_limit_set_inside_a_guarded_call_stays():
    out = run_fresh("""
        import sys
        from kripkelam import run_guarded

        run_guarded(lambda: sys.setrecursionlimit(7000))
        print(sys.getrecursionlimit())
    """)
    assert out == "7000\n"


def test_a_limit_set_by_another_thread_during_a_guarded_call_stays():
    out = run_fresh("""
        import sys, threading
        from kripkelam import run_guarded

        in_call = threading.Event()
        set_limit = threading.Event()

        def setter():
            in_call.wait()
            sys.setrecursionlimit(5000)
            set_limit.set()

        thread = threading.Thread(target=setter)
        thread.start()

        def thunk():
            in_call.set()
            set_limit.wait()

        run_guarded(thunk)
        thread.join()
        print(sys.getrecursionlimit())
    """)
    assert out == "5000\n"


def _frames_left() -> int:
    """How many more nested calls fit below the recursion limit than this one."""
    try:
        return 1 + _frames_left()
    except RecursionError:
        return 0


def test_a_short_fold_started_near_the_recursion_limit_completes():
    # 15 frames below the caller's limit, a 40-binder size fold completes:
    # it skips the chain in a few frames and nests nothing, so it does not
    # trip the guard and leaves the limit as it was.
    limit = sys.getrecursionlimit()
    t = db_to_hoas(chain(40, 3))

    def descend(n):
        if n:
            return descend(n - 1)
        return fold(size_alg(), t)

    assert descend(_frames_left() - 15) == 41
    assert sys.getrecursionlimit() == limit


def _nest(n, thunk):
    return _nest(n - 1, thunk) if n else thunk()


@pytest.mark.parametrize(
    "interpret, below",
    [
        (lambda body, embed, alg: 1 + body(Rename.identity(), 1).interpret(alg), 140),
        (lambda body, embed, alg: _nest(11, lambda: 1 + body(Rename.identity(), 1).interpret(alg)), 680),
    ],
    ids=["3-frames-a-binder-140-below", "16-frames-a-binder-680-below"],
)
def test_a_foreign_fold_started_near_the_recursion_limit_fires_the_tripwire_in_time(interpret, below):
    # An algebra that recurses once per binder takes 3 frames a binder
    # (interpret, interpret_lam and the algebra); _nest(11, ...) adds 13,
    # the 16 a binder that _FRAMES_PER_LEVEL budgets for. The tripwire must
    # fire before a 100-binder fold runs out of the frames left below the
    # caller's limit: it fires within 41 binders, about 130 frames in all
    # at 3 frames a binder and about 650 at 16.
    limit = sys.getrecursionlimit()
    recursing = Algebra(interpret)
    t = deep_term(100)

    def descend(n):
        if n:
            return descend(n - 1)
        return fold(recursing, t)

    assert descend(_frames_left() - below) == 101
    assert sys.getrecursionlimit() == limit


def test_calls_that_nest_nothing_leave_the_recursion_limit_alone():
    check_calls_that_nest_nothing_leave_the_limit_alone()


def test_a_deep_foreign_fold_raises_the_recursion_limit_only_while_it_runs():
    check_a_deep_foreign_fold_raises_the_limit_while_it_runs()


def test_a_tripped_call_caps_the_recursion_limit_at_a_c_int():
    # 10**9 binders would need more frames than a recursion limit can hold;
    # a fold that trips the guard raises the limit to the largest it can.
    before = sys.getrecursionlimit()
    recursing = Algebra(lambda body, embed, alg: 1 + body(Rename.identity(), 1).interpret(alg))
    inside = encoding.run_guarded(lambda: (fold(recursing, deep_term(100)), sys.getrecursionlimit()), 10**9)
    assert inside == (101, 2**31 - 1)
    assert sys.getrecursionlimit() == before


def test_a_deep_repr_on_another_thread_during_a_guarded_call_raises_recursion_error():
    # A guarded call that nests nothing leaves the recursion limit alone, so
    # the C recursion of a deep repr on another thread stops at the limit.
    # On CPython 3.11 a limit raised for the call let it overflow the C
    # stack and kill the process.
    out = run_fresh("""
        import threading
        from kripkelam import run_guarded

        entered, done = threading.Event(), threading.Event()
        holder = threading.Thread(target=run_guarded, args=(lambda: (entered.set(), done.wait()),))
        holder.start()
        entered.wait()
        nested = []
        for _ in range(150_000):
            nested = [nested]
        try:
            repr(nested)
        except RecursionError:
            print("RecursionError")
        finally:
            done.set()
            holder.join()
    """)
    assert out == "RecursionError\n"


def test_walking_a_term_folded_through_lam_alg_many_times_relies_on_the_raised_limit():
    # Each fold through lam_alg wraps the outermost body in one more
    # ``shifted`` body, so the first step of a walk calls 2,000 nested
    # bodies: more frames than the default limit allows. The entry points
    # still agree with the oracles because the guard raises the limit for
    # the walk, and they put it back.
    d = chain(10, 3)
    t = db_to_hoas(d)
    for _ in range(2_000):
        t = fold(lam_alg(), t)
    before = sys.getrecursionlimit()
    assert size(t) == oracle_size(d)
    assert print_term(t) == oracle_print(d)
    assert format_db(to_debruijn(t)) == format_db(d)
    assert sys.getrecursionlimit() == before


def test_concurrent_deep_folds_share_the_raised_limit():
    # Eight threads switching often, each folding with an algebra that
    # recurses once per binder: a lost update to the count of deep folds in
    # flight would lower the limit under a running fold (a RecursionError
    # here) or leave it raised afterwards.
    before = sys.getrecursionlimit()
    depths = [1000 + 100 * n for n in range(32)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fold, Counting().alg, deep_term(d)) for d in depths]
            sizes = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [d + 1 for d in depths]
    assert sys.getrecursionlimit() == before


def test_deep_fold_keeps_a_limit_the_caller_raised():
    # The caller's own limit is above what 10,000 binders need: the fold
    # runs under it and leaves it as the caller set it. The entry points,
    # the size_alg fold and the applied carriers all loop over the chain.
    out = run_fresh("""
        import sys
        from kripkelam import (
            db_to_hoas, fold, names, oracle_print, print_alg, print_term,
            run_guarded, size, size_alg, to_debruijn, to_debruijn_alg,
        )
        from kripkelam.debruijn import Lam, Var

        sys.setrecursionlimit(200_000)
        d = Var(5000)
        for _ in range(10_000):
            d = Lam(d)
        t = db_to_hoas(d)
        print(size(t) == 10_001, print_term(t) == oracle_print(d), to_debruijn(t) == d)
        print(sys.getrecursionlimit())
        print(
            fold(size_alg(), t) == 10_001,
            run_guarded(lambda: fold(print_alg(), t)(names(1))) == oracle_print(d),
            run_guarded(lambda: fold(to_debruijn_alg(), t)(1)) == d,
        )
        print(sys.getrecursionlimit())
    """)
    assert out == "True True True\n200000\nTrue True True\n200000\n"


def test_deep_fold_runs_on_a_thread_with_a_small_stack():
    # A fold takes no C stack per binder, so 10,000 binders fold on a
    # thread started with a 256 KiB stack. An algebra of the user's own
    # recurses through plain Python functions once per binder of lam/place
    # closures. The size_alg fold of the closures, and the entry points, the
    # size_alg fold and the applied carriers over a chain, loop instead, so
    # the carriers also apply outside run_guarded.
    out = run_fresh("""
        import sys, threading
        from kripkelam import (
            Algebra, Rename, closed, db_to_hoas, fold, format_db, lam, lam_alg,
            names, oracle_print, oracle_size, place, print_alg, print_term,
            run_guarded, size, size_alg, to_debruijn, to_debruijn_alg,
        )
        from kripkelam.debruijn import Lam, Var

        d = Var(5000)
        for _ in range(10_000):
            d = Lam(d)

        def level(j):
            return lambda mx, fresh: place(fresh) if j == 10_000 else lam(level(j + 1))

        closures = closed(level(1))
        recursing = Algebra(lambda body, embed, alg: 1 + body(Rename.identity(), 1).interpret(alg))
        before = sys.getrecursionlimit()
        results = []

        def work():
            t = db_to_hoas(d)
            results.extend([
                size(t) == oracle_size(d),
                print_term(t) == oracle_print(d),
                format_db(to_debruijn(t)) == format_db(d),
                size(fold(lam_alg(), t)) == oracle_size(d),
                fold(size_alg(), t) == oracle_size(d),
                run_guarded(lambda: fold(print_alg(), t)(names(1))) == oracle_print(d),
                run_guarded(lambda: fold(to_debruijn_alg(), t)(1)) == d,
                fold(size_alg(), fold(lam_alg(), t)) == oracle_size(d),
                fold(print_alg(), t)(names(1)) == oracle_print(d),
                format_db(fold(to_debruijn_alg(), t)(1)) == format_db(d),
                fold(recursing, closures) == 10_001,
                fold(size_alg(), closures) == 10_001,
            ])

        threading.stack_size(256 * 1024)
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=120)
        print(worker.is_alive(), results, sys.getrecursionlimit() == before)
    """)
    assert out == "False [True, True, True, True, True, True, True, True, True, True, True, True] True\n"
