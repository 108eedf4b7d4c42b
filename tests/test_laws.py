import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkelam import (
    BodySkeleton,
    Slot,
    body_of_skeleton,
    check_compose_hom,
    check_fold_hom,
    check_hom,
    check_id_hom,
    closed,
    db_to_hoas,
    enumerate_skeletons,
    fold,
    format_db,
    gen_skeleton,
    hom_sides,
    identity_term,
    lam,
    lam_alg,
    print_term,
    run_all_laws,
    size,
    size_alg,
    skeleton_pool,
    standard_contexts,
    to_debruijn,
)
from kripkelam import encoding
from kripkelam.laws import render_reports

from helpers import Poison, RenameCounter, renamed


def skeletons_to(depth):
    """Every skeleton up to ``depth`` binders, tagged as enumerated."""
    return [(None, s) for s in enumerate_skeletons(depth)]


# ---------------------------------------------------------------- skeletons


def test_skeleton_enumeration_counts():
    # j binders contribute j + 2 leaves
    assert len(enumerate_skeletons(0)) == 2
    assert len(enumerate_skeletons(1)) == 5
    assert len(enumerate_skeletons(8)) == sum(j + 2 for j in range(9))


def test_skeleton_validation():
    BodySkeleton(0, Slot.ENV).validate()
    BodySkeleton(3, 2).validate()
    with pytest.raises(ValueError):
        BodySkeleton(0, 0).validate()
    with pytest.raises(ValueError):
        BodySkeleton(2, 5).validate()
    with pytest.raises(ValueError):
        BodySkeleton(-1, Slot.ENV).validate()


@pytest.mark.parametrize("binders", [1.5, 1.0, "1", None])
def test_a_binder_count_or_bound_that_is_no_integer_is_rejected(binders):
    # gen_skeleton(1, 1.5) once built a skeleton of 1.0 binders, and
    # hom_sides on BodySkeleton(1.5, Slot.ENV) observed (3.5, 3.5).
    with pytest.raises(TypeError) as err:
        BodySkeleton(binders, Slot.ENV).validate()
    assert str(err.value) == f"a skeleton's binder count is an integer, not {binders!r}"
    with pytest.raises(TypeError, match="a skeleton's binder count is an integer"):
        hom_sides(size_alg(), size_alg(), lambda n: n, BodySkeleton(binders, Slot.ENV), 1, lambda n: n)
    with pytest.raises(TypeError) as err:
        gen_skeleton(1, binders)
    assert str(err.value) == f"a binder bound is an integer, not {binders!r}"


@pytest.mark.parametrize("leaf", [0.5, "env", None])
def test_a_leaf_that_is_neither_a_slot_nor_an_integer_is_rejected(leaf):
    # BodySkeleton(2, 0.5) once validated, and hom_sides on BodySkeleton(1,
    # 0.5) observed (3, 3); "env" and None failed later with a bare '>'.
    with pytest.raises(TypeError) as err:
        BodySkeleton(2, leaf).validate()
    assert str(err.value) == f"a skeleton's leaf is a Slot or an integer, not {leaf!r}"
    with pytest.raises(TypeError, match="a skeleton's leaf is a Slot or an integer"):
        hom_sides(size_alg(), size_alg(), lambda n: n, BodySkeleton(1, leaf), 1, lambda n: n)


def test_body_of_skeleton_rejects_malformed():
    with pytest.raises(ValueError):
        body_of_skeleton(BodySkeleton(1, 1), 0)


def test_gen_skeleton_is_deterministic_and_well_formed():
    for seed in range(300):
        s = gen_skeleton(seed, 16)
        s.validate()
        assert s == gen_skeleton(seed, 16)
        assert s.binders <= 16


def test_skeleton_pool_mixes_enumerated_and_generated():
    pool = skeleton_pool(3, 10, seed=7)
    enumerated = [item for item in pool if item[0] is None]
    generated = [item for item in pool if item[0] is not None]
    assert len(enumerated) == len(enumerate_skeletons(3))
    assert len(generated) == 10
    assert [seed for seed, _ in generated] == list(range(7, 17))


def test_negative_pool_bounds_are_rejected():
    with pytest.raises(ValueError, match="max_binders must be nonnegative"):
        enumerate_skeletons(-1)
    with pytest.raises(ValueError, match="max_binders must be nonnegative"):
        skeleton_pool(-1, 0, seed=0)
    with pytest.raises(ValueError, match="max_binders must be nonnegative"):
        gen_skeleton(0, -1)
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        skeleton_pool(2, -1, seed=0)
    with pytest.raises(ValueError):
        run_all_laws(max_binders=-1, samples=0)


# ------------------------------------------------- skeleton body semantics


def test_fresh_slot_body_is_the_identity_binder():
    body = body_of_skeleton(BodySkeleton(0, Slot.FRESH), 99)
    assert lam(body).interpret(size_alg()) == 2


def test_env_slot_body_reproduces_the_running_example():
    t = closed(lambda mo, x: lam(body_of_skeleton(BodySkeleton(0, Slot.ENV), x)))
    assert size(t) == 3
    assert print_term(t) == "\\ x1. \\ x2. x1"
    assert format_db(to_debruijn(t)) == "Lam (Lam (Var 1))"


def test_fresh_slot_under_local_binder_renames_inward():
    # dummy outer binder, the body's own binder, one local binder: the
    # fresh slot names the middle one
    t = closed(lambda mo, x: lam(body_of_skeleton(BodySkeleton(1, Slot.FRESH), x)))
    assert print_term(t) == "\\ x1. \\ x2. \\ x3. x2"
    assert size(t) == 4


def test_env_slot_under_local_binders_names_the_outermost():
    t = closed(lambda mo, x: lam(body_of_skeleton(BodySkeleton(2, Slot.ENV), x)))
    assert print_term(t) == "\\ x1. \\ x2. \\ x3. \\ x4. x1"


def test_local_leaf_names_its_own_binder():
    t = closed(lambda mo, x: lam(body_of_skeleton(BodySkeleton(2, 0), x)))
    # local index 0 is the innermost of the two skeleton binders
    assert print_term(t) == "\\ x1. \\ x2. \\ x3. \\ x4. x4"
    t = closed(lambda mo, x: lam(body_of_skeleton(BodySkeleton(2, 1), x)))
    assert print_term(t) == "\\ x1. \\ x2. \\ x3. \\ x4. x3"


def test_body_of_skeleton_renames_only_the_leaf():
    # Binder 1 is the body's own and the locals follow it inward. Only the
    # leaf's value is renamed: env by the body's rename and every local
    # one, fresh or a local variable once by each local binder inside it.
    for s in enumerate_skeletons(8):
        counter = RenameCounter()
        result = lam(body_of_skeleton(s, "env")).interpret(counter.alg)
        if s.leaf is Slot.ENV:
            value, times = "env", s.binders + 1
        elif s.leaf is Slot.FRESH:
            value, times = ("var", 1), s.binders
        else:
            value, times = ("var", 1 + s.binders - s.leaf), s.leaf
        assert result == renamed(value, times), s.describe()
        assert counter.applies == times, s.describe()


# ---------------------------------------------------------------- is_hom


def test_identity_is_a_homomorphism_on_every_skeleton():
    for _, s in skeletons_to(6):
        lhs, rhs = hom_sides(size_alg(), size_alg(), lambda x: x, s, 1, lambda n: n)
        assert lhs == rhs


def test_fold_is_a_homomorphism_from_lam_alg():
    for _, s in skeletons_to(6):
        lhs, rhs = hom_sides(
            lam_alg(),
            size_alg(),
            lambda t: fold(size_alg(), t),
            s,
            identity_term(),
            lambda n: n,
        )
        assert lhs == rhs


def test_successor_is_not_a_homomorphism():
    lhs, rhs = hom_sides(
        size_alg(), size_alg(), lambda n: n + 1, BodySkeleton(0, Slot.FRESH), 1, lambda n: n
    )
    # lhs: successor applied after interpreting the one-binder body (1 + 1)
    # rhs: interpreting the same body unchanged
    assert (lhs, rhs) == (3, 2)
    assert lhs != rhs


def test_hom_sides_are_observables():
    ctx = [c for c in standard_contexts() if c.label == "debruijn"][0]
    lhs, rhs = hom_sides(
        ctx.alg, ctx.alg, lambda x: x, BodySkeleton(1, Slot.ENV), ctx.env_value, ctx.observe
    )
    assert lhs == rhs
    assert isinstance(format_db(lhs), str)


# ---------------------------------------------------------------- suites


def test_id_hom_suite_passes_for_all_standard_carriers():
    for ctx in standard_contexts():
        report = check_id_hom(
            ctx.alg, skeletons_to(8), env_value=ctx.env_value, observe=ctx.observe
        )
        assert report.ok, render_reports([report])
        assert report.checked == len(skeletons_to(8))


def test_fold_hom_suite_passes_for_all_standard_carriers():
    for ctx in standard_contexts():
        report = check_fold_hom(ctx.alg, skeletons_to(8), observe=ctx.observe)
        assert report.ok, render_reports([report])


def test_compose_hom_of_fold_and_identity():
    for ctx in standard_contexts():
        report = check_compose_hom(
            lam_alg(),
            ctx.alg,
            ctx.alg,
            lambda t, alg=ctx.alg: fold(alg, t),
            lambda x: x,
            skeletons_to(8),
            env_value=identity_term(),
            observe=ctx.observe,
        )
        assert report.ok, render_reports([report])


def test_a_wrong_first_leg_is_refuted_by_the_compose_suite():
    # Sending every term to the identity term agrees with folding only on
    # the identity body, so the compose suite refutes every other skeleton,
    # while the fold suite, which has no first leg, passes on the same pool.
    pool = skeletons_to(8)
    refutable = [s for _, s in pool if s != BodySkeleton(0, Slot.FRESH)]
    for ctx in standard_contexts():
        report = check_compose_hom(
            lam_alg(),
            lam_alg(),
            ctx.alg,
            lambda t: identity_term(),
            lambda t, alg=ctx.alg: fold(alg, t),
            pool,
            env_value=identity_term(),
            observe=ctx.observe,
        )
        assert report.checked == 54
        assert [w.skeleton for w in report.failures] == refutable
        assert check_fold_hom(ctx.alg, pool, observe=ctx.observe).ok


def test_run_all_laws_composes_two_folds():
    suites = [r.suite for r in run_all_laws(max_binders=1, samples=0)]
    assert suites[1::3] == [
        "compose_hom[lam_alg->lam_alg->size]",
        "compose_hom[lam_alg->lam_alg->print]",
        "compose_hom[lam_alg->lam_alg->debruijn]",
    ]


def test_compose_of_identities_passes():
    report = check_compose_hom(
        size_alg(),
        size_alg(),
        size_alg(),
        lambda x: x,
        lambda x: x,
        skeletons_to(5),
        env_value=1,
        observe=lambda n: n,
    )
    assert report.ok


def test_broken_second_leg_is_reported_with_witness():
    report = check_compose_hom(
        size_alg(),
        size_alg(),
        size_alg(),
        lambda x: x,
        lambda x: x + 1,  # deliberately wrong
        skeletons_to(4),
        env_value=1,
        observe=lambda n: n,
    )
    assert not report.ok
    witness = report.failures[0]
    # the witness re-evaluates to the same disagreement
    sides = hom_sides(size_alg(), size_alg(), lambda x: x + 1, witness.skeleton, 1, lambda n: n)
    assert sides == (witness.lhs, witness.rhs)
    assert witness.lhs != witness.rhs


def test_check_hom_with_generated_witness_records_seed():
    pool = [(seed, gen_skeleton(seed, 8)) for seed in range(20)]
    report = check_hom(
        size_alg(),
        size_alg(),
        lambda n: n + 1,
        pool,
        env_value=1,
        observe=lambda n: n,
        suite="succ",
    )
    assert not report.ok
    assert all(w.seed in range(20) for w in report.failures)
    # successor shifts the environment value on both sides equally, so the
    # counterexamples are exactly the non-env leaves
    non_env = [s for _, s in pool if s.leaf is not Slot.ENV]
    assert len(report.failures) == len(non_env)
    assert all(w.skeleton.leaf is not Slot.ENV for w in report.failures)


def test_empty_skeleton_set_is_a_vacuous_pass():
    report = check_id_hom(size_alg(), [], env_value=1, observe=lambda n: n)
    assert report.ok
    assert report.checked == 0


def test_report_rendering_mentions_counts():
    report = check_id_hom(size_alg(), skeletons_to(2), env_value=1, observe=lambda n: n)
    text = render_reports([report])
    assert "id_hom[size]" in text
    assert "9 checked" in text
    assert "[ok]" in text


def test_report_rendering_shows_five_witnesses_and_counts_the_rest():
    # The successor refutes every skeleton whose leaf is no env slot.
    report = check_hom(
        size_alg(), size_alg(), lambda n: n + 1, skeletons_to(2), env_value=1, observe=lambda n: n, suite="succ"
    )
    lines = render_reports([report]).splitlines()
    assert len(report.failures) == 6
    assert [line.startswith("  counterexample: ") for line in lines] == [False] + [True] * 5 + [False]
    assert lines[-1] == "  ... and 1 more"


def test_run_all_laws_is_green():
    reports = run_all_laws(max_binders=6, samples=100, seed=0)
    assert len(reports) == 9
    assert all(r.ok for r in reports), render_reports(reports)


def test_the_law_suites_trip_no_guarded_call(monkeypatch):
    # A law instance folds at most 8 binders, and the chain skip nests
    # nothing: no guarded call of the suites raises the recursion limit.
    trips = []
    monkeypatch.setattr(encoding, "_raise_limit", trips.append)
    assert all(r.ok for r in run_all_laws(max_binders=8, samples=1_000, seed=0))
    assert trips == []


def test_run_all_laws_reports_are_reproducible():
    a = run_all_laws(max_binders=3, samples=20, seed=5)
    b = run_all_laws(max_binders=3, samples=20, seed=5)
    assert [(r.suite, r.checked, len(r.failures)) for r in a] == [
        (r.suite, r.checked, len(r.failures)) for r in b
    ]


# ------------------------------------------------- property-based spot checks


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda j: st.one_of(
            st.sampled_from([BodySkeleton(j, Slot.ENV), BodySkeleton(j, Slot.FRESH)]),
            st.integers(min_value=0, max_value=max(j - 1, 0)).map(
                lambda i: BodySkeleton(j, i) if j else BodySkeleton(j, Slot.ENV)
            ),
        )
    )
)
def test_id_and_fold_hold_on_random_skeletons(skeleton):
    for ctx in standard_contexts():
        lhs, rhs = hom_sides(ctx.alg, ctx.alg, lambda x: x, skeleton, ctx.env_value, ctx.observe)
        assert lhs == rhs
        lhs, rhs = hom_sides(
            lam_alg(),
            ctx.alg,
            lambda t, alg=ctx.alg: fold(alg, t),
            skeleton,
            identity_term(),
            ctx.observe,
        )
        assert lhs == rhs


def test_poison_candidate_never_runs_inside_law_checks():
    # plumbing check: interpreting a lam_alg-built node with a fresh algebra
    # must not consult the algebra given at construction time
    poison = Poison()
    body = body_of_skeleton(BodySkeleton(1, Slot.FRESH), identity_term())
    t = lam_alg().interpret_lam(body, lambda a: a, poison.alg)
    assert fold(size_alg(), t) == size(db_to_hoas(to_debruijn(t)))
    assert poison.calls == 0
