import copy
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkelam import (
    BodySkeleton,
    CarrierContext,
    Report,
    Slot,
    Witness,
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
    hom_sides,
    identity_term,
    lam,
    lam_alg,
    print_alg,
    print_term,
    run_all_laws,
    size,
    size_alg,
    skeleton_pool,
    standard_contexts,
    to_debruijn,
    to_debruijn_alg,
)
from kripkelam import algebras, encoding
from kripkelam.algebras import names
from kripkelam.debruijn import DbTerm, _canonical_text, _chain
from kripkelam.laws import render_reports

from helpers import Poison, RenameCounter, reference_splitmix64, renamed
from test_algebras import _profiled


# ---------------------------------------------------------------- skeletons


def test_skeleton_enumeration_counts():
    # j binders contribute j + 2 leaves
    assert len(enumerate_skeletons(0)) == 2
    assert len(enumerate_skeletons(1)) == 5
    assert len(enumerate_skeletons(8)) == sum(j + 2 for j in range(9))


def test_enumerate_skeletons_counts_by_the_closed_formula():
    # sum over j <= n of (j + 2), in closed form: 54 at 8, 594 at 32.
    for n in range(65):
        assert len(enumerate_skeletons(n)) == (n + 1) * (n + 4) // 2


def test_the_library_makes_the_skeletons_the_public_constructor_makes():
    # enumerate_skeletons and skeleton_pool make theirs without __init__.
    made = enumerate_skeletons(16) + skeleton_pool(8, 300, 0)
    made += skeleton_pool(True, np.int64(3), np.int64(5)) + skeleton_pool(np.int64(3), True, True)
    for s in made:
        twin = BodySkeleton(s.binders, s.leaf)
        assert s == twin and hash(s) == hash(twin) and repr(s) == repr(twin)
        assert type(s.binders) is int
        assert isinstance(s.leaf, Slot) or type(s.leaf) is int


def test_a_skeleton_is_checked_when_it_is_made():
    for binders, leaf in ((1, 1), (2, 5), (2, -1), (0, 0)):
        with pytest.raises(ValueError) as err:
            BodySkeleton(binders, leaf)
        assert str(err.value) == f"leaf index {leaf} is not bound by {binders} local binders"
    with pytest.raises(ValueError, match="negative binder count: -1"):
        BodySkeleton(-1, Slot.FRESH)
    # What is made keeps the ints that validate read.
    s = BodySkeleton(np.int64(3), True)
    assert (s.binders, s.leaf) == (3, 1)
    assert type(s.binders) is int and type(s.leaf) is int
    assert repr(s) == "BodySkeleton(binders=3, leaf=1)"


def test_skeleton_validation():
    BodySkeleton(0, Slot.ENV).validate()
    BodySkeleton(3, 2).validate()
    with pytest.raises(ValueError):
        BodySkeleton(0, 0).validate()
    with pytest.raises(ValueError):
        BodySkeleton(2, 5).validate()
    with pytest.raises(ValueError):
        BodySkeleton(-1, Slot.ENV).validate()


# ------------------------------------------------------------------ records

_WITNESS = Witness(BodySkeleton(2, Slot.ENV), 1, 2)

# Each record with the repr it has always had; the values pickle.
_RECORDS = [
    (BodySkeleton(2, Slot.ENV), "BodySkeleton(binders=2, leaf=<Slot.ENV: 'env'>)"),
    (BodySkeleton(3, 1), "BodySkeleton(binders=3, leaf=1)"),
    (_WITNESS, "Witness(skeleton=BodySkeleton(binders=2, leaf=<Slot.ENV: 'env'>), lhs=1, rhs=2)"),
    (
        Witness(BodySkeleton(0, Slot.FRESH), "a", "b"),
        "Witness(skeleton=BodySkeleton(binders=0, leaf=<Slot.FRESH: 'fresh'>), lhs='a', rhs='b')",
    ),
    (
        Report("id_hom[size]", 1, [_WITNESS]),
        "Report(suite='id_hom[size]', checked=1, failures=[Witness(skeleton=BodySkeleton(binders=2, "
        "leaf=<Slot.ENV: 'env'>), lhs=1, rhs=2)])",
    ),
    (Report("fold_hom[print]"), "Report(suite='fold_hom[print]', checked=0, failures=[])"),
    (
        CarrierContext("size", None, 1, abs),
        "CarrierContext(label='size', alg=None, env_value=1, observe=<built-in function abs>)",
    ),
]


@pytest.mark.parametrize(
    "record, shown",
    _RECORDS,
    ids=["skeleton-slot", "skeleton-local", "witness", "witness-enumerated", "report", "report-new", "context"],
)
def test_a_law_record_copies_pickles_and_shows_as_it_always_has(record, shown):
    assert repr(record) == shown
    twins = [copy.copy(record), copy.deepcopy(record)]
    twins += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert twin == record and type(twin) is type(record) and repr(twin) == shown
    assert record != tuple(getattr(record, name) for name in type(record).__match_args__)


def test_a_law_record_is_made_by_position_or_keyword_and_matched_by_position():
    skeleton = BodySkeleton(binders=2, leaf=Slot.ENV)
    assert skeleton == BodySkeleton(2, Slot.ENV)
    assert Witness(skeleton=skeleton, lhs=1, rhs=2) == _WITNESS
    # The form perfbench/selftest.py uses.
    report = Report("stub", checked=1, failures=[_WITNESS])
    assert (report.suite, report.checked, report.failures) == ("stub", 1, [_WITNESS])
    context = CarrierContext(label="size", alg=None, env_value=1, observe=abs)
    assert context == CarrierContext("size", None, 1, abs)
    match skeleton, _WITNESS, report, context:
        case (
            BodySkeleton(2, Slot.ENV),
            Witness(BodySkeleton(2, Slot.ENV), 1, 2),
            Report("stub", 1, [Witness()]),
            CarrierContext("size", None, 1, observe),
        ):
            assert observe is abs
        case _:
            pytest.fail("a law record's fields match by position")


def test_the_frozen_law_records_hash_and_refuse_assignment():
    for record, twin in (
        (BodySkeleton(3, 1), BodySkeleton(np.int64(3), True)),
        (_WITNESS, Witness(BodySkeleton(2, Slot.ENV), 1, 2)),
        (CarrierContext("size", None, 1, abs), CarrierContext("size", None, 1, abs)),
    ):
        assert record == twin and hash(record) == hash(twin)
        for name in type(record).__match_args__:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert BodySkeleton(3, 1) != BodySkeleton(3, 2) and BodySkeleton(1, 0) != Witness(BodySkeleton(1, 0), 1, 1)


def test_a_report_is_unhashable_and_counts_into_its_own_new_list():
    first, second = Report("a"), Report("a")
    assert first == second and first.failures is not second.failures
    first.checked += 1
    first.failures.append(_WITNESS)
    assert (second.checked, second.failures) == (0, [])
    assert first != second
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)


@pytest.mark.parametrize("binders", [1.5, 1.0, "1", None])
def test_a_binder_count_or_bound_that_is_no_integer_is_rejected(binders):
    # A drawn skeleton with a bound of 1.5 once had 1.0 binders, and
    # hom_sides on BodySkeleton(1.5, Slot.ENV) observed (3.5, 3.5).
    with pytest.raises(TypeError) as err:
        BodySkeleton(binders, Slot.ENV).validate()
    assert str(err.value) == f"a skeleton's binder count is an integer, not {binders!r}"
    with pytest.raises(TypeError, match="a skeleton's binder count is an integer"):
        hom_sides(size_alg(), size_alg(), lambda n: n, BodySkeleton(binders, Slot.ENV), 1, lambda n: n)
    with pytest.raises(TypeError) as err:
        skeleton_pool(binders, 1, 1)
    assert str(err.value) == f"a binder bound is an integer, not {binders!r}"
    # enumerate_skeletons("1") once raised a bare '<' and 1.5 one from range;
    # a seed of 1.5 raised one from splitmix64's arithmetic.
    with pytest.raises(TypeError) as err:
        enumerate_skeletons(binders)
    assert str(err.value) == f"a binder bound is an integer, not {binders!r}"
    with pytest.raises(TypeError) as err:
        skeleton_pool(1, 1, binders)
    assert str(err.value) == f"a seed is an integer, not {binders!r}"


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


def test_skeleton_pool_is_deterministic_and_well_formed():
    pool = skeleton_pool(4, 300, 0)
    assert pool == skeleton_pool(4, 300, 0)
    for s in pool:
        s.validate()
        assert s.binders <= 16


def test_skeleton_pool_mixes_enumerated_and_generated():
    pool = skeleton_pool(3, 10, seed=7)
    enumerated = enumerate_skeletons(3)
    assert len(pool) == len(enumerated) + 10
    assert pool[: len(enumerated)] == enumerated
    # One drawn skeleton per seed: the pool from seed 8 is the tail from seed 7.
    assert skeleton_pool(3, 9, seed=8)[len(enumerated) :] == pool[len(enumerated) + 1 :]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63])
def test_the_pool_tail_is_drawn_by_splitmix64(seed):
    # Recomputed with the tests' numpy splitmix64: two draws per seed give
    # draw0 mod (4 * 32 + 1) binders and the leaf draw1 mod (binders + 2),
    # read as env, fresh, then local 0, 1, ...
    expected = []
    for s in range(seed, seed + 300):
        draw0, state = reference_splitmix64(s)
        draw1, _ = reference_splitmix64(state)
        binders = draw0 % 129
        choice = draw1 % (binders + 2)
        expected.append(BodySkeleton(binders, [Slot.ENV, Slot.FRESH, *range(binders)][choice]))
    assert skeleton_pool(32, 300, seed)[len(enumerate_skeletons(32)) :] == expected


def test_negative_pool_bounds_are_rejected():
    with pytest.raises(ValueError, match="max_binders must be nonnegative"):
        enumerate_skeletons(-1)
    with pytest.raises(ValueError, match="max_binders must be nonnegative"):
        skeleton_pool(-1, 0, seed=0)
    with pytest.raises(ValueError, match="max_binders must be nonnegative"):
        skeleton_pool(-1, 5, seed=0)
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        skeleton_pool(2, -1, seed=0)
    # Two bad arguments: the sample count is checked after the seed is
    # read, and before the binder bound.
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        skeleton_pool(-1, -1, 0)
    with pytest.raises(TypeError) as err:
        skeleton_pool(8, -1, "x")
    assert str(err.value) == "a seed is an integer, not 'x'"
    with pytest.raises(ValueError):
        run_all_laws(max_binders=-1, samples=0)
    # run_all_laws(1, 1, "3") once raised "can only concatenate str (not
    # "int") to str"; a sample count of 2.5 one from range.
    for bad in (2.5, "3", None):
        for pool in (skeleton_pool, run_all_laws):
            with pytest.raises(TypeError) as err:
                pool(1, bad, 0)
            assert str(err.value) == f"a sample count is an integer, not {bad!r}"
            with pytest.raises(TypeError) as err:
                pool(1, 1, bad)
            assert str(err.value) == f"a seed is an integer, not {bad!r}"


def test_a_bool_or_numpy_count_bound_or_seed_is_its_int():
    for one, three in ((True, 3), (1, np.int64(3))):
        assert BodySkeleton(three, one).validate() == (3, 1)
        assert BodySkeleton(one, Slot.ENV).validate() == (1, Slot.ENV)
        assert type(BodySkeleton(three, three - 1).validate()[0]) is int
        sides = hom_sides(size_alg(), size_alg(), lambda n: n, BodySkeleton(three, one), 1, lambda n: n)
        assert sides == (5, 5) and all(type(side) is int for side in sides)
        assert enumerate_skeletons(three) == enumerate_skeletons(3)
        assert skeleton_pool(three, one, one) == skeleton_pool(3, 1, 1)
        pool = skeleton_pool(one, three, three)
        assert pool == skeleton_pool(1, 3, 3)
        assert all(type(s.binders) is int for s in pool)
        assert run_all_laws(one, three, three) == run_all_laws(1, 3, 3)


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
    for s in enumerate_skeletons(6):
        lhs, rhs = hom_sides(size_alg(), size_alg(), lambda x: x, s, 1, lambda n: n)
        assert lhs == rhs


def test_fold_is_a_homomorphism_from_lam_alg():
    for s in enumerate_skeletons(6):
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
            ctx.alg, enumerate_skeletons(8), env_value=ctx.env_value, observe=ctx.observe
        )
        assert report.ok, render_reports([report])
        assert report.checked == len(enumerate_skeletons(8))


def test_fold_hom_suite_passes_for_all_standard_carriers():
    for ctx in standard_contexts():
        report = check_fold_hom(ctx.alg, enumerate_skeletons(8), observe=ctx.observe)
        assert report.ok, render_reports([report])


def test_compose_hom_of_fold_and_identity():
    for ctx in standard_contexts():
        report = check_compose_hom(
            lam_alg(),
            ctx.alg,
            ctx.alg,
            lambda t, alg=ctx.alg: fold(alg, t),
            lambda x: x,
            enumerate_skeletons(8),
            env_value=identity_term(),
            observe=ctx.observe,
        )
        assert report.ok, render_reports([report])


def test_a_wrong_first_leg_is_refuted_by_the_compose_suite():
    # Sending every term to the identity term agrees with folding only on
    # the identity body, so the compose suite refutes every other skeleton,
    # while the fold suite, which has no first leg, passes on the same pool.
    pool = enumerate_skeletons(8)
    refutable = [s for s in pool if s != BodySkeleton(0, Slot.FRESH)]
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
        enumerate_skeletons(5),
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
        enumerate_skeletons(4),
        env_value=1,
        observe=lambda n: n,
    )
    assert not report.ok
    witness = report.failures[0]
    # the witness re-evaluates to the same disagreement
    sides = hom_sides(size_alg(), size_alg(), lambda x: x + 1, witness.skeleton, 1, lambda n: n)
    assert sides == (witness.lhs, witness.rhs)
    assert witness.lhs != witness.rhs


def test_check_hom_refutes_the_successor_on_every_leaf_but_the_env_slot():
    pool = skeleton_pool(2, 20, 0)
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
    # successor shifts the environment value on both sides equally, so the
    # counterexamples are exactly the non-env leaves
    non_env = [s for s in pool if s.leaf is not Slot.ENV]
    assert len(report.failures) == len(non_env)
    assert all(w.skeleton.leaf is not Slot.ENV for w in report.failures)


def test_empty_skeleton_set_is_a_vacuous_pass():
    report = check_id_hom(size_alg(), [], env_value=1, observe=lambda n: n)
    assert report.ok
    assert report.checked == 0


def test_report_rendering_mentions_counts():
    report = check_id_hom(size_alg(), enumerate_skeletons(2), env_value=1, observe=lambda n: n)
    text = render_reports([report])
    assert "id_hom[size]" in text
    assert "9 checked" in text
    assert "[ok]" in text


def test_report_rendering_shows_five_witnesses_and_counts_the_rest():
    # The successor refutes every skeleton whose leaf is no env slot.
    report = check_hom(
        size_alg(), size_alg(), lambda n: n + 1, enumerate_skeletons(2), env_value=1, observe=lambda n: n, suite="succ"
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
    # nothing: no guarded call of the suites fires its tripwire.
    # At the default bound a skeleton has up to 32 binders, and its chain
    # is still skipped in one charge.
    trips = []
    trip = encoding._trip
    monkeypatch.setattr(encoding, "_trip", lambda budget, n: (trips.append(n), trip(budget, n)))
    assert all(r.ok for r in run_all_laws(max_binders=8, samples=1_000, seed=0))
    reports = run_all_laws()
    assert all(r.ok for r in reports) and [r.checked for r in reports] == [594] * 9
    assert trips == []


def test_check_hom_validates_no_skeleton_of_its_pool(monkeypatch):
    # Each skeleton was checked when it was made; a law instance checks
    # nothing again.
    validated = []
    real = BodySkeleton.validate

    def counting(skeleton):
        validated.append(skeleton)
        return real(skeleton)

    monkeypatch.setattr(BodySkeleton, "validate", counting)
    pool = skeleton_pool(3, 20, 5) + [BodySkeleton(4, 2)]
    assert len(validated) == 1
    for ctx in standard_contexts():
        report = check_hom(
            ctx.alg, ctx.alg, lambda x: x, pool, env_value=ctx.env_value, observe=ctx.observe
        )
        assert report.ok and report.checked == len(pool)
        assert check_fold_hom(ctx.alg, pool, observe=ctx.observe).ok
    assert len(validated) == 1


_THREE_SKELETONS = [BodySkeleton(0, Slot.ENV), BodySkeleton(1, Slot.FRESH), BodySkeleton(2, 0)]


@pytest.mark.parametrize(
    "label, suite, calls",
    [
        ("size", "id", 64),
        ("size", "fold", 99),
        ("size", "compose", 137),
        ("print", "id", 80),
        ("print", "fold", 109),
        ("print", "compose", 147),
        ("debruijn", "id", 79),
        ("debruijn", "fold", 112),
        ("debruijn", "compose", 150),
    ],
    ids=[
        "size-id",
        "size-fold",
        "size-compose",
        "print-id",
        "print-fold",
        "print-compose",
        "debruijn-id",
        "debruijn-fold",
        "debruijn-compose",
    ],
)
def test_a_law_instance_costs_a_fixed_number_of_python_calls(label, suite, calls):
    # calls is what three instances cost on top of a suite's fixed cost: the
    # Python calls of a suite over the three skeletons twice, less those over
    # them once. An instance builds its body from the skeleton's fields and
    # checks nothing, and makes its de Bruijn variables without Var's check.
    # An applied carrier whose chain ends in a bound variable reads the
    # observation from the variable and the level: it calls no variable and
    # makes no name stream.
    ctx = next(c for c in standard_contexts() if c.label == label)
    if suite == "id":
        run = partial(check_id_hom, ctx.alg, env_value=ctx.env_value, observe=ctx.observe)
    elif suite == "fold":
        run = partial(check_fold_hom, ctx.alg, observe=ctx.observe)
    else:
        run = partial(
            check_compose_hom,
            lam_alg(),
            lam_alg(),
            ctx.alg,
            partial(fold, lam_alg()),
            partial(fold, ctx.alg),
            env_value=identity_term(),
            observe=ctx.observe,
        )
    assert run(_THREE_SKELETONS).ok
    twice, once = (_profiled(partial(run, _THREE_SKELETONS * n))[0] for n in (2, 1))
    assert twice - once == calls


def _read_by_applying(value):
    """The observation of a standard carrier's ``value`` with the end of its
    chain applied, as it is for an end that is no bound variable: the name
    stream that is left, or the depth reached, handed to the end."""
    if type(value) is algebras._PrintCarrier:
        n, c = encoding._chain_end(value.body, value.alg, 1, algebras._Name, print_alg(), algebras._PrintCarrier)
        return _canonical_text(1, n - 1) + algebras._applied(c, names(n), str)
    if type(value) is algebras._DepthCarrier:
        level, c = encoding._chain_end(
            value.body, value.alg, 2, algebras._Level, to_debruijn_alg(), algebras._DepthCarrier
        )
        inner = algebras._applied(c, level - 1, DbTerm)
        return _chain(level - 2 + inner.binders, inner.occurrence)
    return value


@pytest.mark.parametrize("ctx", standard_contexts(), ids=lambda ctx: ctx.label)
def test_a_carrier_reads_a_bound_variable_as_applying_it_would(ctx):
    # Both sides of every instance of the identity, composition and fold
    # suites, observed by the context and by applying the chain's end.
    def both(value):
        return ctx.observe(value), _read_by_applying(value)

    suites = [
        (ctx.alg, lambda x: x, ctx.env_value),
        (lam_alg(), lambda t: fold(ctx.alg, fold(lam_alg(), t)), identity_term()),
        (lam_alg(), partial(fold, ctx.alg), identity_term()),
    ]
    for skeleton in enumerate_skeletons(8):
        for alg1, h, env_value in suites:
            lhs, rhs = hom_sides(alg1, ctx.alg, h, skeleton, env_value, both)
            assert lhs[0] == lhs[1] == rhs[0] == rhs[1]


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
