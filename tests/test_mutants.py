"""Mutant table: plausible slips in the optimized core, and the check that catches each.

Each row patches one private function with a wrong variant and names the
check that must fail under it; an unpatched row, or the row itself before
it patches, asserts that the same checks pass.
"""

import inspect
import sys
import textwrap
from functools import partial

import pytest

from kripkelam import (
    Algebra,
    DepthLimitError,
    algebras,
    closed,
    db_to_hoas,
    debruijn,
    encoding,
    fold,
    lam_alg,
    names,
    place,
    print_alg,
    run_guarded,
    size,
)

import helpers
from helpers import (
    SIX_RUNS,
    chain,
    check_a_deep_foreign_fold_raises_the_limit_while_it_runs,
    check_calls_that_nest_nothing_leave_the_limit_alone,
    check_chains_agree_with_closures,
    check_guard_charges_k_binders,
    closure_chain,
    reference_parse_db,
)
from test_algebras import _no_size
from test_algebras import test_carriers_apply_at_depth_outside_the_guard as _carriers_outside_the_guard
from test_algebras import test_a_fold_keeps_few_tracked_objects_alive_per_binder as _keeps_few_alive
from test_algebras import test_a_size_fold_of_a_held_value_that_is_no_size_is_a_type_error as _held_no_size
from test_algebras import test_a_type_error_raised_inside_a_carriers_last_value_is_its_own as _carriers_own_error
from test_algebras import (
    test_an_applied_carrier_ending_in_a_value_that_gives_no_text_or_term_is_a_type_error as _applied_no_text,
)
from test_algebras import test_an_occurrence_no_binder_bound_is_a_type_error as _no_binder_bound
from test_algebras import test_the_print_carrier_names_binders_from_any_start as _names_from_any_start
from test_debruijn import _outcome
from test_debruijn import test_a_long_binder_run_is_read_in_chunks_that_split_no_name as _chunks_split_no_name
from test_debruijn import test_format_db_text_is_read_without_the_match as _read_without_the_match
from test_encoding import test_a_term_interpreted_outside_any_guarded_call_charges_nothing as _charges_nothing_outside
from test_encoding import (
    test_walking_a_term_folded_through_lam_alg_many_times_relies_on_the_raised_limit as _lam_alg_tower_walks,
)


def _guard_checks():
    # The k / k - 1 budget check of test_the_guard_counts_each_binder_once_on_
    # every_path, on the two kinds of term that take the skip.
    k = 60
    t = db_to_hoas(chain(k, k // 2))
    for u in (t, fold(lam_alg(), t)):
        for run in SIX_RUNS:
            yield partial(check_guard_charges_k_binders, run, u, k)


def _fails(check) -> bool:
    try:
        check()
    except (AssertionError, pytest.fail.Exception):  # pytest.raises fails with the latter
        return True
    return False


def _with_line(module, name: str, old: str, new: str):
    """``module.name`` with the one line ``old`` of its source read as ``new``;
    ``name`` may be a method's, as in ``"Algebra.interpret_lam"``."""
    function = module
    for part in name.split("."):
        function = getattr(function, part)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    scope = {}
    exec(source.replace(old, new), vars(module), scope)
    return scope[function.__name__]


@pytest.mark.parametrize(
    "old, new, differential_fails, guard_fails",
    [
        (None, None, False, False),
        # Reads the occurrence from the step after the one that captures it.
        ("named = below - opened.index", "named = below - opened.index + 1", True, False),
        # Charges the binders under the chain binder but not the binder itself.
        ("_charge(budget, below + 1)", "_charge(budget, below)", True, True),
    ],
    ids=["unpatched", "step-off-by-one", "charges-below"],
)
def test_the_chain_skip(monkeypatch, old, new, differential_fails, guard_fails):
    if old is not None:
        monkeypatch.setattr(algebras, "_chain_end", _with_line(algebras, "_chain_end", old, new))
    assert _fails(lambda: check_chains_agree_with_closures(40)) is differential_fails
    assert [_fails(check) for check in _guard_checks()] == [guard_fails] * 2 * len(SIX_RUNS)


# A wrapped print_alg: a skip of its chain binders hides them from the wrapper.
_wrapped_print_check = partial(_keeps_few_alive, algebras.print_alg(), lambda v: v(algebras.names(1)), 1)

_APPLIED = [
    (algebras.size_alg(), lambda v: v),
    (algebras.print_alg(), lambda v: v(names(1))),
    (algebras.to_debruijn_alg(), lambda v: v(1)),
]


def _wrapper_sees_every_closure_binder(alg, apply):
    # A wrapper of a library algebra is no algebra of the library's own, so
    # each lam/place binder of the chain goes through it.
    k = 50
    binders = 0

    def counting(body, embed, candidate):
        nonlocal binders
        binders += 1
        return alg.interpret_lam(body, embed, candidate)

    wrapper = Algebra(counting, name="counting")
    run_guarded(lambda: apply(fold(wrapper, closure_chain(k, k // 2))), 2 * k)
    assert binders == k


# The k / k - 1 budget check on a chain of lam/place closures, which the
# loop steps in place under the library's own algebras.
_closure_guard_checks = [partial(check_guard_charges_k_binders, run, closure_chain(60, 30), 60) for run in SIX_RUNS]


@pytest.mark.parametrize(
    "old, new, checks",
    [
        ("if alg is own and type(opened) is _ChainBinder", "if type(opened) is _ChainBinder", [_wrapped_print_check]),
        ("var(level + named)", "var(level + named + 1)", [partial(check_chains_agree_with_closures, 40)]),
        (
            "elif alg is own and type(opened) is _Lam",
            "elif type(opened) is _Lam",
            [partial(_wrapper_sees_every_closure_binder, alg, apply) for alg, apply in _APPLIED],
        ),
        ("_charge(budget, 1)", "pass", _closure_guard_checks),
    ],
    ids=["skip-any-algebra", "skip-level-off-by-one", "step-any-algebra", "step-uncharged"],
)
def test_the_shared_chain_loop(monkeypatch, old, new, checks):
    assert not any(_fails(check) for check in checks)
    monkeypatch.setattr(algebras, "_chain_end", _with_line(algebras, "_chain_end", old, new))
    assert all(_fails(check) for check in checks)


def _within_the_stack(check):
    """``check``, failing as an assertion where it runs out of stack."""

    def run():
        try:
            check()
        except RecursionError:
            raise AssertionError(f"{check.__name__} ran out of stack") from None

    return run


@pytest.mark.parametrize(
    "module, name, patched, old, new, check",
    [
        (
            encoding,
            "Algebra.interpret_lam",
            [(encoding.Algebra, "interpret_lam")],
            "if budget.left < budget.trip:",
            "if budget.left < 0:",
            check_a_deep_foreign_fold_raises_the_limit_while_it_runs,
        ),
        (
            encoding,
            "_charge",
            [(encoding, "_charge"), (algebras, "_charge")],
            "budget.trip = budget.trip - n if budget.trip > n else 0",
            "pass",
            check_calls_that_nest_nothing_leave_the_limit_alone,
        ),
        # lam_alg holds the function it was made with.
        (encoding, "_rebuild_lam", [(lam_alg(), "_interpret")], "budget.trip += 1", "pass", _lam_alg_tower_walks),
        (
            encoding,
            "run_guarded",
            [(encoding, "run_guarded"), (algebras, "run_guarded")],
            "_restore_limit()",
            "pass",
            check_a_deep_foreign_fold_raises_the_limit_while_it_runs,
        ),
    ],
    ids=["tick-trips-at-zero", "charge-keeps-the-trip-point", "shifted-untick", "no-restore"],
)
def test_the_trip(monkeypatch, module, name, patched, old, new, check):
    check = _within_the_stack(check)
    assert not _fails(check)
    mutant = _with_line(module, name, old, new)
    for owner, attribute in patched:
        monkeypatch.setattr(owner, attribute, mutant)
    # A dropped restore leaves the limit raised and the call counted in flight.
    monkeypatch.setattr(encoding, "_in_flight", encoding._in_flight)
    limit = sys.getrecursionlimit()
    try:
        assert _fails(check)
    finally:
        sys.setrecursionlimit(limit)


def test_the_budget_is_cleared_on_exit(monkeypatch):
    # A budget left on the thread makes the next top-level call there a
    # nested one, which spends what is left of the old budget, not its own.
    check = partial(check_guard_charges_k_binders, size, db_to_hoas(chain(60, 30)), 60)
    assert not _fails(check)
    mutant = _with_line(encoding, "run_guarded", "budget.limit = 0", "pass")
    for owner in (encoding, algebras, helpers):
        monkeypatch.setattr(owner, "run_guarded", mutant)
    try:
        assert _fails(check)
    finally:
        encoding._guard.budget.limit = 0


def _charging_nothing(check):
    """``check``, failing as an assertion where it raises ``DepthLimitError``."""

    def run():
        try:
            check()
        except DepthLimitError as err:
            raise AssertionError(f"{check.__name__} was charged: {err}") from None

    return run


@pytest.mark.parametrize(
    "name, patched, check",
    [
        ("Algebra.interpret_lam", [(encoding.Algebra, "interpret_lam")], _charges_nothing_outside),
        ("_charge", [(encoding, "_charge"), (algebras, "_charge")], _carriers_outside_the_guard),
        # lam_alg holds the function it was made with.
        ("_rebuild_lam", [(lam_alg(), "_interpret")], _charges_nothing_outside),
    ],
    ids=["idle-tick-charges", "idle-charge-charges", "idle-shifted-charges"],
)
def test_an_idle_budget_charges_nothing(monkeypatch, name, patched, check):
    # Outside any guarded call the thread's budget has a limit of 0, and
    # each charge site tests it before it charges.
    check = _charging_nothing(check)
    assert not _fails(check)
    mutant = _with_line(encoding, name, "if budget.limit:", "if True:")
    for owner, attribute in patched:
        monkeypatch.setattr(owner, attribute, mutant)
    # An idle charge that fires the tripwire raises the limit for no call.
    monkeypatch.setattr(encoding, "_in_flight", encoding._in_flight)
    limit = sys.getrecursionlimit()
    try:
        assert _fails(check)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "name, patched, old, new, check",
    [
        # An entry point takes whatever ends the chain for the level of the
        # binder the occurrence names: size(place(42) under one binder) is 2.
        (
            "_unfold",
            [(algebras, "_unfold")],
            "if type(end) is not _Level:",
            "if False:",
            partial(_no_binder_bound, size, closed(lambda mo, x: place(42)), "42"),
        ),
        # Every TypeError is read as a refused call, also one raised inside
        # the function that ends a carrier's chain.
        (
            "_raise_if_refused",
            [(algebras, "_raise_if_refused")],
            "if err.__traceback__.tb_next is None:",
            "if True:",
            partial(_carriers_own_error, lambda t: fold(print_alg(), t)(names(1))),
        ),
        # The print carrier joins a value that gives no text to the binder
        # prefixes.
        (
            "_applied",
            [(algebras, "_applied")],
            "if not isinstance(out, kind):",
            "if False:",
            partial(_applied_no_text, lambda t: fold(print_alg(), t)(names(1))),
        ),
        # The size fold adds a held function to the binder count; size_alg
        # holds the function it was made with.
        (
            "_size_lam",
            [(algebras.size_alg(), "_interpret")],
            "if not isinstance(value, int):",
            "if False:",
            partial(_held_no_size, closed(lambda mo, x: place(_no_size))),
        ),
    ],
    ids=["unfold-any-end", "every-type-error-refused", "applied-any-value", "size-any-value"],
)
def test_the_ill_formed_checks(monkeypatch, name, patched, old, new, check):
    assert not _fails(check)
    mutant = _with_line(algebras, name, old, new)
    for owner, attribute in patched:
        monkeypatch.setattr(owner, attribute, mutant)
    assert _fails(check)


# The long binder-run scan with its chunks cut at a fixed width: on a run of
# three chunks or more, one of the cuts falls inside a 300-character name.
_chunk_checks = [partial(_chunks_split_no_name, 3 * 4_096 + d, 300) for d in (-3, 0, 3)]


def test_the_chunked_name_scan(monkeypatch):
    assert not any(_fails(check) for check in _chunk_checks)
    cut = 'text.find(".", pos + _LISTED_RUN, run) + 1 or run'
    mutant = _with_line(debruijn, "_chunked_names", cut, "min(pos + _LISTED_RUN, run)")
    monkeypatch.setattr(debruijn, "_chunked_names", mutant)
    assert all(_fails(check) for check in _chunk_checks)


@pytest.mark.parametrize(
    "old, new, starts",
    [
        ("table[start - 1 : last]", "table[start : last]", [1, 2, 9_995]),
        ("if 1 <= start and last", "if last", [-2, 0]),
    ],
    ids=["slice-off-by-one", "no-start-check"],
)
def test_the_name_table(monkeypatch, old, new, starts):
    # The print carrier's differential over names(start), with the table
    # empty and full; algebras holds its own reference to _canonical.
    checks = [partial(_names_from_any_start, monkeypatch, table, s) for table in ("empty", "full") for s in starts]
    assert not any(_fails(check) for check in checks)
    mutant = _with_line(debruijn, "_canonical", old, new)
    monkeypatch.setattr(debruijn, "_canonical", mutant)
    monkeypatch.setattr(algebras, "_canonical", mutant)
    assert all(_fails(check) for check in checks)


# Both branches of the name listing: a run under 4,096 characters is split
# in one go, a longer one a chunk at a time.
_split_checks = [partial(_chunks_split_no_name, length, 1) for length in (4_095, 4_097)]


@pytest.mark.parametrize(
    "old",
    ['.replace("\\\\", " ")', '.replace("λ", " ")', '.replace(".", " ")'],
    ids=["backslash-kept", "lambda-kept", "dot-kept"],
)
def test_the_name_split(monkeypatch, old):
    assert not any(_fails(check) for check in _split_checks)
    monkeypatch.setattr(debruijn, "_names", _with_line(debruijn, "_names", old, ""))
    assert all(_fails(check) for check in _split_checks)


def _db_agrees_with_the_reference(text):
    assert _outcome(debruijn.parse_db, text) == _outcome(reference_parse_db, text)


def _db_text_is_read_without_the_match(k):
    with pytest.MonkeyPatch.context() as patch:
        _read_without_the_match(patch, k)


@pytest.mark.parametrize(
    "old, new, checks",
    [
        # The prefix then only has to be five characters a binder long.
        (
            ' and line.count("Lam (", 0, 5 * k) == k',
            "",
            [partial(_db_agrees_with_the_reference, t) for t in ("Lam(xVar 0)", "Lam((Lam (Var 0))")],
        ),
        # The digits run into a closing paren: format_db text takes the match.
        ("len(line) - k", "len(line) - k + 1", [partial(_db_text_is_read_without_the_match, k) for k in (0, 7)]),
        # The last digit is read as a closing paren.
        ("len(line) - k", "len(line) - k - 1", [partial(_db_agrees_with_the_reference, "Lam (Var 12)")]),
        # 5,000 leading zeros are more digits than int() converts.
        ('digits.lstrip("0") or "0"', "digits", [partial(_db_agrees_with_the_reference, f"Lam (Var {'0' * 5_000})")]),
    ],
    ids=["no-prefix-check", "closers-one-short", "closers-one-over", "no-lstrip"],
)
def test_the_de_bruijn_parser(monkeypatch, old, new, checks):
    assert not any(_fails(check) for check in checks)
    monkeypatch.setattr(debruijn, "parse_db", _with_line(debruijn, "parse_db", old, new))
    assert all(_fails(check) for check in checks)
