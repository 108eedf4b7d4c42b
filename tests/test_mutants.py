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

import kripkelam.cli as cli
from kripkelam import (
    Algebra,
    DepthLimitError,
    Lam,
    Var,
    algebras,
    closed,
    db_to_hoas,
    debruijn,
    encoding,
    enumerate_skeletons,
    enumerate_terms,
    fold,
    gen_term,
    lam_alg,
    laws,
    names,
    place,
    print_alg,
    run_guarded,
    size,
    skeleton_pool,
)

import test_debruijn
import test_laws
from helpers import (
    SIX_RUNS,
    chain,
    check_a_deep_foreign_fold_raises_the_limit_while_it_runs,
    check_a_limit_set_inside_a_tripped_call_stays,
    check_a_tripped_call_keeps_its_limit_near_its_stack,
    check_applied_variables_agree,
    check_calls_that_nest_nothing_leave_the_limit_alone,
    check_chains_agree_with_closures,
    check_guard_charges_k_binders,
    closure_chain,
    reference_parse_db,
    reference_parse_named,
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
from test_algebras import test_a_name_stream_rejects_a_start_that_is_no_integer as _start_no_integer
from test_algebras import test_a_de_bruijn_carrier_value_reads_a_bool_or_numpy_depth_as_its_int as _bool_depth
from test_algebras import test_entry_points_equal_their_folds_at_the_canonical_argument as _entries_equal_folds
from test_algebras import test_name_streams_are_immutable_values as _name_streams_immutable
from test_debruijn import _outcome
from test_debruijn import test_a_de_bruijn_index_that_is_no_integer_is_rejected as _index_no_integer
from test_debruijn import test_a_long_binder_run_is_read_in_chunks_that_split_no_name as _chunks_split_no_name
from test_debruijn import test_a_name_the_named_syntax_cannot_spell_is_rejected as _name_cannot_spell
from test_debruijn import test_enumerate_terms_checks_its_bound_at_the_call as _bound_at_the_call
from test_debruijn import test_format_db_rejects_a_negative_index as _format_db_negative
from test_debruijn import test_format_db_text_is_read_without_the_match as _read_without_the_match
from test_debruijn import test_named_text_is_read_without_the_match as _named_read_without_the_match
from test_debruijn import test_render_named_slices_the_table_only_for_its_names as _render_slices_only_its_names
from test_debruijn import test_gen_term_rejects_a_bound_that_is_no_integer as _depth_bound_no_integer
from test_encoding import (
    test_a_deep_fold_after_many_shallow_ones_in_one_call_gets_its_limit_in_time as _deep_after_shallow,
)
from test_encoding import test_a_max_depth_that_is_no_integer_is_named as _max_depth_named
from test_encoding import test_a_term_interpreted_outside_any_guarded_call_charges_nothing as _charges_nothing_outside
from test_encoding import (
    test_walking_a_term_folded_through_lam_alg_many_times_relies_on_the_raised_limit as _lam_alg_tower_walks,
)
from test_laws import _RECORDS
from test_laws import test_a_carrier_reads_a_bound_variable_as_applying_it_would as _reads_as_applying
from test_laws import test_a_binder_count_or_bound_that_is_no_integer_is_rejected as _binders_no_integer
from test_laws import test_a_law_record_copies_pickles_and_shows_as_it_always_has as _record_copies
from test_laws import test_a_skeleton_is_checked_when_it_is_made as _checked_when_made
from test_laws import test_body_of_skeleton_rejects_malformed as _body_rejects_malformed
from test_laws import test_negative_pool_bounds_are_rejected as _pool_bounds
from test_laws import test_the_frozen_law_records_hash_and_refuse_assignment as _frozen_refuse_assignment
from test_laws import test_the_pool_tail_is_drawn_by_splitmix64 as _pool_tail_drawn


def _guard_checks():
    # The k / k - 1 budget check of test_the_guard_counts_each_binder_once_on_
    # every_path, on the two kinds of term that take the skip.
    k = 60
    t = db_to_hoas(chain(k, k // 2))
    for u in (t, fold(lam_alg(), t)):
        for run in SIX_RUNS:
            yield partial(check_guard_charges_k_binders, run, u, k)


def _fails(check) -> bool:
    # A check fails when it raises: an assertion, pytest.raises missing its
    # error, or an error under the mutant, such as the ParseError of a
    # parser that rejects a valid text. Each row first runs its checks
    # unpatched, where any of these fails the row.
    try:
        check()
    except (Exception, pytest.fail.Exception):
        return True
    return False


def _patch_the_chain_loop(monkeypatch, old, new):
    # The loop lives in encoding; algebras imported it by name.
    mutant = _with_line(encoding, "_chain_end", old, new)
    for owner in (encoding, algebras):
        monkeypatch.setattr(owner, "_chain_end", mutant)


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
        ("n = below + 1", "n = below", True, True),
    ],
    ids=["unpatched", "step-off-by-one", "charges-below"],
)
def test_the_chain_skip(monkeypatch, old, new, differential_fails, guard_fails):
    if old is not None:
        _patch_the_chain_loop(monkeypatch, old, new)
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
        (
            "if alg is own and (type(opened) is _Lam or type(opened) is _ChainBinder):",
            "if type(opened) is _ChainBinder or alg is own and type(opened) is _Lam:",
            [_wrapped_print_check],
        ),
        ("var(level + named)", "var(level + named + 1)", [partial(check_chains_agree_with_closures, 40)]),
        (
            "if alg is own and (type(opened) is _Lam or type(opened) is _ChainBinder):",
            "if type(opened) is _Lam or alg is own and type(opened) is _ChainBinder:",
            [partial(_wrapper_sees_every_closure_binder, alg, apply) for alg, apply in _APPLIED],
        ),
        ("n = 1", "n = 0", _closure_guard_checks),
        # Counts an in-place step as two levels: Lam(Lam(Var(0))) refutes it.
        ("continue", "level += 1; continue", [partial(check_chains_agree_with_closures, 8)]),
    ],
    ids=["skip-any-algebra", "skip-level-off-by-one", "step-any-algebra", "step-uncharged", "step-level-twice"],
)
def test_the_shared_chain_loop(monkeypatch, old, new, checks):
    assert not any(_fails(check) for check in checks)
    _patch_the_chain_loop(monkeypatch, old, new)
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
            "_chain_end",
            [(encoding, "_chain_end"), (algebras, "_chain_end")],
            "budget.trip = budget.trip - n if budget.trip > n else 0",
            "pass",
            check_calls_that_nest_nothing_leave_the_limit_alone,
        ),
        # lam_alg holds the function it was made with.
        (encoding, "_rebuild_lam", [(lam_alg(), "_interpret")], "budget.trip += 1", "pass", _lam_alg_tower_walks),
        # The guarded entry: run_guarded and fold look it up in encoding.
        (
            encoding,
            "_guarded",
            [(encoding, "_guarded"), (algebras, "_guarded"), (laws, "_guarded")],
            "_restore_limit()",
            "pass",
            check_a_deep_foreign_fold_raises_the_limit_while_it_runs,
        ),
        # The tripwire fires once and never again, so a deep fold keeps the
        # limit of its first, shallow measurement.
        (
            encoding,
            "_trip",
            [(encoding, "_trip")],
            "budget.trip = budget.left - units if budget.left > units else 0",
            "budget.trip = 0",
            check_a_deep_foreign_fold_raises_the_limit_while_it_runs,
        ),
        # The next look waits for as many units again as the call made,
        # also when they did not nest.
        (
            encoding,
            "_trip",
            [(encoding, "_trip")],
            "min(2 * budget.units + 1, depth // 2)",
            "2 * budget.units + 1",
            _deep_after_shallow,
        ),
        (
            encoding,
            "_trip",
            [(encoding, "_trip")],
            "need = _STACK_MULTIPLE * depth",
            "need = 2 * depth",
            check_a_tripped_call_keeps_its_limit_near_its_stack,
        ),
        # A call counted in flight at each of its fires leaves the count
        # above 0 when it ends, so the limit is never put back.
        (
            encoding,
            "_trip",
            [(encoding, "_trip")],
            "if not budget.units:",
            "if True:",
            check_a_deep_foreign_fold_raises_the_limit_while_it_runs,
        ),
        (
            encoding,
            "_restore_limit",
            [(encoding, "_restore_limit")],
            "sys.getrecursionlimit() == _limit_set",
            "True",
            check_a_limit_set_inside_a_tripped_call_stays,
        ),
    ],
    ids=[
        "tick-trips-at-zero",
        "charge-keeps-the-trip-point",
        "shifted-untick",
        "no-restore",
        "no-rearm",
        "no-stack-cap",
        "multiple-two",
        "in-flight-every-fire",
        "any-limit-is-ours",
    ],
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
    mutant = _with_line(encoding, "_guarded", "budget.limit = 0", "pass")
    for owner in (encoding, algebras, laws):
        monkeypatch.setattr(owner, "_guarded", mutant)
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
        ("_chain_end", [(encoding, "_chain_end"), (algebras, "_chain_end")], _carriers_outside_the_guard),
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
    "module, name, patched, old, new, check",
    [
        # An entry point takes whatever ends the chain for the level of the
        # binder the occurrence names: size(place(42) under one binder) is 2.
        (
            algebras,
            "_unfold",
            [(algebras, "_unfold")],
            "if type(end) is not _Level:",
            "if False:",
            partial(_no_binder_bound, size, closed(lambda mo, x: place(42)), "42"),
        ),
        # Every TypeError is read as a refused call, also one raised inside
        # the function that ends a carrier's chain.
        (
            encoding,
            "_raise_if_refused",
            [(encoding, "_raise_if_refused"), (algebras, "_raise_if_refused")],
            "if err.__traceback__.tb_next is None:",
            "if True:",
            partial(_carriers_own_error, lambda t: fold(print_alg(), t)(names(1))),
        ),
        # The print carrier joins a value that gives no text to the binder
        # prefixes.
        (
            algebras,
            "_applied",
            [(algebras, "_applied")],
            "if not isinstance(out, kind):",
            "if False:",
            partial(_applied_no_text, lambda t: fold(print_alg(), t)(names(1))),
        ),
        # The size fold adds a held function to the binder count; size_alg
        # holds the function it was made with.
        (
            algebras,
            "_size_lam",
            [(algebras.size_alg(), "_interpret")],
            "if not isinstance(value, int):",
            "if False:",
            partial(_held_no_size, closed(lambda mo, x: place(_no_size))),
        ),
    ],
    ids=["unfold-any-end", "every-type-error-refused", "applied-any-value", "size-any-value"],
)
def test_the_ill_formed_checks(monkeypatch, module, name, patched, old, new, check):
    assert not _fails(check)
    mutant = _with_line(module, name, old, new)
    for owner, attribute in patched:
        monkeypatch.setattr(owner, attribute, mutant)
    assert _fails(check)


# The long binder-run scan with its chunks cut at a fixed width: on a run of
# three chunks or more, one of the cuts falls inside a 300-character name.
_chunk_checks = [partial(_chunks_split_no_name, 3 * debruijn._LISTED_RUN + d, 300) for d in (-3, 0, 3)]


def test_the_chunked_name_scan(monkeypatch):
    assert not any(_fails(check) for check in _chunk_checks)
    cut = 'text.find(".", pos + _LISTED_RUN, run) + 1 or run'
    mutant = _with_line(debruijn, "_chunked_names", cut, "min(pos + _LISTED_RUN, run)")
    monkeypatch.setattr(debruijn, "_chunked_names", mutant)
    assert all(_fails(check) for check in _chunk_checks)


@pytest.mark.parametrize(
    "name, old, new, starts",
    [
        ("_canonical_text", "n = start - 1", "n = start", [1, 2, 9_995]),
        ("_canonical_text", "if 1 <= start and last", "if last", [-2, 0]),
        ("_canonical_text", ": 5 * last +", ": 4 * last +", [1, 2, 9_995]),
    ],
    ids=["slice-off-by-one", "no-start-check", "ends-off-by-one"],
)
def test_the_name_table(monkeypatch, name, old, new, starts):
    # The print carrier's differential over names(start), with the table
    # empty and full; algebras holds its own reference to _canonical_text.
    checks = [partial(_names_from_any_start, monkeypatch, table, s) for table in ("empty", "full") for s in starts]
    assert not any(_fails(check) for check in checks)
    mutant = _with_line(debruijn, name, old, new)
    for owner in (debruijn, algebras):
        if hasattr(owner, name):
            monkeypatch.setattr(owner, name, mutant)
    assert all(_fails(check) for check in checks)


# Both branches of the name listing: a run shorter than _LISTED_RUN
# characters is split in one go, a longer one a chunk at a time.
_split_checks = [partial(_chunks_split_no_name, debruijn._LISTED_RUN + d, 1) for d in (-1, 1)]


@pytest.mark.parametrize(
    "old",
    ['.replace("\\\\", " ")', '.replace("λ", "\\\\")', '.replace(".", " ")'],
    ids=["backslash-kept", "lambda-kept", "dot-kept"],
)
def test_the_name_split(monkeypatch, old):
    assert not any(_fails(check) for check in _split_checks)
    monkeypatch.setattr(debruijn, "_names", _with_line(debruijn, "_names", old, ""))
    assert all(_fails(check) for check in _split_checks)


def _named_text_is_read_without_the_match(k):
    with pytest.MonkeyPatch.context() as patch:
        _named_read_without_the_match(patch, k)


@pytest.mark.parametrize(
    "name, old, new, checks",
    [
        # Names that start as the canonical ones do are sliced from the
        # table's text as if they were the canonical ones.
        ("_binder_text", "if binders == names[:k]:", 'if binders and binders[0] == "x1":', [_render_slices_only_its_names]),
        # A λ is kept in the chunk, whose skeleton is then not ASCII, so a
        # valid text with one takes the error path.
        (
            "_names",
            '.replace("λ", "\\\\")',
            "",
            [partial(_named_text_is_read_without_the_match, k) for k in (2, 4_097)],
        ),
    ],
    ids=["render-first-name-only", "lambda-unnormalised"],
)
def test_the_named_text_paths(monkeypatch, name, old, new, checks):
    assert not any(_fails(check) for check in checks)
    monkeypatch.setattr(debruijn, name, _with_line(debruijn, name, old, new))
    assert all(_fails(check) for check in checks)


def _named_agrees_with_the_reference(text):
    assert _outcome(debruijn.parse_named, text) == _outcome(reference_parse_named, text)


@pytest.mark.parametrize(
    "old, new, texts",
    [
        # A name with a character past ASCII, or another one outside the
        # syntax, is read as a name.
        ("skeleton.isascii()", "True", ["\\aé. x", "λ\u3000bé. x"]),
        ('"!" not in skeleton', "True", ["\\a?. x", "\\a-b. x"]),
        # A name may start with a digit or "_", or stand before its binder.
        (r'skeleton.count(".\\a") == ', "", ["\\1a. x", "\\_a. x", "a\\. x"]),
        # A backslash, or a dot, too many.
        (r' == skeleton.count("\\")', "", ["\\ab\\. x", "\\a. \\b\\. x"]),
        (' == skeleton.count(".") - 1', "", ["\\a.. x", "\\a. \\b.. x"]),
        # Whitespace splits a name in two.
        (" == len(names)", "", ["\\a b. x", "λa. \\b\tc. x"]),
        # Whitespace past ASCII is kept in the skeleton: valid text is refused.
        ('chunk = " ".join(chunk.split())', "pass", ["\\\u3000a. x", "λa\x85. \\b. a"]),
    ],
    ids=["any-character", "any-ascii", "no-first-letter", "backslash-over", "dot-over", "name-split", "wide-space-kept"],
)
def test_the_binder_skeleton(monkeypatch, old, new, texts):
    checks = [partial(_named_agrees_with_the_reference, text) for text in texts]
    assert not any(_fails(check) for check in checks)
    monkeypatch.setattr(debruijn, "_names", _with_line(debruijn, "_names", old, new))
    assert all(_fails(check) for check in checks)


def _db_agrees_with_the_reference(text):
    assert _outcome(debruijn.parse_db, text) == _outcome(reference_parse_db, text)


def _db_text_is_read_without_the_match(k):
    with pytest.MonkeyPatch.context() as patch:
        _read_without_the_match(patch, k)


def _db_edits_agree(k_values, at, new):
    """For each k, the reference check on ``format_db(chain(k, k // 2))``
    with its character at ``at(k)`` (from the end if negative) replaced by
    ``new``: nothing, two characters or another one."""
    checks = []
    for k in k_values:
        text = debruijn.format_db(chain(k, k // 2))
        p = at(k) % len(text)
        checks.append(partial(_db_agrees_with_the_reference, text[:p] + new + text[p + 1 :]))
    return checks


@pytest.mark.parametrize(
    "name, old, new, checks",
    [
        # The prefix then only has to be five characters a binder long.
        (
            "parse_db",
            'line.count("Lam (", 0, at) == ',
            "",
            [partial(_db_agrees_with_the_reference, t) for t in ("Lam(xVar 0)", "Lam((Lam (Var 0))")]
            + _db_edits_agree([1_023], lambda k: 0, "x"),
        ),
        # The digits run into a closing paren: format_db text takes the match.
        ("parse_db", "len(line) - k", "len(line) - k + 1", [partial(_db_text_is_read_without_the_match, k) for k in (0, 7)]),
        # The last digit is read as a closing paren.
        ("parse_db", "len(line) - k", "len(line) - k - 1", [partial(_db_agrees_with_the_reference, "Lam (Var 12)")]),
        # 5,000 leading zeros are more digits than int() converts.
        (
            "parse_db",
            'digits.lstrip("0") or "0"',
            "digits",
            [partial(_db_agrees_with_the_reference, f"Lam (Var {'0' * 5_000})")],
        ),
        # The V need not be where k binders end: a doubled ( is read past.
        (
            "parse_db",
            "at == 5 * k",
            "True",
            [partial(_db_agrees_with_the_reference, "Lam (xVar 0)")]
            + _db_edits_agree([1_023, 1_024, 1_025, 2_048, 2_049], lambda k: 5 * k - 1, "(("),
        ),
        # One binder fewer than the V's place: the last binder and paren go unread.
        (
            "parse_db",
            "_in_blocks(line, stop, k)",
            "_in_blocks(line, stop, k - 1)",
            _db_edits_agree([1_024, 1_025, 2_048, 2_049], lambda k: -1, "x"),
        ),
        # The last block of each run goes unread.
        (
            "_in_blocks",
            "range(rest, k, _BLOCK)",
            "range(rest, k - _BLOCK, _BLOCK)",
            _db_edits_agree([1_024, 1_025, 2_048, 2_049], lambda k: 5 * (k - 1), "x"),
        ),
        # The paren blocks start where the counted parens do, so the last
        # rest parens go unread (with no rest, the offset is right).
        (
            "_in_blocks",
            "stop + j)",
            "stop + j - rest)",
            _db_edits_agree([1_025, 2_049], lambda k: -1, "x"),
        ),
        # No count of the rest: with its first ")" dropped, a text is read
        # as k binders around an index one digit shorter.
        (
            "_in_blocks",
            'line.count("Lam (", 0, 5 * rest) == line.count(")", stop, stop + rest) == rest and ',
            "",
            _db_edits_agree([1_025, 2_049], lambda k: -k, ""),
        ),
    ],
    ids=[
        "no-prefix-check",
        "closers-one-short",
        "closers-one-over",
        "no-lstrip",
        "no-multiple-of-five",
        "k-off-by-one",
        "blocks-one-short",
        "closer-blocks-offset",
        "rest-uncounted",
    ],
)
def test_the_de_bruijn_parser(monkeypatch, name, old, new, checks):
    assert not any(_fails(check) for check in checks)
    monkeypatch.setattr(debruijn, name, _with_line(debruijn, name, old, new))
    assert all(_fails(check) for check in checks)


@pytest.mark.parametrize(
    "module, name, patched, old, new, checks",
    [
        # Every count, bound, index and seed is kept as the caller gave it.
        (
            encoding,
            "_integer",
            [(module, "_integer") for module in (encoding, algebras, debruijn, laws)],
            "return operator.index(value)",
            "return value",
            [
                _max_depth_named,
                partial(_start_no_integer, 1.5),
                partial(_index_no_integer, 0.5),
                partial(_depth_bound_no_integer, 2.5),
                _bound_at_the_call,
                partial(_binders_no_integer, 1.5),
                _pool_bounds,
            ],
        ),
        # A name is checked only for a leading identifier.
        (
            debruijn,
            "_checked_name",
            [(debruijn, "_checked_name")],
            "_NAME.fullmatch(name)",
            "_NAME.match(name)",
            [partial(_name_cannot_spell, name, ValueError) for name in ("x y", "x.", "x\n")],
        ),
        # format_db writes a negative index that parse_db cannot read back;
        # its test calls the format_db that test_debruijn imported.
        (
            debruijn,
            "format_db",
            [(debruijn, "format_db"), (test_debruijn, "format_db")],
            "if i < 0:",
            "if False:",
            [partial(_format_db_negative, d) for d in (Var(-1), Lam(Var(-1)))],
        ),
        # A skeleton is made with its fields unchecked, so one whose leaf no
        # local binder binds is kept and realized.
        (
            laws,
            "BodySkeleton.__init__",
            [(laws.BodySkeleton, "__init__")],
            "binders, leaf = self.validate()",
            "binders, leaf = self.binders, self.leaf",
            [_checked_when_made, _body_rejects_malformed],
        ),
    ],
    ids=["integer-unread", "name-prefix-only", "negative-index-written", "skeleton-made-unchecked"],
)
def test_the_input_checks(monkeypatch, module, name, patched, old, new, checks):
    assert not any(_fails(check) for check in checks)
    mutant = _with_line(module, name, old, new)
    for owner, attribute in patched:
        monkeypatch.setattr(owner, attribute, mutant)
    assert all(_fails(check) for check in checks)


# The copy and pickle checks of the frozen law records and of a name stream.
_frozen_copies = [partial(_record_copies, r, shown) for r, shown in _RECORDS if isinstance(r, encoding._Frozen)]


@pytest.mark.parametrize(
    "owner, name, old, new, checks",
    [
        # A frozen record is then rebuilt field by field, through the
        # __setattr__ that refuses every assignment.
        ("_Record", "__reduce__", None, None, [*_frozen_copies, _name_streams_immutable]),
        # An assignment to a field of a frozen record is stored.
        (
            "_Frozen",
            "__setattr__",
            'raise AttributeError(f"cannot assign to field {name!r}")',
            "_set(self, name, value)",
            [_frozen_refuse_assignment, _name_streams_immutable],
        ),
    ],
    ids=["record-reduce-deleted", "frozen-assignment-stored"],
)
def test_the_record_base(monkeypatch, owner, name, old, new, checks):
    # The law records and NameStream share encoding's record base.
    assert not any(_fails(check) for check in checks)
    if old is None:
        monkeypatch.delattr(getattr(encoding, owner), name)
    else:
        monkeypatch.setattr(getattr(encoding, owner), name, _with_line(encoding, f"{owner}.{name}", old, new))
    assert all(_fails(check) for check in checks)


def _gen_count_zero():
    assert cli.main(["gen", "--count", "0"]) == 0


def test_the_bound_check(monkeypatch):
    # A call right at each bound is refused when the bound is read as
    # exclusive; every module that checks a bound imported _at_least by name.
    checks = [
        partial(run_guarded, int, 1),
        partial(enumerate_terms, 1),
        partial(gen_term, 5, 1),
        partial(enumerate_skeletons, 0),
        partial(skeleton_pool, 2, 0, 5),
        _gen_count_zero,
    ]
    assert not any(_fails(check) for check in checks)
    mutant = _with_line(encoding, "_at_least", "if n < least:", "if n <= least:")
    for owner in (encoding, debruijn, laws, cli):
        monkeypatch.setattr(owner, "_at_least", mutant)
    assert all(_fails(check) for check in checks)


def test_the_pool_draw(monkeypatch):
    # A drawn leaf never names the outermost local binder; test_laws calls
    # the skeleton_pool it imported.
    checks = [partial(_pool_tail_drawn, seed) for seed in (0, 7)]
    assert not any(_fails(check) for check in checks)
    mutant = _with_line(laws, "skeleton_pool", "draw1 % (binders + 2)", "draw1 % (binders + 1)")
    for owner in (laws, test_laws):
        monkeypatch.setattr(owner, "skeleton_pool", mutant)
    assert all(_fails(check) for check in checks)


# The applied carriers over chains whose occurrence applies its variable:
# only there is a variable's denotation called.
_applied_variables = partial(check_applied_variables_agree, 8)

# The law instances' differential of each function carrier's read of a
# bound variable against applying it.
_law_reads = {ctx.label: partial(_reads_as_applying, ctx) for ctx in laws.standard_contexts()}


def test_the_de_bruijn_variable(monkeypatch):
    # An applied de Bruijn variable gives the index of the binder one
    # further out.
    checks = [_applied_variables]
    assert not any(_fails(check) for check in checks)
    mutant = _with_line(algebras, "_Level.__call__", "_chain(0, n - self)", "_chain(0, n - self + 1)")
    monkeypatch.setattr(algebras._Level, "__call__", mutant)
    assert all(_fails(check) for check in checks)


@pytest.mark.parametrize(
    "owner, old, new, checks",
    [
        # An applied print variable gives the name of the binder one further in.
        ("_Name", 'f"x{self}"', 'f"x{self + 1}"', [_applied_variables]),
        # A carrier whose chain ends in a bound variable reads the name of
        # the binder one further in, or the index of the one further out.
        ("_PrintCarrier", 'f"x{c}"', 'f"x{c + 1}"', [_entries_equal_folds, _law_reads["print"]]),
        ("_DepthCarrier", "level - 1 - c", "level - c", [_entries_equal_folds, _bool_depth, _law_reads["debruijn"]]),
    ],
    ids=["name-applied-off-by-one", "print-read-off-by-one", "depth-read-off-by-one"],
)
def test_the_variable_reads(monkeypatch, owner, old, new, checks):
    assert not any(_fails(check) for check in checks)
    monkeypatch.setattr(getattr(algebras, owner), "__call__", _with_line(algebras, f"{owner}.__call__", old, new))
    assert all(_fails(check) for check in checks)
