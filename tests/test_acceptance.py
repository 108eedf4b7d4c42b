"""Acceptance suite: one check per criterion, one printed line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import time

from kripkelam import (
    BodySkeleton,
    Slot,
    check_hom,
    db_to_body,
    db_to_hoas,
    enumerate_terms,
    fold,
    format_db,
    gen_term,
    hom_sides,
    identity_embed,
    lam_alg,
    names,
    oracle_print,
    oracle_size,
    print_alg,
    print_term,
    run_all_laws,
    run_guarded,
    size_alg,
    to_debruijn,
    to_debruijn_alg,
)
from kripkelam.cli import main
from kripkelam.laws import render_reports

from helpers import Poison, term_xy_x


def _report(number: int, description: str, ok: bool, seconds: float):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {description} [{seconds:.2f}s]")


def test_criterion_1_golden_outputs():
    start = time.perf_counter()
    t = term_xy_x()
    got_size = fold(size_alg(), t)
    got_print = print_term(t)
    got_db = format_db(fold(to_debruijn_alg(), t)(1))
    elapsed = time.perf_counter() - start
    ok = (
        got_size == 3
        and got_print == "\\ x1. \\ x2. x1"
        and got_db == "Lam (Lam (Var 1))"
        and elapsed < 1.0
    )
    _report(1, "golden size/print/de Bruijn outputs, exact", ok, elapsed)
    assert got_size == 3
    assert got_print == "\\ x1. \\ x2. x1"
    assert got_db == "Lam (Lam (Var 1))"
    assert elapsed < 1.0


def test_criterion_2_exhaustive_roundtrip():
    start = time.perf_counter()
    corpus = list(enumerate_terms(32))
    mismatches = [d for d in corpus if to_debruijn(db_to_hoas(d)) != d]
    elapsed = time.perf_counter() - start
    ok = len(corpus) == 528 and not mismatches and elapsed < 5.0
    _report(2, "round-trip on all 528 terms to depth 32", ok, elapsed)
    assert len(corpus) == 528
    assert mismatches == []
    assert elapsed < 5.0


def test_criterion_3_differential_oracles():
    start = time.perf_counter()
    corpus = list(enumerate_terms(32)) + [gen_term(seed, 64) for seed in range(10_000)]
    size_bad = 0
    print_bad = 0
    for d in corpus:
        t = db_to_hoas(d)
        if fold(size_alg(), t) != oracle_size(d):
            size_bad += 1
        if print_term(t) != oracle_print(d):
            print_bad += 1
        if run_guarded(lambda: fold(print_alg(), t)(names(1))) != oracle_print(d):
            print_bad += 1
    elapsed = time.perf_counter() - start
    ok = size_bad == 0 and print_bad == 0 and elapsed < 30.0
    _report(
        3,
        f"size and print agree with oracles on {len(corpus)} terms",
        ok,
        elapsed,
    )
    assert size_bad == 0
    assert print_bad == 0
    assert elapsed < 30.0


def test_criterion_4_law_suites():
    start = time.perf_counter()
    reports = run_all_laws(max_binders=8, samples=1000, seed=0)
    elapsed = time.perf_counter() - start
    failures = sum(len(r.failures) for r in reports)
    ok = len(reports) == 9 and failures == 0 and elapsed < 60.0
    _report(
        4,
        "id/compose/fold homomorphism suites, zero failures on every carrier",
        ok,
        elapsed,
    )
    assert failures == 0, render_reports(reports)
    assert len(reports) == 9
    assert elapsed < 60.0


def test_criterion_5_algebra_switch_instrumentation():
    start = time.perf_counter()
    poisoned_calls = 0
    checked = 0
    for d in enumerate_terms(32):
        poison = Poison()
        t = lam_alg().interpret_lam(db_to_body(d), identity_embed(), poison.alg)
        ok_here = (
            fold(size_alg(), t) == oracle_size(d)
            and print_term(t) == oracle_print(d)
            and to_debruijn(t) == d
            and run_guarded(lambda: fold(print_alg(), t)(names(1))) == oracle_print(d)
            and run_guarded(lambda: fold(to_debruijn_alg(), t)(1)) == d
        )
        checked += 1
        poisoned_calls += poison.calls
        assert ok_here, format_db(d)
    elapsed = time.perf_counter() - start
    ok = poisoned_calls == 0 and elapsed < 5.0
    _report(
        5,
        f"construction-time algebra never invoked across {checked} terms",
        ok,
        elapsed,
    )
    assert poisoned_calls == 0
    assert elapsed < 5.0


def test_criterion_6_cli_end_to_end(monkeypatch, capsys):
    start = time.perf_counter()
    results = []
    for argv, stdin in (
        (["size"], "\\x.\\y.x"),
        (["print"], "\\x.\\y.x"),
        (["to-db"], "\\x.\\y.x"),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        results.append((code, out, err))
    monkeypatch.setattr("sys.stdin", io.StringIO("\\x.y"))
    unbound_code = main(["size"])
    _, unbound_err = capsys.readouterr()
    elapsed = time.perf_counter() - start
    expected = [
        (0, "3\n", ""),
        (0, "\\ x1. \\ x2. x1\n", ""),
        (0, "Lam (Lam (Var 1))\n", ""),
    ]
    ok = results == expected and unbound_code == 1 and "unbound variable y" in unbound_err
    _report(6, "golden CLI commands and unbound-variable exit code", ok, elapsed)
    assert results == expected
    assert unbound_code == 1
    assert "unbound variable y" in unbound_err


def test_criterion_7_checker_refutes_wrong_homomorphism():
    start = time.perf_counter()
    skeletons = [BodySkeleton(0, Slot.FRESH), BodySkeleton(0, Slot.ENV), BodySkeleton(1, 0)]
    report = check_hom(
        size_alg(),
        size_alg(),
        lambda n: n + 1,
        skeletons,
        env_value=1,
        observe=lambda n: n,
        suite="successor",
    )
    refuted = not report.ok
    witness_ok = False
    if refuted:
        witness = report.failures[0]
        lhs, rhs = hom_sides(
            size_alg(), size_alg(), lambda n: n + 1, witness.skeleton, 1, lambda n: n
        )
        witness_ok = (lhs, rhs) == (witness.lhs, witness.rhs) and lhs != rhs
    elapsed = time.perf_counter() - start
    ok = refuted and witness_ok
    _report(7, "successor on the size carrier refuted with a concrete witness", ok, elapsed)
    assert refuted
    assert witness_ok
