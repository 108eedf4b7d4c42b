"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Feeds the workloads deliberately wrong results, exceptions and a failing
CLI invocation, and checks that each counts as a failed op rather than as a
fast one; then checks that correct results pass. Exits non-zero on the
first check that does not hold.
"""

from __future__ import annotations

import sys

import run
import workloads


def expect(condition: bool, message: str):
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def loop_totals(load, seconds=0.2):
    loop = workloads.closed_loop(load, seconds)
    return loop, sum(loop.ops), sum(loop.failed)


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    lib = workloads.import_library()
    load = workloads.shallow(lib, seed=7, pool=20)

    _, attempted, failed = loop_totals(load)
    expect(attempted > 0 and failed == 0, f"correct pipeline results failed {failed} of {attempted} ops")

    real_pipeline = workloads.pipeline
    try:
        workloads.pipeline = lambda *_args: (0, "", "", "", 0)
        loop, attempted, failed = loop_totals(load)
        expect(failed == attempted > 0, f"wrong results: {failed} of {attempted} ops failed")
        metrics, _ = run.end_to_end("shallow", (1.0, 1.0), loop, 1.0)
        busy_ms = 1000 * sum(loop.scaled_walls())
        expect(metrics["ops_per_s"] == 0, "wrong results were counted as throughput")
        expect(metrics["op_p50_ms"] == busy_ms, "wrong results were counted as fast ops")

        def boom(*_args):
            raise RecursionError("injected")

        workloads.pipeline = boom
        _, attempted, failed = loop_totals(load)
        expect(failed == attempted > 0, f"exceptions: {failed} of {attempted} ops failed")
    finally:
        workloads.pipeline = real_pipeline

    cli = workloads.Cli(lib, seed=7, terms=1)
    command, path, expected, k = cli.runs[0]
    cli.runs[0] = (command, path, expected + "x", k)
    outcomes = [cli.request(j) for j in range(len(cli.runs))]
    expect([o[1] for o in outcomes] == [1, 0, 0, 0], f"cli outcomes {outcomes}: only the first should fail")

    laws = workloads.Laws(lib, seed=7)
    real_run_all_laws = lib.laws.run_all_laws
    try:
        refuted = lib.laws.Report("stub", checked=laws.per_suite, failures=[None, None])
        lib.laws.run_all_laws = lambda *_args: [refuted] + [lib.laws.Report("stub", checked=laws.per_suite)] * (laws.suites - 2)
        ops, failed, _ = laws.request(0)
        # Two refuted instances, and one suite's instances never checked.
        expect(failed == 2 + laws.per_suite, f"laws: {failed} of {ops} instances failed")
    finally:
        lib.laws.run_all_laws = real_run_all_laws

    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
