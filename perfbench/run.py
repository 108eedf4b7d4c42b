"""Benchmark of the kripkelam library: end-to-end metrics, or per-layer ones.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {deep,shallow,laws,cli} --seed N --seconds S --trace {0,1}

One process, one closed-loop client: each request starts when the previous
one returns. The workload's inputs come from the seed. Every output is
checked against the first-order oracles, and a miss counts as a failed op.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first runs the
same untraced measurement in a child interpreter, for the tracing overhead,
then measures again with spans around every call into the library, and
reports the per-layer metrics. Spans are written to
``perfbench/out/trace-<workload>-<seed>.jsonl.gz``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the metrics ``BENCHMARK.json`` lists for the
chosen mode.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import layers
import workloads
from spans import Tracer

BENCHMARK_FILE = workloads.ROOT / "BENCHMARK.json"
# Set-up is repeated and its median reported; the first repetition also
# compiles bytecode in a fresh checkout.
SETUP_REPEATS = 9
SETUP_REFERENCE_BLOCKS = 5


def _tail(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100 * (n - 10) / n


def _rates(loop, walls):
    """Correct ops per second of request time, and per-op latencies.

    A request that checks many ops (a run_all_laws call) contributes its
    mean op time. A request with a failed op misses any latency limit, so
    it counts as taking all the requests' time.
    """
    busy = sum(walls)
    good = sum(loop.ops) - sum(loop.failed)
    latencies = [busy if failed else wall / ops for wall, ops, failed in zip(walls, loop.ops, loop.failed)]
    return good / busy, latencies


def end_to_end(name: str, setup: tuple[float, float], loop, peak_rss_mb: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of an untraced loop, and report-only lines.

    ``setup`` is the median set-up time, scaled and unscaled. Loop times
    are scaled to nominal machine speed by the reference blocks.
    """
    attempted = sum(loop.ops)
    failed = sum(loop.failed)
    walls = loop.scaled_walls()
    ops_per_s, latencies = _rates(loop, walls)
    raw_ops_per_s, raw_latencies = _rates(loop, loop.wall)
    m = {
        "setup_s": setup[0],
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"unscaled: setup_s = {setup[1]:.6g} s, ops_per_s = {raw_ops_per_s:.6g} 1/s, "
        f"op_p50_ms = {1000 * statistics.median(raw_latencies):.6g} ms",
        f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)",
        f"requests = {len(loop.wall)}",
    ]
    if name != "laws":
        notes.append(f"binders_per_s = {sum(loop.binders) / sum(walls):.6g} 1/s")
    tail = _tail(latencies)
    if tail is not None:
        notes.append(f"op_tail_ms = {1000 * tail[0]:.6g} ms (p{tail[1]:.2f} of {len(latencies)} ops)")
    if name == "laws":
        notes.append(f"laws_verdict_s = {statistics.median(walls):.6g} s (median of {len(walls)} run_all_laws calls)")
    return m, notes


def _untraced_child(args) -> dict:
    """The same run untraced, in its own interpreter; returns its JSON result."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=workloads.ROOT, stdout=subprocess.PIPE, timeout=170, check=True)
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    return json.loads(lines[-1])


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (workloads.SRC / "kripkelam" / "__init__.py").is_file():
        print(f"error: no kripkelam package under {workloads.SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    catalogue = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    sys.path.insert(0, str(workloads.SRC))

    child = _untraced_child(args) if args.trace else None

    make = workloads.WORKLOADS[args.workload]
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        block = statistics.median(workloads.reference_block() for _ in range(SETUP_REFERENCE_BLOCKS))
        t0 = perf_counter()
        lib = workloads.import_library()
        load = make(lib, args.seed)
        raw_setup_times.append(perf_counter() - t0)
        setup_times.append(raw_setup_times[-1] * workloads.REFERENCE_NOMINAL_S / block)
    if hasattr(load, "warm_up"):
        load.warm_up()

    tracer = Tracer() if args.trace else None
    wrapping = tracer.wrapping(lib.laws, layers.LAW_FUNCTIONS, "laws") if tracer else nullcontext()
    with wrapping:
        loop = workloads.closed_loop(load, args.seconds, tracer)
        # Read before the summaries below allocate anything.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = sum(loop.ops)
        failed = sum(loop.failed)
        if tracer is None:
            setup = statistics.median(setup_times), statistics.median(raw_setup_times)
            metrics, notes = end_to_end(args.workload, setup, loop, peak_rss_mb)
            wanted = catalogue["end_to_end"]
        else:
            metrics, probe_attempted, probe_failed = layers.measure(lib, args.seed, tracer, load)
            traced_rate, _ = _rates(loop, loop.scaled_walls())
            metrics["trace_overhead_ratio"] = child["metrics"]["ops_per_s"]["value"] / traced_rate - 1
            attempted += probe_attempted + child["attempted"]
            failed += probe_failed + child["failed"]
            wanted = catalogue["per_layer"]
            notes = [f"traced ops_per_s = {traced_rate:.6g} 1/s", f"spans = {len(tracer.names)}"]
            tracer.write(workloads.OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    result = {}
    for spec in wanted:
        value = metrics[spec["name"]]
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']} = {value:.6g} {spec['unit']}")
    for line in notes:
        print(f"  {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
