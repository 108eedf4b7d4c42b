"""Record one point of the benchmark trajectory in ``BENCH_40.json``.

Run from the root of a checkout, with no arguments:

    python3 tools/record_bench.py

It measures the checkout it lives in and adds one record to
``BENCH_40.json`` at the checkout's root. A record holds:

- the commit, whether ``src/`` differs from it, a hash of the library's
  source, the Python version and the machine's CPU count;
- for each workload of ``BENCHMARK.json``, the median and quartiles of each
  end-to-end metric over three runs of the unchanged ``perfbench/run.py``
  (seeds 1, 2, 3, ``run_seconds`` each);
- counts that do not drift with the machine's speed: the Python calls
  (``sys.setprofile`` "call" events, GC off, after one warm call) and the
  ``tracemalloc`` peak of ``run_all_laws(8, 1000, 0)``, of ``run_all_laws()``,
  of one instance (one ``hom_sides`` call) of each of the nine suites
  ``run_all_laws`` runs, and of ``size``, ``print_term``, ``to_debruijn``,
  ``parse_named``, ``parse_db``, ``named_to_db``, ``db_to_hoas`` and
  ``size(fold(lam_alg(), t))`` on a chain of 10, 100, 1,000 and 10,000
  binders around index ``k // 2``, and for the entry points among them the
  reads of the thread's budget, counted by a stand-in for the thread-local
  guard.

A record replaces one of the same source tree and keeps the others, so the
file, copied from one checkout to another and recorded again, holds both.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# This trajectory point; the next one is BENCH_41.json.
OUT = ROOT / "BENCH_40.json"
SEEDS = (1, 2, 3)
DEPTHS = (10, 100, 1_000, 10_000)
# The skeleton of the one instance each suite is counted on.
INSTANCE = (4, 1)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def header() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
    }


def _run(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timings(catalogue: dict) -> dict:
    """Each workload's end-to-end metrics over the seeds: median, quartiles
    (inclusive method) and every run's value, with the ops that failed."""
    out = {}
    for spec in catalogue["workloads"]:
        runs = [_run(spec["name"], seed, catalogue["run_seconds"]) for seed in SEEDS]
        metrics = {}
        for metric in catalogue["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            metrics[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "runs": values}
        out[spec["name"]] = {
            "seeds": list(SEEDS),
            "seconds": catalogue["run_seconds"],
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        }
    return out


def python_calls(run) -> int:
    """Python function calls entered while ``run()`` runs, with the GC off."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def peak_bytes(run) -> int:
    """The ``tracemalloc`` peak while ``run()`` runs, above what was traced
    before it, with the GC off."""
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    return peak - before


def budget_reads(encoding, run) -> int:
    """Reads of the thread's budget while ``run()`` runs: ``encoding._guard``
    is replaced meanwhile by a stand-in that counts them."""
    budget = encoding._guard.budget
    reads = 0

    class Counting:
        @property
        def budget(self):
            nonlocal reads
            reads += 1
            return budget

    guard, encoding._guard = encoding._guard, Counting()
    try:
        run()
    finally:
        encoding._guard = guard
    return reads


def counted(run) -> dict:
    run()  # warm: the name table, caches and first-call costs
    return {"python_calls": python_calls(run), "tracemalloc_peak_bytes": peak_bytes(run)}


def counts() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from kripkelam import (
        BodySkeleton,
        db_to_hoas,
        db_to_named,
        encoding,
        fold,
        hom_sides,
        identity_term,
        lam_alg,
        named_to_db,
        parse_db,
        parse_named,
        print_term,
        render_named,
        run_all_laws,
        size,
        standard_contexts,
        to_debruijn,
    )

    out = {
        "run_all_laws(8, 1000, 0)": counted(partial(run_all_laws, 8, 1000, 0)),
        "run_all_laws()": counted(run_all_laws),
    }
    skeleton = BodySkeleton(*INSTANCE)
    instances = {}
    for ctx in standard_contexts():
        to_alg = partial(fold, ctx.alg)
        through_lam_alg = partial(fold, lam_alg())
        suites = {
            f"id_hom[{ctx.alg.name}]": (ctx.alg, lambda x: x, ctx.env_value),
            f"compose_hom[lam_alg->lam_alg->{ctx.alg.name}]": (
                lam_alg(),
                lambda t, to_alg=to_alg: to_alg(through_lam_alg(t)),
                identity_term(),
            ),
            f"fold_hom[{ctx.alg.name}]": (lam_alg(), to_alg, identity_term()),
        }
        for suite, (alg1, h, env_value) in suites.items():
            instances[suite] = counted(partial(hom_sides, alg1, ctx.alg, h, skeleton, env_value, ctx.observe))
    out["instance"] = {"skeleton": skeleton.describe(), "suites": instances}

    entry_points = ("size", "print_term", "to_debruijn", "size(fold(lam_alg(), t))")
    names = (*entry_points, "parse_named", "parse_db", "named_to_db", "db_to_hoas")
    layers = {name: {} for name in names}
    for k in DEPTHS:
        db_text = "Lam (" * k + f"Var {k // 2}" + ")" * k
        d = parse_db(db_text)
        t = db_to_hoas(d)
        named = db_to_named(d)
        text = render_named(named)
        for name, run in (
            ("size", partial(size, t)),
            ("print_term", partial(print_term, t)),
            ("to_debruijn", partial(to_debruijn, t)),
            ("size(fold(lam_alg(), t))", lambda t=t: size(fold(lam_alg(), t))),
            ("parse_named", partial(parse_named, text)),
            ("parse_db", partial(parse_db, db_text)),
            ("named_to_db", partial(named_to_db, named)),
            ("db_to_hoas", partial(db_to_hoas, d)),
        ):
            layers[name][str(k)] = counted(run)
            if name in entry_points:
                layers[name][str(k)]["budget_reads"] = budget_reads(encoding, run)
    out["binders"] = {"depths": list(DEPTHS), "chain_index": "k // 2", "layers": layers}
    return out


def main() -> int:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = header()
    record["timings"] = timings(catalogue)
    record["counts"] = counts()
    records = json.loads(OUT.read_text(encoding="utf-8"))["records"] if OUT.is_file() else []
    records = [r for r in records if r["source_sha256"] != record["source_sha256"]] + [record]
    OUT.write_text(json.dumps({"records": records}, indent=1) + "\n", encoding="utf-8")
    print(f"{OUT.name}: {len(records)} records, this one of {record['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
