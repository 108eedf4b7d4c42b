"""Per-layer metrics of a traced run.

Layer times come from the spans of the workload's own ops. A traced run
reports every per-layer metric, so after the workload's ops it probes, on
fixed inputs, whatever those ops did not reach: the depth ladder, one
``run_all_laws`` call, the CLI process and in-process entry point, and the
guard. On a workload whose ops never call a layer, that layer's metric
therefore describes the probe inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from workloads import DEPTH_LADDER, SHALLOW_MAX_DEPTH

# Public functions of kripkelam.laws that run_all_laws composes; the traced
# run wraps them in spans where they are looked up.
LAW_FUNCTIONS = ("skeleton_pool", "check_id_hom", "check_compose_hom", "check_fold_hom", "hom_sides")
PIPELINE_LAYERS = (
    "cli.parse_named",
    "cli.render_named",
    "debruijn.named_to_db",
    "debruijn.db_to_hoas",
    "debruijn.parse_db",
    "debruijn.format_db",
    "debruijn.db_to_named",
)
ALGEBRA_ENTRY_POINTS = ("size", "print_term", "to_debruijn")
# Guard probes: the fold engine at a depth every fold of `shallow` can reach
# inline, and the depths on either side of the guard's inline cap.
ENVFREE_DEPTH = SHALLOW_MAX_DEPTH
INLINE_CAP = 400
REPEATS = 5


def envfree(lib, depth: int):
    """``depth`` binders around the innermost variable, carrying no environment.

    Same shape as a ``db_to_hoas`` chain of that depth, but each level builds
    the next directly, so folding it costs the fold engine alone.
    """
    enc = lib.encoding

    def level(j):
        def body(_rename, fresh):
            return enc.place(fresh) if j == depth else enc.lam(level(j + 1))

        return body

    return enc.closed(level(1))


def _timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def _median_s(repeats: int, fn, *args) -> float:
    return statistics.median(_timed(fn, *args) for _ in range(repeats))


def _size_checked(lib, t, expected: int):
    if lib.algebras.size(t) != expected:
        raise AssertionError(f"size of an env-free term is not {expected}")


class Probes:
    """Runs the probes of one traced run and counts their checks as ops."""

    def __init__(self, lib, seed: int, tracer):
        self.lib = lib
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def _ops(self, load, requests):
        for j in requests:
            ops, failed, _ = self.tracer.op(load.request, j, load.depth(j))
            self.attempted += ops
            self.failed += failed

    def ladder(self):
        """One pipeline op per ladder depth the workload's ops did not cover."""
        covered = set(self.tracer.op_depth)
        missing = [k for k in DEPTH_LADDER if k not in covered]
        if missing:
            load = workloads.Pipeline(self.lib, [workloads.Chain(self.lib, k, k // 2) for k in missing], batch=1)
            self._ops(load, range(len(missing)))

    def laws(self, load):
        """One ``run_all_laws`` call unless the workload made some."""
        if load is None:
            load = workloads.Laws(self.lib, self.seed)
            self._ops(load, [0])
        return load

    def envfree_ms(self, depth: int) -> float:
        t = envfree(self.lib, depth)
        return 1000 * _median_s(3, _size_checked, self.lib, t, depth + 1)

    def fold_envfree_us_per_binder(self) -> float:
        t = envfree(self.lib, ENVFREE_DEPTH)
        folds = 500

        def batch():
            for _ in range(folds):
                _size_checked(self.lib, t, ENVFREE_DEPTH + 1)

        return 1e6 * _median_s(REPEATS, batch) / (folds * ENVFREE_DEPTH)

    def run_guarded_us(self) -> float:
        run_guarded = self.lib.encoding.run_guarded
        calls = 20000

        def batch():
            for _ in range(calls):
                run_guarded(_nothing)

        return 1e6 * _median_s(REPEATS, batch) / calls

    def worker_ms(self) -> float:
        """Env-free fold one binder past the inline cap minus one at the cap."""
        below, above = envfree(self.lib, INLINE_CAP), envfree(self.lib, INLINE_CAP + 1)
        _size_checked(self.lib, above, INLINE_CAP + 2)  # first deep fold: lazy set-up
        at, past = [], []
        for _ in range(REPEATS):
            at.append(_timed(_size_checked, self.lib, below, INLINE_CAP + 1))
            past.append(_timed(_size_checked, self.lib, above, INLINE_CAP + 2))
        return 1000 * (statistics.median(past) - statistics.median(at))

    def cli(self, load) -> dict[str, float]:
        """Interpreter start, package import and in-process ``main``."""
        if load is None:
            load = workloads.Cli(self.lib, self.seed, terms=2)
        env, python = load.env, sys.executable

        def child(*argv):
            subprocess.run([python, *argv], env=env, cwd=workloads.ROOT, check=True, capture_output=True, timeout=workloads.CHILD_TIMEOUT_S)

        child("-c", "import kripkelam.cli")  # bytecode written before timing
        interpreter = _median_s(REPEATS, child, "-c", "pass")
        imported = _median_s(REPEATS, child, "-c", "import kripkelam.cli")
        main_times = []
        for _ in range(3):
            for command, path, expected, _ in load.runs:
                out = io.StringIO()
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(out):
                        code = self.lib.cli.main([command, path])
                except Exception:  # noqa: BLE001 - counted as a failed op
                    code = None
                main_times.append(perf_counter() - t0)
                self.attempted += 1
                if code != 0 or out.getvalue() != expected:
                    self.failed += 1
        return {
            "cli.interpreter_ms": 1000 * interpreter,
            "cli.import_ms": 1000 * (imported - interpreter),
            "cli.main_ms": 1000 * statistics.median(main_times),
        }


def _nothing():
    return None


def _slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure(lib, seed: int, tracer, load) -> tuple[dict[str, float], int, int]:
    """Probe what the workload's ops missed and derive every per-layer metric.

    Returns the metrics and the ops the probes attempted and failed.
    """
    probes = Probes(lib, seed, tracer)
    probes.ladder()
    laws = probes.laws(load if isinstance(load, workloads.Laws) else None)
    m = probes.cli(load if isinstance(load, workloads.Cli) else None)

    for name in PIPELINE_LAYERS:
        m[f"{name}_ms"] = tracer.median_ms(name)
    for entry in ALGEBRA_ENTRY_POINTS:
        per_depth = [tracer.median_ms(f"algebras.{entry}", k) for k in DEPTH_LADDER]
        for k, ms in zip(DEPTH_LADDER, per_depth):
            m[f"algebras.{entry}_ms.{k}"] = ms
        m[f"algebras.{entry}_exponent"] = _slope(DEPTH_LADDER, per_depth)
    for k in DEPTH_LADDER:
        size_ms = m[f"algebras.size_ms.{k}"]
        m[f"debruijn.env_ms.{k}"] = size_ms - probes.envfree_ms(k)
        m[f"encoding.reinterpret_ms.{k}"] = tracer.median_ms("encoding.reinterpret", k) - size_ms

    m["encoding.fold_envfree_us_per_binder"] = probes.fold_envfree_us_per_binder()
    m["encoding.run_guarded_us"] = probes.run_guarded_us()
    m["encoding.worker_ms"] = probes.worker_ms()

    m["laws.skeleton_pool_ms"] = tracer.median_ms("laws.skeleton_pool")
    for suite in ("id_hom", "compose_hom", "fold_hom"):
        m[f"laws.{suite}_s"] = tracer.median_ms(f"laws.check_{suite}", inclusive=True) / 1000
    m["laws.hom_sides_us"] = 1000 * tracer.median_ms("laws.hom_sides")
    m["laws.instances"] = laws.checked // max(1, laws.calls)
    m["laws.failures"] = laws.failures

    # Read last: any fold deeper than the inline cap may have raised it.
    m["encoding.recursion_limit_after"] = sys.getrecursionlimit()
    return m, probes.attempted, probes.failed
