"""The four workloads: seeded inputs, one request function each, the closed loop.

A request returns ``(ops, failed, binders)``: the ops it attempted, how many
of them failed their check, and the binders in the inputs of the ops that
passed. Every output is checked against the first-order oracles of the
input. Deep outputs are compared as strings (``oracle_print``,
``format_db``), never as ``Lam``/``Var`` chains: ``==``, ``hash`` and
``repr`` on those recurse once per binder and raise ``RecursionError`` on
deep chains in a process whose recursion limit is still the default.
"""

from __future__ import annotations

import bisect
import importlib
import os
import random
import signal
import statistics
import subprocess
import sys
import traceback
from array import array
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import direct

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MODULES = ("cli", "debruijn", "encoding", "algebras", "laws")
# 10,000 is the library's DEFAULT_MAX_NESTING: the deepest term it promises.
DEPTH_LADDER = (1000, 3000, 10000)
SHALLOW_MAX_DEPTH = 32
LAWS_MAX_BINDERS = 8
LAWS_SAMPLES = 1000
CLI_COMMANDS = ("size", "print", "to-db", "from-db")
CHILD_TIMEOUT_S = 120
REFERENCE_ITERATIONS = 25_000
# Nominal times of the references, about what they take on a quiet 2-vCPU
# Xeon: the integer block, and a bare interpreter's start and exit.
REFERENCE_NOMINAL_S = 0.001
INTERPRETER_NOMINAL_S = 0.07
# During an in-process loop a timer starts a reference block this often:
# about 3% of the time.
REFERENCE_INTERVAL_S = 0.033
# A request is scaled by the references timed during it or this close to it.
SPEED_WINDOW_S = 1.0


def import_library() -> SimpleNamespace:
    """Import the five modules afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "kripkelam" or n.startswith("kripkelam.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"kripkelam.{m}") for m in MODULES})


_SHOWN_FAILURES = 3
_shown = []


def _report_failure(what: str):
    # The first few failures of a run are printed; every one is counted.
    if len(_shown) < _SHOWN_FAILURES:
        _shown.append(what)
        print(f"failure: {what}", file=sys.stderr)
        if sys.exc_info()[0] is not None:
            traceback.print_exc()


class Chain:
    """A closed chain (k binders around the occurrence with index i) and its oracle answers."""

    __slots__ = ("k", "named_text", "db_text", "size", "printed")

    def __init__(self, lib, k: int, i: int):
        d = lib.debruijn.Var(i)
        for _ in range(k):
            d = lib.debruijn.Lam(d)
        self.k = k
        # Distinct names, both binder spellings; the occurrence names the
        # binder at level k - i, counted from the outside.
        self.named_text = "".join(f"{'λ' if j % 2 else chr(92)}v{j}. " for j in range(1, k + 1)) + f"v{k - i}"
        self.db_text = lib.debruijn.format_db(d)
        self.size = lib.debruijn.oracle_size(d)
        self.printed = lib.debruijn.oracle_print(d)


def reinterpret(lib, t):
    """Fold into ``lam_alg`` and size the resulting term."""
    return lib.algebras.size(lib.encoding.fold(lib.encoding.lam_alg(), t))


def pipeline(lib, c: Chain, call=direct):
    """One term through the library paths of the four CLI commands, then
    through reinterpretation; returns the outputs as ints and strings."""
    cli, db, alg = lib.cli, lib.debruijn, lib.algebras
    named = call("cli.parse_named", cli.parse_named, c.named_text)
    first_order = call("debruijn.named_to_db", db.named_to_db, named)
    t = call("debruijn.db_to_hoas", db.db_to_hoas, first_order)
    size = call("algebras.size", alg.size, t)
    printed = call("algebras.print_term", alg.print_term, t)
    to_db = call("debruijn.format_db", db.format_db, call("algebras.to_debruijn", alg.to_debruijn, t))
    parsed = call("debruijn.parse_db", db.parse_db, c.db_text)
    from_db = call("cli.render_named", cli.render_named, call("debruijn.db_to_named", db.db_to_named, parsed))
    reinterpreted = call("encoding.reinterpret", reinterpret, lib, t)
    return size, printed, to_db, from_db, reinterpreted


def expected_outputs(c: Chain):
    return c.size, c.printed, c.db_text, c.printed, c.size


class Pipeline:
    """In-process workload: each op is one chain through :func:`pipeline`."""

    def __init__(self, lib, chains: list[Chain], batch: int):
        self.lib = lib
        self.chains = chains
        self.batch = batch

    def depth(self, j: int) -> int:
        return self.chains[j % len(self.chains)].k

    def request(self, j: int, call=direct):
        c = self.chains[j % len(self.chains)]
        try:
            ok = pipeline(self.lib, c, call) == expected_outputs(c)
        except Exception:  # noqa: BLE001 - a failed op is counted, the loop goes on
            _report_failure(f"pipeline on a {c.k}-binder chain")
            ok = False
        return (1, 0, c.k) if ok else (1, 1, 0)


def deep(lib, seed: int, rounds: int = 3) -> Pipeline:
    """Rounds of one chain per ladder depth, deepest first, with seeded indices.

    Ops stop only at the end of a round, so every run has the same depth
    mix in the same order, and every 3,000-binder op, the median one,
    follows a 10,000-binder op.
    """
    rng = random.Random(seed)
    chains = [Chain(lib, k, rng.randrange(k)) for _ in range(rounds) for k in reversed(DEPTH_LADDER)]
    return Pipeline(lib, chains, batch=len(DEPTH_LADDER))


def _chain_of(lib, d) -> Chain:
    k = 0
    while isinstance(d, lib.debruijn.Lam):
        k += 1
        d = d.body
    return Chain(lib, k, d.index)


def shallow(lib, seed: int, pool: int = 1000) -> Pipeline:
    """``gen_term(seed + j, 32)`` chains; ops cycle through the pool."""
    return Pipeline(lib, [_chain_of(lib, lib.debruijn.gen_term(seed + j, SHALLOW_MAX_DEPTH)) for j in range(pool)], batch=1)


class Cli:
    """Each op is one ``python -m kripkelam.cli <command> <file>`` process."""

    reference_nominal_s = INTERPRETER_NOMINAL_S

    def __init__(self, lib, seed: int, terms: int = 16):
        folder = OUT / "cli"
        folder.mkdir(parents=True, exist_ok=True)
        self.runs = []
        for n in range(terms):
            c = _chain_of(lib, lib.debruijn.gen_term(seed + n, SHALLOW_MAX_DEPTH))
            named, db_file = folder / f"term{n}.lam", folder / f"term{n}.db"
            named.write_text(c.named_text, encoding="utf-8")
            db_file.write_text(c.db_text, encoding="utf-8")
            expected = {"size": str(c.size), "print": c.printed, "to-db": c.db_text, "from-db": c.printed}
            for command in CLI_COMMANDS:
                path = db_file if command == "from-db" else named
                self.runs.append((command, str(path), expected[command] + "\n", c.k))
        self.batch = len(CLI_COMMANDS)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def depth(self, j: int) -> int:
        return self.runs[j % len(self.runs)][3]

    def warm_up(self):
        """One untimed invocation, so bytecode caches are written as for an installed user."""
        self.request(0)

    def reference(self) -> float:
        """Seconds to start and stop a bare interpreter.

        Process start and exit, not user-space computation, set how fast a
        CLI op runs on a busy machine; so this is the workload's speed
        reference, timed after each batch, in place of the integer block.
        """
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
        return perf_counter() - t0

    def request(self, j: int, call=direct):
        command, path, expected, k = self.runs[j % len(self.runs)]
        argv = [sys.executable, "-m", "kripkelam.cli", command, path]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
            ok = proc.returncode == 0 and proc.stdout.decode("utf-8") == expected
            if not ok:
                _report_failure(f"cli {command} {path}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        except (OSError, subprocess.TimeoutExpired):
            _report_failure(f"cli {command} {path}")
            ok = False
        return (1, 0, k) if ok else (1, 1, 0)


class Laws:
    """Each request is one ``run_all_laws(8, 1000, seed + j)``; each law instance is an op."""

    batch = 1

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.suites = 3 * len(lib.laws.standard_contexts())
        self.per_suite = len(lib.laws.enumerate_skeletons(LAWS_MAX_BINDERS)) + LAWS_SAMPLES
        self.calls = 0
        self.checked = 0
        self.failures = 0

    def depth(self, j: int) -> int:
        return 0

    def request(self, j: int, call=direct):
        expected = self.suites * self.per_suite
        try:
            reports = self.lib.laws.run_all_laws(LAWS_MAX_BINDERS, LAWS_SAMPLES, self.seed + j)
        except Exception:  # noqa: BLE001 - a failed call is counted, the loop goes on
            _report_failure(f"run_all_laws seed {self.seed + j}")
            return expected, expected, 0
        checked = sum(r.checked for r in reports)
        failures = sum(len(r.failures) for r in reports)
        self.calls += 1
        self.checked += checked
        self.failures += failures
        # Instances that were refuted or never checked both count as failed.
        failed = max(0, min(expected, expected - (checked - failures)))
        if failed:
            _report_failure(f"run_all_laws seed {self.seed + j}: {failed} of {expected} instances failed")
        return expected, failed, 0


WORKLOADS = {
    "deep": deep,
    "shallow": shallow,
    "laws": Laws,
    "cli": Cli,
}


def reference_block() -> float:
    """Seconds taken by a fixed block of pure-Python integer work.

    It calls no library code and allocates nothing that outlives a step, so
    neither a change to the library nor the state of its heap moves it;
    only the speed of the machine at that moment does.
    """
    t0 = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i
    return perf_counter() - t0


class Loop:
    """The requests of one closed loop, column by column, and the
    references timed during it.

    Flat arrays keep the memory a long run takes small and independent of
    how fast the requests are, since peak RSS is a metric.
    """

    def __init__(self, nominal_s: float):
        self.start = array("d")  # on the perf_counter clock
        self.end = array("d")
        self.wall = array("d")  # end - start, less the references that interrupted it
        self.ops = array("q")
        self.failed = array("q")
        self.binders = array("q")
        self.nominal_s = nominal_s
        self.references: list[tuple[float, float]] = []  # (start, seconds)
        self.paused = 0.0  # time taken by the references

    def add(self, start: float, end: float, wall: float, outcome):
        ops, failed, binders = outcome
        for column, value in zip(
            (self.start, self.end, self.wall, self.ops, self.failed, self.binders),
            (start, end, wall, ops, failed, binders),
        ):
            column.append(value)

    def sample(self, reference):
        t0 = perf_counter()
        self.references.append((t0, reference()))
        self.paused += perf_counter() - t0

    def scaled_walls(self) -> list[float]:
        """Each request's wall time, scaled to nominal machine speed.

        The machine may be shared, and its speed then drifts by a third
        over a few seconds. A request's time is multiplied by the nominal
        time of the reference over the median reference timed during the
        request or within ``SPEED_WINDOW_S`` of it; over the nearest one
        when there is none.
        """
        starts = [t for t, _ in self.references]
        scaled = []
        for start, end, wall in zip(self.start, self.end, self.wall):
            lo = min(bisect.bisect_left(starts, start - SPEED_WINDOW_S), len(starts) - 1)
            hi = max(bisect.bisect_right(starts, end + SPEED_WINDOW_S), lo + 1)
            reference = statistics.median(seconds for _, seconds in self.references[lo:hi])
            scaled.append(wall * self.nominal_s / reference)
        return scaled


class SpeedSampler:
    """Times a reference block into ``loop`` on a wall-clock timer while entered.

    The timer's signal handler runs in the main thread, between bytecodes,
    also while a request is running or waiting for the library's worker
    thread, so a long request is scaled by the machine's speed during it.
    """

    def __init__(self, loop: Loop):
        self.loop = loop
        self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.loop.sample(reference_block)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def closed_loop(load, seconds: float, tracer=None) -> Loop:
    """One client: each request starts when the previous one returns.

    Requests start until ``seconds`` have passed, and the last batch of the
    workload is always completed. References are timed throughout by a
    :class:`SpeedSampler`, or after each batch for a workload with a
    ``reference`` of its own. Their time counts neither to the run nor to
    the request they interrupt.
    """
    own_reference = getattr(load, "reference", None)
    loop = Loop(load.reference_nominal_s if own_reference else REFERENCE_NOMINAL_S)
    with nullcontext() if own_reference else SpeedSampler(loop):
        start = perf_counter()
        j = 0
        while j % load.batch or perf_counter() - start - loop.paused < seconds:
            paused = loop.paused
            t0 = perf_counter()
            outcome = load.request(j) if tracer is None else tracer.op(load.request, j, load.depth(j))
            t1 = perf_counter()
            loop.add(t0, t1, t1 - t0 - (loop.paused - paused), outcome)
            j += 1
            if own_reference and j % load.batch == 0:
                loop.sample(own_reference)
    return loop
