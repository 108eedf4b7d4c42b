"""Spans recorded by the benchmark around its calls into the library.

A span has a name, a start, an end, the span that caused it and the op it
belongs to. Spans are kept in memory while the run measures and written out
once at the end. A span's self time is its duration minus the time its
direct children cover; calls here are single-threaded and strictly nested,
so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


def direct(_name, fn, *args, **kwargs):
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    """Span ``n`` is ``names[n]``, ``starts[n]``, ``ends[n]``, ``parents[n]``
    (a span index, -1 for none) and ``ops[n]``.

    The columns are flat arrays rather than one object per span, so a long
    trace adds no work to the garbage collector's passes.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        # Binder count of each op's input, 0 where the op has none.
        self.op_depth: list[int] = []
        self._stack = [-1]

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack
        index = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1])
        self.ops.append(len(self.op_depth) - 1)
        self.ends.append(0)
        stack.append(index)
        self.starts.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = perf_counter_ns()
            stack.pop()

    def op(self, request, j: int, depth: int):
        """Run request ``j`` as a new op whose spans share its index."""
        self.op_depth.append(depth)
        return self.call("op", request, j, self.call)

    @contextmanager
    def wrapping(self, module, names, prefix: str):
        """Replace ``module.<name>`` by a span-recording wrapper while open.

        Callers inside the module look those names up at call time, so the
        spans show how the module composes its own public functions.
        """
        saved = {name: getattr(module, name) for name in names}
        for name, fn in saved.items():
            setattr(module, name, functools.partial(self.call, f"{prefix}.{name}", fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def times_ms(self, name: str, depth: int | None = None, inclusive: bool = False) -> list[float]:
        """Self (or inclusive) times in ms of the spans called ``name``."""
        starts, ends = self.starts, self.ends
        child = [0] * len(starts)
        if not inclusive:
            for index, parent in enumerate(self.parents):
                if parent >= 0:
                    child[parent] += ends[index] - starts[index]
        return [
            (ends[index] - starts[index] - child[index]) / 1e6
            for index, span_name in enumerate(self.names)
            if span_name == name and (depth is None or self.op_depth[self.ops[index]] == depth)
        ]

    def median_ms(self, name: str, depth: int | None = None, inclusive: bool = False) -> float:
        times = self.times_ms(name, depth, inclusive)
        if not times:
            raise LookupError(f"no span {name!r} at depth {depth}")
        return statistics.median(times)

    def write(self, path: Path):
        """Write every span as one JSON list per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write('["name", "start_ns", "end_ns", "parent", "op", "op_depth"]\n')
            columns = zip(self.names, self.starts, self.ends, self.parents, self.ops)
            for name, start, end, parent, op in columns:
                handle.write(json.dumps([name, start, end, parent, op, self.op_depth[op]]) + "\n")
