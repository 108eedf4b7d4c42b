"""Shared builders for the test suite."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from kripkelam import Algebra, Lam, Rename, Term, Var, closed, lam, place

SRC = Path(__file__).resolve().parent.parent / "src"


def term_xy_x() -> Term:
    """Two binders, body is the outer variable: the running example term."""
    return closed(lambda mo, x: lam(lambda mx, y: place(mx.apply(x))))


def term_x_x() -> Term:
    """One binder, body is its own variable."""
    return closed(lambda _mo, x: place(x))


def term_xy_y() -> Term:
    """Two binders, body is the inner variable."""
    return closed(lambda mo, x: lam(lambda mx, y: place(y)))


def chain(k: int, i: int):
    """The de Bruijn chain of ``k`` binders around ``Var(i)``."""
    d = Var(i)
    for _ in range(k):
        d = Lam(d)
    return d


def deep_term(depth: int) -> Term:
    """``depth`` nested binders around the innermost variable.

    Built without an environment so folding is linear in ``depth``; used to
    exercise the nesting guard.
    """

    def level(j):
        def body(mx, fresh):
            if j == depth:
                return place(fresh)
            return lam(level(j + 1))

        return body

    return closed(level(1))


class Poison:
    """Algebra that records every interpretation and must stay uninvoked."""

    def __init__(self):
        self.calls = 0
        self.alg = Algebra(self._hit, name="poison")

    def _hit(self, body, embed, candidate):
        self.calls += 1
        return 0


class RenameCounter:
    """Algebra that hands every body a counting, tagging rename.

    The n-th binder interpreted gives its variable the denotation
    ``("var", n)``; the rename wraps a value as ``("renamed", value)`` and
    counts its calls. The carrier is whatever the occurrence denotes, so a
    fold shows which binder an occurrence names and how often its
    denotation was renamed on the way.
    """

    def __init__(self):
        self.applies = 0
        self.binders = 0
        self.rename = Rename(self._tag)
        self.alg = Algebra(self._interpret, name="rename-counter")

    def _tag(self, value):
        self.applies += 1
        return ("renamed", value)

    def _interpret(self, body, embed, candidate):
        self.binders += 1
        return body(self.rename, ("var", self.binders)).interpret(candidate)


def renamed(value, times: int):
    """``value`` as ``RenameCounter`` shows it after ``times`` renames."""
    for _ in range(times):
        value = ("renamed", value)
    return value


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args``, at the default recursion limit,
    with this checkout's ``src`` first on the path; capture its output."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )


def run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter (see ``run_python``); return its stdout."""
    done = run_python("-c", textwrap.dedent(script))
    assert done.returncode == 0, done.stderr
    return done.stdout
