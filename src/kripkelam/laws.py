"""Extensional checks of the homomorphism laws.

A function h between two carriers is a homomorphism from algebra alg1 to
algebra alg2 when, for every binder body f, applying h after alg1 equals
applying alg2 to the body with h spliced into its renames:

    h(alg1.interpret_lam(f, e, alg1))
        == alg2.interpret_lam(lambda mx, y: f(mx after h, y), e, alg2)

The identity is a homomorphism, homomorphisms compose, and ``fold(alg, _)``
is a homomorphism from ``lam_alg()`` to any ``alg``; the last fact is what
makes ``lam_alg()`` weakly initial.

In the underlying theory these are definitional equalities over all bodies
and all candidate families. This module semi-decides them: bodies are drawn
from a finite family of skeletons, the candidate family is fixed to the
algebra type with the identity embedding (the only instantiation the rest
of this library uses), and results are compared at observable carriers,
applying function carriers to a canonical argument first. A reported
failure is a real counterexample and comes with the skeleton (and seed, if
generated) that produced it; a pass covers only the instances that ran.

:func:`hom_sides` evaluates one instance and returns both observed sides.
The suites (:func:`check_hom` and the three laws built on it) run it over
``(seed, skeleton)`` pairs as :func:`skeleton_pool` returns them, with seed
None for an enumerated skeleton, and record each refuted pair as a
:class:`Witness`.
"""

from __future__ import annotations

import enum
import operator
import reprlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Union

from .algebras import names, print_alg, size_alg, to_debruijn_alg
from .debruijn import Var, _binder, splitmix64
from .encoding import (
    Algebra,
    Rename,
    Term,
    _new,
    closed,
    fold,
    identity_embed,
    lam_alg,
    place,
    run_guarded,
)

__all__ = [
    "BodySkeleton",
    "CarrierContext",
    "Report",
    "Slot",
    "Witness",
    "body_of_skeleton",
    "check_compose_hom",
    "check_fold_hom",
    "check_hom",
    "check_id_hom",
    "enumerate_skeletons",
    "gen_skeleton",
    "hom_sides",
    "identity_term",
    "render_reports",
    "run_all_laws",
    "skeleton_pool",
    "standard_contexts",
]


class Slot(enum.Enum):
    """The two free leaves a skeleton can end in."""

    ENV = "env"  # the environment value, renamed into the leaf's world
    FRESH = "fresh"  # the body's own bound variable


@dataclass(frozen=True)
class BodySkeleton:
    """Finite stand-in for a quantified binder body.

    ``binders`` local binders wrapped around a single leaf. The leaf is
    either one of the two slots or the de Bruijn index of a local binder
    (innermost = 0).
    """

    binders: int
    leaf: Union[Slot, int]

    def validate(self):
        if not isinstance(self.binders, int):
            raise TypeError(f"a skeleton's binder count is an integer, not {reprlib.repr(self.binders)}")
        if self.binders < 0:
            raise ValueError(f"negative binder count: {self.binders}")
        if not isinstance(self.leaf, (Slot, int)):
            raise TypeError(f"a skeleton's leaf is a Slot or an integer, not {reprlib.repr(self.leaf)}")
        if isinstance(self.leaf, int) and not 0 <= self.leaf < self.binders:
            raise ValueError(
                f"leaf index {self.leaf} is not bound by {self.binders} local binders"
            )

    def describe(self) -> str:
        leaf = self.leaf.value if isinstance(self.leaf, Slot) else f"local{self.leaf}"
        return f"{self.binders} binders over {leaf}"


def body_of_skeleton(skeleton: BodySkeleton, env_value):
    """Realize a skeleton as a binder body closed over ``env_value``.

    The resulting body maps (rename, fresh) to the skeleton's structure.
    Only the leaf's value is carried through the local binders' renames:
    the renamed ``env_value``, the renamed ``fresh``, or a local binder's
    variable from the binder that introduces it. ``env_value`` is renamed
    only when the leaf is the env slot.
    """
    skeleton.validate()
    # As a chain, the leaf names the body's own binder (fresh), one of the
    # local binders below it, or a binder outside the body (env), which every
    # rename reaches.
    below = skeleton.binders
    if skeleton.leaf is Slot.ENV:
        index = below + 1
    elif skeleton.leaf is Slot.FRESH:
        index = below
    else:
        index = skeleton.leaf
    return _binder(below, index, env_value)


def hom_sides(
    alg1: Algebra,
    alg2: Algebra,
    h: Callable[[Any], Any],
    skeleton: BodySkeleton,
    env_value,
    observe: Callable[[Any], Any],
) -> tuple[Any, Any]:
    """One instance of the equation: both sides, observed, as ``(lhs, rhs)``.

    The body is ``skeleton`` closed over ``env_value``; ``h`` is a
    homomorphism from ``alg1`` to ``alg2`` on this instance exactly when
    the two sides are equal.
    """
    f = body_of_skeleton(skeleton, env_value)
    embed = identity_embed()

    lhs = run_guarded(lambda: observe(h(alg1.interpret_lam(f, embed, alg1))))

    def adapted(mx: Rename, fresh):
        r = _new(Rename)
        r.apply = lambda a: mx.apply(h(a))
        return f(r, fresh)

    rhs = run_guarded(lambda: observe(alg2.interpret_lam(adapted, embed, alg2)))
    return lhs, rhs


@dataclass(frozen=True)
class Witness:
    """A refuted instance, reproducible from the skeleton (and seed)."""

    skeleton: BodySkeleton
    seed: Union[int, None]
    lhs: Any
    rhs: Any

    def describe(self) -> str:
        origin = f"seed {self.seed}" if self.seed is not None else "enumerated"
        return (
            f"{self.skeleton.describe()} ({origin}): "
            f"lhs {self.lhs!r} != rhs {self.rhs!r}"
        )


@dataclass
class Report:
    suite: str
    checked: int = 0
    failures: list[Witness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{self.suite}: {self.checked} checked, {len(self.failures)} failures [{status}]"


# A skeleton as :func:`skeleton_pool` returns it: tagged with the seed that
# generated it, or None if it was enumerated.
_PoolItem = tuple[Union[int, None], BodySkeleton]


def check_hom(
    alg1: Algebra,
    alg2: Algebra,
    h: Callable[[Any], Any],
    skeletons: Iterable[_PoolItem],
    *,
    env_value,
    observe: Callable[[Any], Any],
    suite: str = "hom",
) -> Report:
    """Check one candidate homomorphism on every ``(seed, skeleton)`` pair."""
    report = Report(suite)
    for seed, skeleton in skeletons:
        lhs, rhs = hom_sides(alg1, alg2, h, skeleton, env_value, observe)
        report.checked += 1
        if lhs != rhs:
            report.failures.append(Witness(skeleton, seed, lhs, rhs))
    return report


def check_id_hom(alg: Algebra, skeletons: Iterable[_PoolItem], *, env_value, observe) -> Report:
    """The identity function is a homomorphism from ``alg`` to itself."""
    label = alg.name or "alg"
    return check_hom(
        alg,
        alg,
        lambda x: x,
        skeletons,
        env_value=env_value,
        observe=observe,
        suite=f"id_hom[{label}]",
    )


def check_compose_hom(
    alg1: Algebra,
    alg2: Algebra,
    alg3: Algebra,
    h1: Callable[[Any], Any],
    h2: Callable[[Any], Any],
    skeletons: Iterable[_PoolItem],
    *,
    env_value,
    observe: Callable[[Any], Any],
) -> Report:
    """Given homomorphisms h1: alg1 to alg2 and h2: alg2 to alg3, their
    composite is one from alg1 to alg3."""
    label = f"{alg1.name or 'alg1'}->{alg2.name or 'alg2'}->{alg3.name or 'alg3'}"
    return check_hom(
        alg1,
        alg3,
        lambda x: h2(h1(x)),
        skeletons,
        env_value=env_value,
        observe=observe,
        suite=f"compose_hom[{label}]",
    )


def identity_term() -> Term:
    """The one-binder term whose body is its own variable."""
    return closed(lambda _outer, x: place(x))


def check_fold_hom(alg: Algebra, skeletons: Iterable[_PoolItem], *, observe) -> Report:
    """Folding with ``alg`` is a homomorphism from ``lam_alg()`` to ``alg``.

    The environment value lives at the term carrier, so it is a term: the
    identity term.
    """
    label = alg.name or "alg"
    return check_hom(
        lam_alg(),
        alg,
        lambda t: fold(alg, t),
        skeletons,
        env_value=identity_term(),
        observe=observe,
        suite=f"fold_hom[{label}]",
    )


def enumerate_skeletons(max_binders: int) -> list[BodySkeleton]:
    """Every skeleton with up to ``max_binders`` local binders.

    For j binders there are j + 2 leaves (two slots plus j locals), so this
    yields sum over j of (j + 2) skeletons, in (binders, leaf) order with
    slots first.
    """
    if max_binders < 0:
        raise ValueError("max_binders must be nonnegative")
    out = []
    for j in range(max_binders + 1):
        out.append(BodySkeleton(j, Slot.ENV))
        out.append(BodySkeleton(j, Slot.FRESH))
        out.extend(BodySkeleton(j, i) for i in range(j))
    return out


def gen_skeleton(seed: int, max_binders: int) -> BodySkeleton:
    """Seeded pseudo-random skeleton, same splitmix64 scheme as gen_term."""
    try:
        max_binders = operator.index(max_binders)
    except TypeError:
        raise TypeError(f"a binder bound is an integer, not {reprlib.repr(max_binders)}") from None
    if max_binders < 0:
        raise ValueError("max_binders must be nonnegative")
    draw0, state = splitmix64(seed)
    draw1, _ = splitmix64(state)
    binders = draw0 % (max_binders + 1)
    choice = draw1 % (binders + 2)
    if choice == 0:
        return BodySkeleton(binders, Slot.ENV)
    if choice == 1:
        return BodySkeleton(binders, Slot.FRESH)
    return BodySkeleton(binders, choice - 2)


def skeleton_pool(max_binders: int, samples: int, seed: int) -> list[_PoolItem]:
    """Every skeleton up to ``max_binders`` tagged None, then ``samples``
    generated ones with up to ``4 * max_binders`` binders, tagged with their
    seeds ``seed``, ``seed + 1``, ..."""
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    pool: list[_PoolItem] = [(None, s) for s in enumerate_skeletons(max_binders)]
    pool.extend((seed + i, gen_skeleton(seed + i, 4 * max_binders)) for i in range(samples))
    return pool


@dataclass(frozen=True)
class CarrierContext:
    """An observable carrier: its algebra, a sample value, an observation."""

    label: str
    alg: Algebra
    env_value: Any
    observe: Callable[[Any], Any]


def standard_contexts() -> list[CarrierContext]:
    """The three observable carriers the library fixes for cross-checks.

    Function carriers are observed by applying to the canonical argument:
    the name stream from x1 for printing, depth 1 for de Bruijn.
    """
    return [
        CarrierContext("size", size_alg(), 1, lambda n: n),
        CarrierContext(
            "print", print_alg(), lambda _stream: "e", lambda render: render(names(1))
        ),
        CarrierContext(
            "debruijn", to_debruijn_alg(), lambda n: Var(n - 1), lambda f: f(1)
        ),
    ]


def run_all_laws(max_binders: int = 8, samples: int = 1000, seed: int = 0) -> list[Report]:
    """Run the identity, composition (``fold(lam_alg(), _)`` then
    ``fold(alg, _)``) and fold suites on every standard carrier ``alg``."""
    reports = []
    for offset, ctx in enumerate(standard_contexts()):
        pool = skeleton_pool(max_binders, samples, seed + offset * max(samples, 1))
        reports.append(
            check_id_hom(ctx.alg, pool, env_value=ctx.env_value, observe=ctx.observe)
        )
        reports.append(
            check_compose_hom(
                lam_alg(),
                lam_alg(),
                ctx.alg,
                lambda t: fold(lam_alg(), t),
                lambda t, alg=ctx.alg: fold(alg, t),
                pool,
                env_value=identity_term(),
                observe=ctx.observe,
            )
        )
        reports.append(check_fold_hom(ctx.alg, pool, observe=ctx.observe))
    return reports


_SHOWN_WITNESSES = 5


def render_reports(reports: Iterable[Report]) -> str:
    """One summary line per report, then up to five of its counterexamples."""
    lines = []
    for report in reports:
        lines.append(report.summary())
        for witness in report.failures[:_SHOWN_WITNESSES]:
            lines.append(f"  counterexample: {witness.describe()}")
        hidden = len(report.failures) - _SHOWN_WITNESSES
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
    return "\n".join(lines)
