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
failure is a real counterexample and comes with the skeleton that produced
it, which alone determines the instance; a pass covers only the instances
that ran.

A :class:`BodySkeleton` is checked once, when it is made, so a law
instance pays only for the law: :func:`body_of_skeleton` checks nothing,
and a function carrier observed at its canonical argument reads the bound
variable that ends its chain, with no call of that variable and no name
stream made for it.
The skeletons the library makes itself (:func:`enumerate_skeletons`,
:func:`skeleton_pool`) are valid by construction, and are made without
``__init__`` by the rule for the library's own objects in
:mod:`kripkelam.encoding`.

:func:`hom_sides` evaluates one instance and returns both observed sides.
The suites (:func:`check_hom` and the three laws built on it) run it over
any iterable of skeletons, such as :func:`enumerate_skeletons` or
:func:`skeleton_pool` returns, and record each refuted skeleton as a
:class:`Witness`. :func:`run_all_laws` checks every skeleton up to a
binder bound by default, and seeded samples only when asked for them.

The law records (:class:`BodySkeleton`, :class:`Witness`, :class:`Report`,
:class:`CarrierContext`) are built on the slotted record base of
:mod:`kripkelam.encoding`, which :class:`~kripkelam.algebras.NameStream`
shares.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Any, Callable, Iterable, Union

from .algebras import _Level, names, print_alg, size_alg, to_debruijn_alg
from .debruijn import splitmix64
from .encoding import (
    Algebra,
    Rename,
    Term,
    _Frozen,
    _Record,
    _at_least,
    _binder,
    _guarded,
    _identity,
    _integer,
    _new,
    _set,
    closed,
    fold,
    lam_alg,
    place,
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


class BodySkeleton(_Frozen):
    """Finite stand-in for a quantified binder body.

    ``binders`` local binders wrapped around a single leaf. The leaf is
    either one of the two slots or the de Bruijn index of a local binder
    (innermost = 0).

    A skeleton is checked when it is made, by :meth:`validate`, and keeps
    the ``int`` count and leaf that returns, so no later use checks it
    again. The library makes its own skeletons, which are valid by
    construction, with ``_new`` and slot stores instead.
    """

    __slots__ = __match_args__ = ("binders", "leaf")

    def __init__(self, binders: int, leaf: Union[Slot, int]):
        _set(self, "binders", binders)
        _set(self, "leaf", leaf)
        binders, leaf = self.validate()
        _set(self, "binders", binders)
        _set(self, "leaf", leaf)

    def validate(self) -> tuple[int, Union[Slot, int]]:
        """Check the skeleton and return its binder count and leaf, each
        integer read as an ``int``.

        The count and an index leaf may be any integer in range, and a
        ``bool`` counts as its ``int``; anything else raises ``TypeError``
        naming it. Making a skeleton calls this, so one that exists has
        passed it.
        """
        binders = _integer(self.binders, "a skeleton's binder count is an integer")
        if binders < 0:
            raise ValueError(f"negative binder count: {binders}")
        leaf = self.leaf
        if not isinstance(leaf, Slot):
            leaf = _integer(leaf, "a skeleton's leaf is a Slot or an integer")
            if not 0 <= leaf < binders:
                raise ValueError(f"leaf index {leaf} is not bound by {binders} local binders")
        return binders, leaf

    def describe(self) -> str:
        leaf = self.leaf.value if isinstance(self.leaf, Slot) else f"local{self.leaf}"
        return f"{self.binders} binders over {leaf}"


def _skeleton(binders: int, leaf: Union[Slot, int]) -> BodySkeleton:
    """The skeleton ``BodySkeleton(binders, leaf)``, made without ``__init__``:
    ``binders`` is an ``int`` and ``leaf`` a slot or an ``int`` index in range."""
    s = _new(BodySkeleton)
    _set(s, "binders", binders)
    _set(s, "leaf", leaf)
    return s


def body_of_skeleton(skeleton: BodySkeleton, env_value):
    """Realize a skeleton as a binder body closed over ``env_value``.

    The resulting body maps (rename, fresh) to the skeleton's structure.
    Only the leaf's value is carried through the local binders' renames:
    the renamed ``env_value``, the renamed ``fresh``, or a local binder's
    variable from the binder that introduces it. ``env_value`` is renamed
    only when the leaf is the env slot. The skeleton was checked when it
    was made, so this reads its fields and checks nothing.
    """
    # As a chain, the leaf names the body's own binder (fresh), one of the
    # local binders below it, or a binder outside the body (env), which every
    # rename reaches.
    below = skeleton.binders
    index = skeleton.leaf
    if index is Slot.ENV:
        index = below + 1
    elif index is Slot.FRESH:
        index = below
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
    lhs = _guarded(lambda body: observe(h(alg1.interpret_lam(body, _identity, alg1))), f)

    def adapted(mx: Rename, fresh):
        r = _new(Rename)
        r.apply = lambda a: mx.apply(h(a))
        return f(r, fresh)

    rhs = _guarded(lambda body: observe(alg2.interpret_lam(body, _identity, alg2)), adapted)
    return lhs, rhs


class Witness(_Frozen):
    """A refuted instance, reproducible from its skeleton."""

    __slots__ = __match_args__ = ("skeleton", "lhs", "rhs")

    def __init__(self, skeleton: BodySkeleton, lhs: Any, rhs: Any):
        _set(self, "skeleton", skeleton)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def describe(self) -> str:
        return f"{self.skeleton.describe()}: lhs {self.lhs!r} != rhs {self.rhs!r}"


class Report(_Record):
    """A suite's name, its count of checked instances and its refuted ones;
    ``failures`` is a new list unless one is given."""

    __slots__ = __match_args__ = ("suite", "checked", "failures")

    def __init__(self, suite: str, checked: int = 0, failures: Union[list[Witness], None] = None):
        self.suite = suite
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{self.suite}: {self.checked} checked, {len(self.failures)} failures [{status}]"


def check_hom(
    alg1: Algebra,
    alg2: Algebra,
    h: Callable[[Any], Any],
    skeletons: Iterable[BodySkeleton],
    *,
    env_value,
    observe: Callable[[Any], Any],
    suite: str = "hom",
) -> Report:
    """Check one candidate homomorphism on every skeleton.

    Each instance is one call of :func:`hom_sides`, looked up in this
    module at the call, so a wrapper put in its place sees every instance.
    """
    report = Report(suite)
    for skeleton in skeletons:
        lhs, rhs = hom_sides(alg1, alg2, h, skeleton, env_value, observe)
        report.checked += 1
        if lhs != rhs:
            report.failures.append(Witness(skeleton, lhs, rhs))
    return report


def check_id_hom(alg: Algebra, skeletons: Iterable[BodySkeleton], *, env_value, observe) -> Report:
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
    skeletons: Iterable[BodySkeleton],
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


def check_fold_hom(alg: Algebra, skeletons: Iterable[BodySkeleton], *, observe) -> Report:
    """Folding with ``alg`` is a homomorphism from ``lam_alg()`` to ``alg``.

    The environment value lives at the term carrier, so it is a term: the
    identity term.
    """
    label = alg.name or "alg"
    return check_hom(
        lam_alg(),
        alg,
        partial(fold, alg),
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
    max_binders = _at_least(_integer(max_binders, "a binder bound is an integer"), "max_binders", 0)
    return [_skeleton(j, leaf) for j in range(max_binders + 1) for leaf in (Slot.ENV, Slot.FRESH, *range(j))]


def skeleton_pool(max_binders: int, samples: int, seed: int) -> list[BodySkeleton]:
    """Every skeleton up to ``max_binders``, then ``samples`` drawn ones with
    up to ``4 * max_binders`` binders, one per seed ``seed``, ``seed + 1``, ...

    A seed draws as ``gen_term`` does, two splitmix64 outputs: the binder
    count is ``draw0 mod (4 * max_binders + 1)``, and ``draw1 mod (binders
    + 2)`` picks the leaf, 0 the env slot, 1 the fresh one and ``2 + i``
    local ``i``.
    """
    samples = _integer(samples, "a sample count is an integer")
    seed = _integer(seed, "a seed is an integer")
    _at_least(samples, "samples", 0)
    max_binders = _integer(max_binders, "a binder bound is an integer")
    pool = enumerate_skeletons(max_binders)
    bound = 4 * max_binders + 1
    for s in range(seed, seed + samples):
        draw0, state = splitmix64(s)
        draw1, _ = splitmix64(state)
        binders = draw0 % bound
        choice = draw1 % (binders + 2)
        pool.append(_skeleton(binders, Slot.ENV if choice == 0 else Slot.FRESH if choice == 1 else choice - 2))
    return pool


class CarrierContext(_Frozen):
    """An observable carrier: its algebra, a sample value, an observation."""

    __slots__ = __match_args__ = ("label", "alg", "env_value", "observe")

    def __init__(self, label: str, alg: Algebra, env_value: Any, observe: Callable[[Any], Any]):
        _set(self, "label", label)
        _set(self, "alg", alg)
        _set(self, "env_value", env_value)
        _set(self, "observe", observe)


# The print carrier's canonical argument, shared: a name stream is immutable.
_FROM_X1 = names(1)


def standard_contexts() -> list[CarrierContext]:
    """The three observable carriers the library fixes for cross-checks.

    Function carriers are observed by applying to the canonical argument:
    the name stream from x1 for printing, depth 1 for de Bruijn.
    """
    return [
        CarrierContext("size", size_alg(), 1, lambda n: n),
        CarrierContext("print", print_alg(), lambda _stream: "e", lambda render: render(_FROM_X1)),
        # The variable of the binder at level 1, as the carrier's own binders give it.
        CarrierContext("debruijn", to_debruijn_alg(), _Level(1), lambda f: f(1)),
    ]


def run_all_laws(max_binders: int = 32, samples: int = 0, seed: int = 0) -> list[Report]:
    """Run the identity, composition (``fold(lam_alg(), _)`` then
    ``fold(alg, _)``) and fold suites on every standard carrier ``alg``.

    Each suite checks :func:`skeleton_pool`: by default every skeleton with
    up to 32 binders, 594 of them, which holds every skeleton a pool
    ``skeleton_pool(8, samples, seed)`` draws. With ``samples`` each pool
    also draws that many skeletons, the first carrier's from ``seed`` on
    and each next one's from the seed after the last one's.
    """
    samples = _integer(samples, "a sample count is an integer")
    seed = _integer(seed, "a seed is an integer")
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
                partial(fold, lam_alg()),
                partial(fold, ctx.alg),
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
