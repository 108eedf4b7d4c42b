"""Binder-only lambda terms encoded higher-order, with first-order oracles.

The encoding lives in :mod:`kripkelam.encoding`: closed terms are functions
from algebras to carriers, binder bodies are Kripke functions usable at any
reachable world, and ``lam_alg`` is the weakly initial algebra. Example
algebras (size, printing, de Bruijn conversion) are in
:mod:`kripkelam.algebras`, the first-order ground truth and generators in
:mod:`kripkelam.debruijn`, extensional homomorphism checking in
:mod:`kripkelam.laws`, and the command line in :mod:`kripkelam.cli`.
"""

from .algebras import (
    NameStream,
    names,
    print_alg,
    print_term,
    size,
    size_alg,
    to_debruijn,
    to_debruijn_alg,
)
from .debruijn import (
    Abs,
    DbTerm,
    Lam,
    NamedTerm,
    OpenTermError,
    ParseError,
    Ref,
    UnboundVariable,
    Var,
    db_to_body,
    db_to_hoas,
    db_to_named,
    db_validate,
    enumerate_terms,
    format_db,
    gen_term,
    named_to_db,
    oracle_print,
    oracle_size,
    parse_db,
    splitmix64,
)
from .encoding import (
    DEFAULT_MAX_NESTING,
    Algebra,
    DepthLimitError,
    OpenTerm,
    Rename,
    Term,
    closed,
    fold,
    identity_embed,
    lam,
    lam_alg,
    place,
    run_guarded,
)
from .laws import (
    BodySkeleton,
    CarrierContext,
    Report,
    Slot,
    Witness,
    body_of_skeleton,
    check_compose_hom,
    check_fold_hom,
    check_hom,
    check_id_hom,
    enumerate_skeletons,
    gen_skeleton,
    hom_sides,
    identity_term,
    run_all_laws,
    skeleton_pool,
    standard_contexts,
)

__version__ = "0.1.0"
