"""Command line front end.

Input is a single term, read from a positional file argument or stdin, as
UTF-8 either way: in named syntax, or in de Bruijn syntax for ``from-db``.
Both syntaxes, and ``parse_named``/``render_named`` (imported here for
callers that use them from this module), live in
:mod:`kripkelam.debruijn`. Only ``check-laws`` imports
:mod:`kripkelam.laws`, when it runs, so the other commands start without
it. README's CLI section shows each command's output and lists the exit
codes :func:`main` returns.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebras import print_term, size, to_debruijn
from .debruijn import (
    ParseError,
    db_to_hoas,
    db_to_named,
    enumerate_terms,
    format_db,
    gen_term,
    named_to_db,
    parse_db,
    parse_named,
    render_named,
)
from .encoding import DepthLimitError, _at_least

__all__ = ["main", "parse_named", "render_named"]


def _read_input(path: str | None) -> str:
    if path is None:
        # Read as a file is, as UTF-8 whatever the locale says; a text
        # stream put in stdin's place, such as a StringIO, is read as it is.
        # Python sets stdin to None when the process starts with fd 0 closed.
        if sys.stdin is None:
            raise OSError("stdin is closed: name a file or pipe the term in")
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8")
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _hoas_from_text(text: str):
    return db_to_hoas(named_to_db(parse_named(text)))


# The commands that read one term and print one line: name, help line, and
# the map from input text to that line.
_TERM_COMMANDS = {
    "parse": (
        "parse named syntax and echo it back",
        lambda text: render_named(parse_named(text)),
    ),
    "size": (
        "binder plus occurrence count",
        lambda text: size(_hoas_from_text(text)),
    ),
    "print": (
        "canonical form with names x1, x2, ...",
        lambda text: print_term(_hoas_from_text(text)),
    ),
    "to-db": (
        "convert to de Bruijn text form",
        lambda text: format_db(to_debruijn(_hoas_from_text(text))),
    ),
    "from-db": (
        "convert de Bruijn text form to named syntax",
        lambda text: render_named(db_to_named(parse_db(text))),
    ),
}


def _cmd_term(args) -> int:
    print(args.convert(_read_input(args.file)))
    return 0


def _require(args, **least: int) -> None:
    """Reject the first numeric flag below its least value, naming the flag."""
    for dest, low in least.items():
        _at_least(getattr(args, dest), f"--{dest.replace('_', '-')}", low)


def _cmd_roundtrip(args) -> int:
    _require(args, max_depth=1)
    checked = 0
    mismatches = 0
    for d in enumerate_terms(args.max_depth):
        checked += 1
        if to_debruijn(db_to_hoas(d)) != d:
            mismatches += 1
    print(f"roundtrip: {checked} terms to depth {args.max_depth}, {mismatches} mismatches")
    return 0 if mismatches == 0 else 2


def _cmd_gen(args) -> int:
    _require(args, max_depth=1, count=0)
    for i in range(args.count):
        print(render_named(db_to_named(gen_term(args.seed + i, args.max_depth))))
    return 0


def _cmd_check_laws(args) -> int:
    _require(args, max_depth=0)
    from . import laws

    reports = laws.run_all_laws(args.max_depth)
    print(laws.render_reports(reports))
    return 0 if all(r.ok for r in reports) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kripkelam",
        description="Binder-only lambda terms in a higher-order encoding: "
        "convert, measure and check them.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, convert) in _TERM_COMMANDS.items():
        p = commands.add_parser(name, help=help_text)
        p.add_argument("file", nargs="?", default=None, help="input file (default stdin)")
        p.set_defaults(handler=_cmd_term, convert=convert)

    p = commands.add_parser("roundtrip", help="exhaustive de Bruijn round-trip self-check")
    p.add_argument("--max-depth", type=int, default=32, metavar="K")
    p.set_defaults(handler=_cmd_roundtrip)

    p = commands.add_parser("gen", help="emit seeded pseudo-random terms")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--max-depth", type=int, default=8, metavar="K")
    p.add_argument("--count", type=int, default=1, metavar="N")
    p.set_defaults(handler=_cmd_gen)

    p = commands.add_parser("check-laws", help="run the homomorphism law suites")
    p.add_argument("--max-depth", type=int, default=32, metavar="K")
    p.set_defaults(handler=_cmd_check_laws)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code, one of those README's CLI section lists; a usage
    error or ``--help`` raises ``SystemExit`` with it instead."""
    try:
        args = _build_parser().parse_args(argv)
        # Python sets stdout to None when fd 1 is closed.
        if sys.stdout is None:
            raise OSError("stdout is closed: nowhere to print the result")
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except SystemExit as stop:
        # argparse exits 2 on a usage error, but 2 means a check suite
        # failed: bad input exits 1. --help still exits 0.
        raise SystemExit(1 if stop.code else 0) from None
    except ParseError as err:
        print(f"error: syntax: {err}", file=sys.stderr)
        return 1
    except DepthLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # No bad input: as the note on SIGPIPE in the signal docs says,
        # stdout goes to devnull, so the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as err:  # also UnboundVariable, OpenTermError
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
