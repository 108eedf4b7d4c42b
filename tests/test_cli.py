import io
import os
import subprocess
import sys

import pytest

import kripkelam.cli as cli
import kripkelam.encoding as encoding
from kripkelam import DEFAULT_MAX_NESTING, Abs, ParseError, Ref
from kripkelam.cli import main, parse_named, render_named
from kripkelam.debruijn import db_to_named, format_db, oracle_print

from helpers import SRC, chain, run_python


def run_cli(monkeypatch, capsys, argv, stdin=""):
    # stdin as a process has it: bytes, which the CLI reads as UTF-8.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="ascii"))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- parser


def test_parse_named_two_binders():
    assert parse_named("\\x. \\y. x") == Abs("x", Abs("y", Ref("x")))


def test_parse_named_unicode_binder():
    assert parse_named("λx.x") == Abs("x", Ref("x"))


def test_parse_named_mixed_binders_and_whitespace():
    assert parse_named("  λ a .\n \\ b_2 . a ") == Abs("a", Abs("b_2", Ref("a")))


def test_parse_named_bare_variable():
    assert parse_named("x") == Ref("x")


def test_parse_named_rejects_parentheses():
    with pytest.raises(ParseError) as err:
        parse_named("\\x. (y)")
    assert err.value.line == 1
    assert err.value.column == 5


def test_parse_named_error_positions():
    with pytest.raises(ParseError) as err:
        parse_named("\\x.\n\\y infix")
    assert (err.value.line, err.value.column) == (2, 4)

    with pytest.raises(ParseError) as err:
        parse_named("\\. x")
    assert (err.value.line, err.value.column) == (1, 2)

    with pytest.raises(ParseError):
        parse_named("")
    with pytest.raises(ParseError):
        parse_named("\\x. x y")
    with pytest.raises(ParseError):
        parse_named("\\x.")
    with pytest.raises(ParseError):
        parse_named("\\1x. x")


def test_render_named_spacing():
    assert render_named(Abs("x", Abs("y", Ref("x")))) == "\\ x. \\ y. x"


def test_parse_render_is_idempotent():
    text = "\\ x1. \\ x2. x1"
    assert render_named(parse_named(text)) == text


# ---------------------------------------------------------------- commands


def test_cli_size_golden(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["size"], "\\x.\\y.x")
    assert (code, out, err) == (0, "3\n", "")


def test_cli_print_golden(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["print"], "\\x.\\y.x")
    assert (code, out, err) == (0, "\\ x1. \\ x2. x1\n", "")


def test_cli_to_db_golden(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["to-db"], "\\x.\\y.x")
    assert (code, out, err) == (0, "Lam (Lam (Var 1))\n", "")


def test_cli_from_db(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["from-db"], "Lam (Lam (Var 1))")
    assert (code, out, err) == (0, "\\ x1. \\ x2. x1\n", "")


def test_cli_parse_echoes_original_names(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["parse"], "λfoo. \\bar. foo")
    assert code == 0
    assert out == "\\ foo. \\ bar. foo\n"


def test_cli_unbound_variable_exits_one(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["size"], "\\x.y")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "unbound variable y" in err


def test_cli_syntax_error_exits_one(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["print"], "\\x. (y)")
    assert code == 1
    assert err.startswith("error:")


def test_cli_open_db_term_exits_one(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["from-db"], "Lam (Var 1)")
    assert code == 1
    assert err.startswith("error:")


def test_cli_bad_db_syntax_exits_one(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["from-db"], "Lam (Oops 1)")
    assert code == 1
    assert "error: syntax:" in err


def test_cli_from_db_reads_or_places_an_over_long_index(monkeypatch, capsys):
    zeros = run_cli(monkeypatch, capsys, ["from-db"], "Lam (Var " + "0" * 5000 + ")")
    assert zeros == (0, "\\ x1. x1\n", "")
    code, out, err = run_cli(monkeypatch, capsys, ["from-db"], "Var " + "1" * 5000)
    assert (code, out) == (1, "")
    assert err.startswith("error: syntax: 1:5: ")


def test_cli_depth_guard_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(encoding, "DEFAULT_MAX_NESTING", 50)
    deep = render_named(db_to_named(chain(60, 0)))
    code, _, err = run_cli(monkeypatch, capsys, ["size"], deep)
    assert code == 3
    assert err.startswith("error:")
    assert "nesting" in err


def test_cli_reads_input_file(tmp_path, monkeypatch, capsys):
    src = tmp_path / "term.lam"
    src.write_text("\\x.\\y.y", encoding="utf-8")
    code, out, _ = run_cli(monkeypatch, capsys, ["to-db", str(src)])
    assert (code, out) == (0, "Lam (Lam (Var 0))\n")


TERM_COMMAND_RUNS = [
    ("parse", "λfoo. \\bar. foo", "\\ foo. \\ bar. foo\n"),
    ("size", "\\x.\\y.x", "3\n"),
    ("print", "\\a. λb.\tb", "\\ x1. \\ x2. x2\n"),
    ("to-db", "\\x. \\y. \\z. y", "Lam (Lam (Lam (Var 1)))\n"),
    ("from-db", "Lam (Lam (Var 1))", "\\ x1. \\ x2. x1\n"),
]


@pytest.mark.parametrize(
    "command, text, expected", TERM_COMMAND_RUNS, ids=[run[0] for run in TERM_COMMAND_RUNS]
)
def test_single_term_commands_read_a_file_like_stdin(
    tmp_path, monkeypatch, capsys, command, text, expected
):
    src = tmp_path / "term.txt"
    src.write_text(text, encoding="utf-8")
    assert run_cli(monkeypatch, capsys, [command, str(src)]) == (0, expected, "")
    assert run_cli(monkeypatch, capsys, [command], text) == (0, expected, "")


def test_term_commands_read_files_at_the_guard_limit(tmp_path, monkeypatch, capsys):
    k = DEFAULT_MAX_NESTING
    d = chain(k, 4_321)
    spaced = "Lam(\u3000" * k + "Var\u30004321" + "\u3000)" * k
    files = {"canonical.db": format_db(d), "spaced.db": spaced, "named.lam": oracle_print(d)}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    runs = [
        ("from-db", "canonical.db", oracle_print(d)),
        ("from-db", "spaced.db", oracle_print(d)),
        ("print", "named.lam", oracle_print(d)),
        ("to-db", "named.lam", format_db(d)),
    ]
    for command, name, expected in runs:
        code, out, err = run_cli(monkeypatch, capsys, [command, str(tmp_path / name)])
        assert (code, out, err) == (0, expected + "\n", ""), (command, name)
    missing = tmp_path / "missing.db"
    missing.write_text(spaced[:-1], encoding="utf-8")
    code, out, err = run_cli(monkeypatch, capsys, ["from-db", str(missing)])
    assert (code, out) == (1, "")
    assert err == f"error: syntax: 1:{len(spaced)}: expected )\n"


def _imported_modules(importtime_log: str) -> set[str]:
    """Module names that ``python -X importtime`` reported on stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.fixture(scope="module")
def bare_interpreter_imports():
    done = run_python("-X", "importtime", "-c", "pass")
    assert done.returncode == 0, done.stderr
    return _imported_modules(done.stderr)


@pytest.mark.parametrize(
    "command, text, expected", TERM_COMMAND_RUNS, ids=[run[0] for run in TERM_COMMAND_RUNS]
)
def test_a_fresh_term_command_imports_no_law_module(
    tmp_path, bare_interpreter_imports, command, text, expected
):
    src = tmp_path / "term.txt"
    src.write_text(text, encoding="utf-8")
    done = run_python("-X", "importtime", "-m", "kripkelam.cli", command, str(src))
    assert (done.returncode, done.stdout) == (0, expected), done.stderr
    imported = _imported_modules(done.stderr)
    assert "kripkelam.debruijn" in imported  # the log was read
    assert "kripkelam.laws" not in done.stderr
    assert not {"dataclasses", "array"} & (imported - bare_interpreter_imports)


# What dataclasses loads; none of it serves the library.
_CODE_GENERATION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import kripkelam.laws"],
        ["-c", "from kripkelam import size; import sys; assert 'kripkelam.laws' in sys.modules"],
        ["-m", "kripkelam.cli", "check-laws", "--max-depth", "2"],
    ],
    ids=["import-laws", "root-lookup", "check-laws"],
)
def test_the_law_module_loads_no_code_generation(bare_interpreter_imports, args):
    # The law records were dataclasses, and importing dataclasses loads
    # inspect, which loads ast, dis and tokenize. Only an import statement
    # logs a module, so the root's and check-laws' loads of laws do not.
    done = run_python("-X", "importtime", *args)
    assert done.returncode == 0, done.stderr
    imported = _imported_modules(done.stderr)
    assert "kripkelam.encoding" in imported  # the log was read
    assert not _CODE_GENERATION & (imported - bare_interpreter_imports)


def test_a_fresh_check_laws_process_passes_every_suite():
    # At its default bound of 32 binders: all 594 skeletons, no seed.
    done = run_python("-m", "kripkelam.cli", "check-laws")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 9
    assert all(line.endswith(": 594 checked, 0 failures [ok]") for line in lines)


def test_cli_missing_file_exits_one(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["size", "/no/such/file"])
    assert code == 1
    assert err.startswith("error:")


def _cli_env(**env: str) -> dict:
    """This environment, with the source tree on the path, updated with ``env``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])), **env)


def _cli_process(args, stdin: bytes | None, close_stdout: bool = False, **env: str) -> subprocess.CompletedProcess:
    """``python -m kripkelam.cli`` with ``args``, fed ``stdin`` (or with fd 0
    closed if it is None, and fd 1 closed if ``close_stdout``), in this
    environment updated with ``env``; its output as bytes."""
    command = [sys.executable, "-m", "kripkelam.cli", *args]
    closed = ("<&- " if stdin is None else "") + (">&-" if close_stdout else "")
    if closed:
        # As `kripkelam size <&-` starts it: sh closes the fd before Python starts.
        command = ["sh", "-c", f'exec "$@" {closed}', "sh", *command]
    return subprocess.run(command, input=stdin, capture_output=True, env=_cli_env(**env), timeout=300)


def test_stdin_is_read_as_utf8_in_a_c_locale(tmp_path):
    # In the C locale, without UTF-8 mode, Python gives stdin the ASCII
    # encoding; a term read from stdin then failed at its first λ, while
    # the same text in a file read.
    text = "λx. x".encode("utf-8")
    src = tmp_path / "term.lam"
    src.write_bytes(text)
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0"}
    for args, stdin in ((["size"], text), (["size", str(src)], b"")):
        done = _cli_process(args, stdin, **c_locale)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"2\n", b""), args


def test_invalid_utf8_on_stdin_exits_one_with_one_error_line(tmp_path):
    text = b"\\x. \xff"
    src = tmp_path / "term.lam"
    src.write_bytes(text)
    from_stdin = _cli_process(["size"], text)
    from_file = _cli_process(["size", str(src)], b"")
    assert (from_stdin.returncode, from_stdin.stdout) == (1, b"")
    assert from_stdin.stderr.startswith(b"error: ") and from_stdin.stderr.count(b"\n") == 1
    assert from_stdin.stderr == from_file.stderr


_CLOSED_STDIN = "error: stdin is closed: name a file or pipe the term in\n"


def test_a_closed_stdin_exits_one_with_one_error_line(monkeypatch, capsys):
    # Python sets sys.stdin to None when fd 0 is closed; reading it once
    # ended in a traceback from an AttributeError.
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["size"]) == 1
    assert capsys.readouterr() == ("", _CLOSED_STDIN)


def test_a_process_started_with_stdin_closed_exits_one_with_one_error_line():
    done = _cli_process(["size"], None)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.decode() == _CLOSED_STDIN


def test_a_process_started_with_stdout_closed_exits_one_with_one_error_line(tmp_path):
    # Python sets sys.stdout to None when fd 1 is closed, and print to None
    # prints nothing: the result was lost and the process exited 0.
    src = tmp_path / "term.lam"
    src.write_text("\\x. x", encoding="utf-8")
    done = _cli_process(["size", str(src)], b"", close_stdout=True)
    assert done.returncode == 1
    assert done.stderr.decode() == "error: stdout is closed: nowhere to print the result\n"


def test_a_reader_that_stops_reading_ends_the_process_with_no_error_line():
    # As `kripkelam gen --count 100000 --max-depth 8 | head -1` runs it: the
    # reader closes the pipe after one line, and the next write fails.
    command = [sys.executable, "-m", "kripkelam.cli", "gen", "--count", "100000", "--max-depth", "8"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env()) as process:
        first = process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read()
        code = process.wait(timeout=300)
    assert first.startswith(b"\\ x1. ")
    assert (code, err) == (141, b"")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--count", "abc"], "argument --count: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
        (["check-laws", "--max-depth", "1e3"], "argument --max-depth: invalid int value: '1e3'"),
        # check-laws checks every skeleton up to its bound and takes no seed.
        (["check-laws", "--samples", "10"], "unrecognized arguments: --samples 10"),
    ],
    ids=["gen-count-no-integer", "no-command", "check-laws-max-depth-no-integer", "check-laws-samples"],
)
def test_a_usage_error_exits_one(capsys, argv, message):
    # Exit 2 is a check suite that reported failures; a usage error is bad
    # input, as argparse reports it.
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: kripkelam")
    assert err.endswith(f"error: {message}\n")


def test_cli_double_dash_forces_stdin(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["size", "--"], "\\x.x")
    assert (code, out) == (0, "2\n")


# Every subcommand with its one-line help, in the order ``--help`` lists them.
SUBCOMMANDS = [
    ("parse", "parse named syntax and echo it back"),
    ("size", "binder plus occurrence count"),
    ("print", "canonical form with names x1, x2, ..."),
    ("to-db", "convert to de Bruijn text form"),
    ("from-db", "convert de Bruijn text form to named syntax"),
    ("roundtrip", "exhaustive de Bruijn round-trip self-check"),
    ("gen", "emit seeded pseudo-random terms"),
    ("check-laws", "run the homomorphism law suites"),
]


def test_help_lists_every_subcommand_in_order(monkeypatch, capsys):
    # argparse's layout varies across versions and terminal widths, so read
    # the choices line and each command's line instead of the whole text.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    names = [name for name, _ in SUBCOMMANDS]
    assert "{" + ",".join(names) + "}" in lines
    listed = [tuple(line.split(None, 1)) for line in lines if line.split(" ", 1)[0] in names]
    assert listed == SUBCOMMANDS


# ---------------------------------------------------------------- pipelines


def test_print_output_reparses_to_itself(monkeypatch, capsys):
    _, first, _ = run_cli(monkeypatch, capsys, ["print"], "\\a. λb.\tb")
    code, second, _ = run_cli(monkeypatch, capsys, ["print"], first)
    assert code == 0
    assert second == first


def test_to_db_from_db_to_db_is_stable(monkeypatch, capsys):
    _, db1, _ = run_cli(monkeypatch, capsys, ["to-db"], "\\x. \\y. \\z. y")
    _, named, _ = run_cli(monkeypatch, capsys, ["from-db"], db1)
    code, db2, _ = run_cli(monkeypatch, capsys, ["to-db"], named)
    assert code == 0
    assert db2 == db1 == "Lam (Lam (Lam (Var 1)))\n"


# ---------------------------------------------------------------- batch cmds


def test_cli_roundtrip_reports_counts(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["roundtrip", "--max-depth", "16"])
    assert code == 0
    assert out == "roundtrip: 136 terms to depth 16, 0 mismatches\n"


def test_cli_roundtrip_exits_two_on_a_mismatch(monkeypatch, capsys):
    # A conversion that moves every occurrence to the innermost binder
    # misses each term whose index is not 0: 6 of the 10 to depth 4.
    real = cli.to_debruijn
    monkeypatch.setattr(cli, "to_debruijn", lambda t: chain(real(t).binders, 0))
    code, out, _ = run_cli(monkeypatch, capsys, ["roundtrip", "--max-depth", "4"])
    assert code == 2
    assert out == "roundtrip: 10 terms to depth 4, 6 mismatches\n"


def test_cli_gen_is_deterministic(monkeypatch, capsys):
    argv = ["gen", "--seed", "9", "--max-depth", "6", "--count", "4"]
    code, out1, _ = run_cli(monkeypatch, capsys, argv)
    _, out2, _ = run_cli(monkeypatch, capsys, argv)
    assert code == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        assert parse_named(line)  # every emitted term reparses


def test_cli_gen_single_term_matches_library(monkeypatch, capsys):
    from kripkelam import gen_term

    code, out, _ = run_cli(monkeypatch, capsys, ["gen", "--seed", "42", "--max-depth", "8"])
    assert code == 0
    assert out == render_named(db_to_named(gen_term(42, 8))) + "\n"


def test_cli_check_laws_green(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["check-laws", "--max-depth", "3"],
    )
    assert code == 0
    for suite in ("id_hom", "compose_hom", "fold_hom"):
        assert suite in out
    assert "FAIL" not in out


def test_cli_check_laws_output_one_line_per_suite(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["check-laws", "--max-depth", "2"],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 9


def test_cli_rejects_nonpositive_depth_bounds(monkeypatch, capsys):
    # Each message names the flag typed; a negative count is an error too,
    # not an empty run.
    for argv, message in [
        (["roundtrip", "--max-depth", "0"], "--max-depth must be at least 1"),
        (["gen", "--max-depth", "-3"], "--max-depth must be at least 1"),
        (["gen", "--count", "0", "--max-depth", "0"], "--max-depth must be at least 1"),
        (["gen", "--count", "-1"], "--count must be nonnegative"),
    ]:
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-depth", "-1"], "--max-depth must be nonnegative"),
    ],
)
def test_cli_check_laws_rejects_negative_bounds(monkeypatch, capsys, argv, message):
    code, out, err = run_cli(monkeypatch, capsys, ["check-laws", *argv])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_cli_check_laws_failure_exits_two(monkeypatch, capsys):
    from kripkelam.laws import BodySkeleton, Report, Slot, Witness

    def stub(max_binders):
        assert max_binders == 32
        witness = Witness(BodySkeleton(0, Slot.FRESH), 1, 2)
        return [Report("id_hom[size]", checked=1, failures=[witness])]

    monkeypatch.setattr("kripkelam.laws.run_all_laws", stub)
    code, out, _ = run_cli(monkeypatch, capsys, ["check-laws"])
    assert code == 2
    assert "FAIL" in out
    assert "counterexample" in out
