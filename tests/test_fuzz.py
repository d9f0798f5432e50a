"""The command line's contract under fuzzing: whatever the file holds,
``parse``, ``inherit``, ``diagnose`` and ``export --format json`` exit with
0, 1, 2 or 3, raise nothing, and print the same stdout when run again; and
every parse error points into the text."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oodn.cli import main
from oodn.dsl import ParseError, parse_network

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)
COMMANDS = (("parse",), ("inherit",), ("diagnose",), ("export", "--format", "json"))

KEYWORDS = (
    "class", "hetclass", "object", "relation", "prop", "method", "inherits",
    "only", "core", "projection", "participant", "depends", "int", "real",
    "text", "bool", "fuzzy", "true", "false", "generalization", "instance_of",
    "aggregation", "association",
)
IDENTIFIERS = ("A", "B", "C", "H", "o", "p", "q", "x", "A.p")
NUMERALS = ("0", "1", "2", "-1", "007", "1/2", "3/4", "0/0", "1/0", "3/2", "0.5", "1.25")
STRINGS = ('"x"', '""', '"a\\"b"', '"A"', '"B&H"', '"open')
PUNCTUATION = ("{", "}", "(", ")", ":", ";", ",", "=", ".", "/", "->", "//", "\n", "@")

token_soup = st.lists(
    st.sampled_from(KEYWORDS + IDENTIFIERS + NUMERALS + STRINGS + PUNCTUATION),
    max_size=60,
).map(" ".join)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.oodn"
        path.write_text(text, encoding="utf-8")
        for command, *flags in COMMANDS:
            argv = [command, str(path), *flags]
            code, out, _ = run(argv)
            assert code in (0, 1, 2, 3)
            assert run(argv)[1] == out


def check_error_position(text: str) -> None:
    """A parse error's line and column lie inside ``text``, at a character
    that is not whitespace, or just past the last one at the end of input."""
    try:
        parse_network(text)
    except ParseError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= len(lines)
        line = lines[exc.line - 1]
        if exc.column == len(line) + 1:
            assert exc.line == len(lines)
        else:
            assert 1 <= exc.column <= len(line)
            assert not line[exc.column - 1].isspace()


@FUZZ
@given(text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
def test_arbitrary_text_keeps_the_cli_contract(text):
    check_contract(text)
    check_error_position(text)


@FUZZ
@given(text=token_soup)
def test_token_soup_keeps_the_cli_contract(text):
    check_contract(text)
    check_error_position(text)
