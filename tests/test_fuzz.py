"""The command line's contract under fuzzing: whatever the file holds,
text or bytes, ``parse``, ``inherit``, ``diagnose`` and ``export --format
json`` exit with 0, 1, 2 or 3, raise nothing, and print the same stdout
when run again; every parse error points into the text; and the lexer
splits any text as the reference token definition does."""

from __future__ import annotations

import contextlib
import io
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn import dsl
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


def check_contract(text: str | bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.oodn"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
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


# Whole member statements in one class body, one of each form, then up to
# three tokens a member can hold replaced, inserted or deleted anywhere among
# them, so the soup reaches every token of a statement.
MEMBER_STATEMENTS = (
    "prop p : int = -1 ;", "prop A . q : real = 1/2 / 0.5 ;", "prop b : bool = true / 1/3 ;",
    'prop t : text = "a\\"b" ;', "prop f : fuzzy = { x : 0.5 , 1 : 1 , \"s\" : 0 } ;",
    "method m ( x : int , y : real ) -> bool / 0.5 ;", "method A . n ( ) ;",
)
MEMBER_TOKENS = (
    "prop", "method", "p", "A", "x", "int", "real", "bool", "fuzzy", "true",
    ":", "=", "/", ".", "(", ")", "->", ";", ",", "{", "}",
    "1", "-2", "0", "1/2", "3/0", "0.5", '"s"', "class",
)


@st.composite
def member_soup(draw) -> str:
    tokens = " ".join(draw(st.lists(st.sampled_from(MEMBER_STATEMENTS), max_size=5))).split()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        token, edit = draw(st.sampled_from(MEMBER_TOKENS)), draw(st.sampled_from("rid"))
        if edit == "i" or at == len(tokens):
            tokens.insert(at, token)
        elif edit == "r":
            tokens[at] = token
        else:
            del tokens[at]
    return "class A { " + " ".join(tokens) + " }"


@FUZZ
@given(text=member_soup())
def test_member_soup_keeps_the_cli_contract(text):
    check_contract(text)
    check_error_position(text)


@FUZZ
@given(data=st.binary(max_size=200))
def test_arbitrary_bytes_keep_the_cli_contract(data):
    check_contract(data)


# The reference lexer: the token definition as it stood while whitespace and
# comments were matches of their own, which ``findall`` gave as "".  The
# lexer now consumes them inside each token's match; on any text it must give
# the same tokens, or fail at the same character with the same message.
REFERENCE_TOKEN_RE = re.compile(
    r"""
    \s+
  | //[^\n]*
  | ( [A-Za-z_][A-Za-z0-9_]*    # identifier
    | [{}():;,=./]              # punctuation
    | ->
    | -?[0-9]+/[0-9]+(?![.0-9]) # ratio
    | -?[0-9]+\.[0-9]+          # decimal
    | -?[0-9]+                  # integer
    | "(?:[^"\\\n]|\\.)*"       # string
    | .                         # a bad character
    )
    """,
    re.VERBOSE,
)
# The lone characters that start a token; the last branch gives any other.
TOKEN_CHARACTERS = frozenset(string.ascii_letters + string.digits + "_{}():;,=./")


def reference_tokens(text: str) -> list[str]:
    """The reference lexer's tokens, ending in "" for end of input; raises
    the parse error for the first character that starts no token."""
    tokens = list(filter(None, REFERENCE_TOKEN_RE.findall(text)))
    starts = [m.start(1) for m in REFERENCE_TOKEN_RE.finditer(text) if m.lastindex]
    for token, offset in zip(tokens, starts):
        if len(token) == 1 and token not in TOKEN_CHARACTERS:
            line = text.count("\n", 0, offset) + 1
            column = offset - text.rfind("\n", 0, offset)
            raise ParseError(f"unexpected character {token!r}", line, column)
    return tokens + [""]


def check_lexer_agrees(text: str) -> None:
    try:
        expected = reference_tokens(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            dsl._tokenize(text)
        assert (str(info.value), info.value.line, info.value.column) == (
            str(exc), exc.line, exc.column
        )
    else:
        assert dsl._tokenize(text) == expected


# Characters where tokens, whitespace and comments meet: slashes, signs,
# digits, dots, quotes, escapes, line breaks of both kinds, a tab, a
# non-ASCII space and letter, and a bad character.
LEXER_EDGES = st.text("/-> 09.\"\\\t\r\nab_{;}@\u00e9\u2003", max_size=60)


@FUZZ
@given(text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
def test_lexer_agrees_with_the_reference_on_arbitrary_text(text):
    check_lexer_agrees(text)


@FUZZ
@given(text=token_soup | LEXER_EDGES)
def test_lexer_agrees_with_the_reference_on_token_soup(text):
    check_lexer_agrees(text)
