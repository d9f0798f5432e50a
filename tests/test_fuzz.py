"""The command line's contract under fuzzing: whatever the file holds,
``parse``, ``inherit`` and ``diagnose`` exit with 0, 1, 2 or 3, raise
nothing, and print the same stdout when run again."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oodn.cli import main

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

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
        for command in ("parse", "inherit", "diagnose"):
            code, out, _ = run([command, str(path)])
            assert code in (0, 1, 2, 3)
            assert run([command, str(path)])[1] == out


@FUZZ
@given(text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
def test_arbitrary_text_keeps_the_cli_contract(text):
    check_contract(text)


@FUZZ
@given(text=token_soup)
def test_token_soup_keeps_the_cli_contract(text):
    check_contract(text)
