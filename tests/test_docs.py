"""The documented examples run as written: every fenced ``python`` block of
``README.md``, and the quick tour in the ``oodn`` package docstring."""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

import oodn

README = Path(__file__).resolve().parents[1] / "README.md"
FENCED_PYTHON = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def examples() -> dict[str, str]:
    blocks = FENCED_PYTHON.findall(README.read_text(encoding="utf-8"))
    found = {f"README.md python block {i}": code for i, code in enumerate(blocks, 1)}
    # The tour is the indented block that ends the docstring.
    found["oodn quick tour"] = textwrap.dedent(oodn.__doc__.split("Quick tour::", 1)[1])
    return found


EXAMPLES = examples()


def test_the_readme_has_python_examples():
    assert sum(name.startswith("README.md") for name in EXAMPLES) >= 2


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs(name, capsys):
    exec(compile(EXAMPLES[name], name, "exec"), {"__name__": "__example__"})
    capsys.readouterr()  # what an example prints is for its reader
