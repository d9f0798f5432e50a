from __future__ import annotations

from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def fixture_path():
    def lookup(name: str) -> Path:
        return DATA / name

    return lookup


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    """Run the command line in process, capturing exit code and streams."""
    from oodn.cli import main

    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def chain_text(depth: int, width: int = 20) -> str:
    """A take-all chain of ``depth`` classes, each declaring ``width``
    properties of its own and two methods whose names every level reuses."""
    classes = []
    for level in range(depth):
        props = " ".join(f"prop c{level}_{j}: int = {j};" for j in range(width))
        classes.append(f"class C{level} {{ {props} method start(); method stop(); }}")
    sources = " inherits ".join(f"C{level}" for level in reversed(range(depth - 1)))
    return "\n".join(classes) + f"\nC{depth - 1} inherits {sources};\n"


def parallel_text(count: int, width: int = 20, clash: bool = False) -> str:
    """A take-all parallel plan over ``count`` classes, each declaring
    ``width`` properties of its own and, with ``clash``, a ``common`` one
    whose value differs between neighbours."""
    classes = []
    for at in range(count):
        props = " ".join(f"prop s{at}_{j}: int = {j};" for j in range(width))
        props += f" prop common: int = {at % 2};" if clash else ""
        classes.append(f"class S{at} {{ {props} }}")
    sources = ", ".join(f"S{at}" for at in range(count))
    return "\n".join(classes) + f"\nH inherits {sources};\n"
