"""The library's modules share only public names with one another."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "oodn"


def sibling_imports(tree: ast.Module) -> list[ast.alias]:
    """Every name a module imports from another module of the package."""
    return [
        alias
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "oodn")
        for alias in node.names
    ]


MODULES = pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)


@MODULES
def test_no_private_name_is_imported_from_a_sibling(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [alias.name for alias in sibling_imports(tree) if alias.name.startswith("_")]
    assert private == []


@MODULES
def test_no_private_attribute_of_a_sibling_is_read(path):
    """``Name._attr``, where ``Name`` comes from another module, reads that
    module's private helper.  Sunder and dunder names, such as an enum
    member's ``_value_``, belong to Python, not to a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for alias in sibling_imports(tree)}
    reads = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
        and node.attr.startswith("_")
        and not node.attr.endswith("_")
    ]
    assert reads == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_every_private_helper_has_a_use():
    """Each private function, class or constant, each private method and
    each method of a private class is read somewhere in the package: a
    helper that a merge leaves without a caller goes with the merge."""
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                continue
            defined += [(f"{path.name}:{name}", name) for name in names if _private(name)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.name}:{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.endswith("__")
                    and (_private(item.name) or _private(node.name))
                ]
    assert [where for where, name in defined if name not in used] == []


def test_the_package_exports_exactly_what_it_imports():
    """``oodn.__all__`` is derived from the package's ``from .x import``
    statements, so the two can never disagree; no submodule and no private
    name is exported."""
    import oodn

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert oodn.__all__ == sorted(imported)
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    assert [name for name in oodn.__all__ if name in submodules or name.startswith("_")] == []



def _annotation_names(tree: ast.Module) -> set[str]:
    """Names a module's annotations read, those written as strings included."""
    pending = [
        annotation
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if annotation is not None
    ]
    names: set[str] = set()
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                pending.append(ast.parse(node.value, mode="eval"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return names


@pytest.mark.parametrize(
    "path",
    sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"),
    ids=lambda path: path.name,
)
def test_every_imported_name_is_used(path):
    """Every name a module imports is read in it; a name imported for
    typing alone (under ``TYPE_CHECKING``) counts as read when a string
    annotation names it.  ``__init__.py`` is exempt: its imports are the
    package's export list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = _annotation_names(tree) | {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    assert [name for name in imported if name not in read] == []
