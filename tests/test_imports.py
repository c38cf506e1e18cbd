"""Every module-level import in the package is used by its module, every
module-level private function or class is read by some package module,
and the package has no assert statement.

A name counts as used when the module reads it anywhere, or lists it in
__all__ (the package's re-exports). A private definition (a name starting
with one underscore) counts as read when some module names it, imports it
or reads it as an attribute, so a helper left behind by a refactor shows.
Certificates must also run under python -O, which strips assert
statements, so the package raises instead.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "solvcohom"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from typing import Optional, Sequence\nimport json\nx: Sequence = ()\n"
    assert unused_imports(source) == ["Optional", "json"]
    assert unused_imports("from . import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level _name def or class no module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if not node.name.startswith("__"):
                    defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_the_check_sees_an_unread_private_definition():
    sources = {
        "a": "def _called():\n    pass\ndef _left():\n    pass\nclass _Gone:\n    pass\n"
        "def _via_attr():\n    pass\nx = _called()\n",
        "b": "from . import a\ny = a._via_attr\n",
    }
    assert unread_private_definitions(sources) == ["a._left", "a._Gone"]
    sources["b"] += "from .a import _left\n"
    assert unread_private_definitions(sources) == ["a._Gone"]


def test_no_unread_private_definition():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_definitions(sources) == []


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_check_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert assert_lines(source) == [3]
    assert assert_lines("def f(x):\n    if not x > 0:\n        raise ValueError\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []
