"""Every module-level import in the package and in the tests is used by
its module, every module-level function or class is read by some
package module, and the package has no assert statement.

A name counts as used when the module reads it anywhere, or lists it in
__all__ (the package's re-exports). A definition counts as read when some
module names it, imports it or reads it as an attribute, so a helper left
behind by a refactor shows. A public definition must be read by a module
other than __init__.py, whose re-exports read nothing, or be named in
README.md, which documents the library's own entry points. Methods are
out of reach of these checks: attribute names are shared between classes
(`conjugate` is both a scalar's and a period value's), so a read of one
cannot be told from a read of another.
Certificates must also run under python -O, which strips assert
statements, so the package raises instead.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "solvcohom"


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


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level def or class, dunders left out."""
    return [
        (module, node.name)
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
    ]


def read_names(sources: dict[str, str]) -> set[str]:
    """Every name the sources read, import, or read as an attribute."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level _name def or class no module reads."""
    read = read_names(sources)
    return [
        f"{module}.{name}"
        for module, name in definitions(sources)
        if name.startswith("_") and name not in read
    ]


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


def unread_public_definitions(sources: dict[str, str], readme: str) -> list[str]:
    """module.name of each public def or class that only __init__ reads.

    A name README.md mentions counts as read: it is the library's surface.
    """
    read = read_names({m: s for m, s in sources.items() if m != "__init__"})
    return [
        f"{module}.{name}"
        for module, name in definitions(sources)
        if not name.startswith("_")
        and name not in read
        and not re.search(rf"\b{name}\b", readme)
    ]


def test_the_check_sees_an_unread_public_definition():
    sources = {
        "__init__": "from .a import exported, Documented\n",
        "a": "def exported():\n    pass\nclass Documented:\n    pass\ndef local():\n    pass\n"
        "def imported():\n    pass\ndef _private():\n    pass\nx = local()\n",
        "b": "from .a import imported\n",
    }
    assert unread_public_definitions(sources, "") == ["a.exported", "a.Documented"]
    assert unread_public_definitions(sources, "Use `Documented` or exported().") == []
    assert unread_public_definitions(sources, "Undocumented, exporter") == [
        "a.exported", "a.Documented"
    ]


def test_every_public_definition_is_read_or_documented():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    assert unread_public_definitions(sources, readme) == []


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_check_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert assert_lines(source) == [3]
    assert assert_lines("def f(x):\n    if not x > 0:\n        raise ValueError\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []
