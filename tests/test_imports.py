"""Every module-level import in the package and in the tests is used by
its module, every module-level function or class is read by some
package module, no package module imports another's underscore name, and
the package has no assert statement.

A name counts as used when the module reads it anywhere, or lists it in
__all__ (the package's re-exports). A definition counts as read when some
module names it, imports it or reads it as an attribute, so a helper left
behind by a refactor shows. A public definition must be read by a module
other than __init__.py, whose re-exports read nothing, or be named in
README.md, which documents the library's own entry points. Methods are
out of reach of these checks: an attribute name can be shared between
classes, so a read of one cannot be told from a read of another.
Certificates must also run under python -O, which strips assert
statements, so the package raises instead. The package's only
process-global caches (functools.cache or lru_cache) are the subset
tables and the command-line parser: a cache that outlives a command
makes warm answers in one process cheaper than a real command-line run.
A value type whose constructor only checks and stores its arguments is a
frozen dataclass; a hand-written __setattr__ is kept only by the types
that skip __init__ on hot paths (GaussianRational) or derive their stored
state from their input (LieAlgebraData). A name that starts with an
underscore is private to its module: a definition other modules need is
public, as linalg.row_axpy is. The oracle takes from the builder's
modules, cecomplex and weights, only the names listed in ORACLE_SHARE,
so it stays an independent check of them. No line of the package is
longer than 100 characters.
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


def cached_functions(source: str) -> list[str]:
    """Each function wrapped by functools.cache or lru_cache, in any form."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    names.append(node.name)
    return names


def test_the_check_sees_a_cached_function():
    source = (
        "import functools\nfrom functools import cache, cached_property, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a():\n    pass\n@cache\ndef b():\n    pass\n"
        "@functools.lru_cache\ndef c():\n    pass\nclass K:\n    @functools.cache\n"
        "    def d(self):\n        pass\n    @cached_property\n    def e(self):\n        pass\n"
        "def f():\n    pass\n"
    )
    assert cached_functions(source) == ["a", "b", "c", "d"]


def test_process_global_caches_are_exactly_the_subset_tables_and_the_parser():
    """A table that outlives one command makes every later answer in the
    same process cheaper than a fresh run, so each one is deliberate:
    cecomplex.degree_masks, the subset order that the builder and the
    oracle share; oracle.mask_position, its inverse, which only the oracle
    reads (the builder keys cochains by mask); and cli.build_parser."""
    cached = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in cached_functions(path.read_text())
    }
    assert cached == {
        ("cecomplex", "degree_masks"), ("oracle", "mask_position"), ("cli", "build_parser")
    }


def setattr_classes(source: str) -> list[str]:
    """Each class, at any depth, whose body defines __setattr__."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__setattr__" for f in node.body)
    ]


def test_the_check_sees_a_hand_written_setattr():
    source = (
        "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass A:\n    x: int\n"
        "class B:\n    __slots__ = ('x',)\n    def __setattr__(self, name, value):\n"
        "        raise AttributeError('B is immutable')\n"
        "def f():\n    class C:\n        def __setattr__(self, name, value):\n            pass\n"
        "    return C\nclass D:\n    def set(self):\n        object.__setattr__(self, 'x', 1)\n"
    )
    assert setattr_classes(source) == ["B", "C"]


def test_hand_written_setattr_is_exactly_the_two_kept_types():
    found = {name for path in PACKAGE.glob("*.py") for name in setattr_classes(path.read_text())}
    assert found == {"GaussianRational", "LieAlgebraData"}


def private_imports(source: str) -> list[str]:
    """Each underscore name the source imports from a package module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "solvcohom")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_the_check_sees_a_private_import():
    source = (
        "from __future__ import annotations\nfrom .linalg import ExactMatrix, _row_axpy\n"
        "from solvcohom.oracle import _signed\nfrom os import _exit\n"
        "def f():\n    from . import _lazy\n    from .cli import main as _main\n"
    )
    assert private_imports(source) == ["_row_axpy", "_signed", "_lazy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    assert private_imports(path.read_text()) == []


# All that the oracle may take from the builder's modules (README,
# "Verification"): the complex and elimination types, the subset order
# and the invariant complex's blocks; no differential code and no twist.
ORACLE_SHARE = {
    "cecomplex": {
        "CohomologyResult",
        "FiniteComplex",
        "Weight",
        "cohomology",
        "degree_masks",
    },
    "weights": {"InvariantComplex", "restrict_complex"},
}


def builder_imports(source: str) -> list[str]:
    """Each import from cecomplex or weights outside ORACLE_SHARE, as
    module.name, or as the module's name when the module itself is imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name.split(".")[-1] for alias in node.names]
            found += [module for module in modules if module in ORACLE_SHARE]
        elif isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "solvcohom"
        ):
            module = (node.module or "").split(".")[-1]
            names = [alias.name for alias in node.names]
            if module in ORACLE_SHARE:
                found += [f"{module}.{name}" for name in names if name not in ORACLE_SHARE[module]]
            else:
                found += [name for name in names if name in ORACLE_SHARE]
    return found


def test_the_check_sees_a_builder_import():
    source = (
        "from .cecomplex import cohomology, ce_kernel\nfrom .weights import restrict_complex\n"
        "from . import weights\nfrom solvcohom.weights import build_invariant_complex\n"
        "import solvcohom.cecomplex\nfrom .linalg import ExactMatrix\n"
    )
    assert builder_imports(source) == [
        "cecomplex.ce_kernel", "weights", "weights.build_invariant_complex", "cecomplex"
    ]


def test_the_oracle_shares_no_builder_code():
    assert builder_imports((PACKAGE / "oracle.py").read_text()) == []


def long_lines(source: str) -> list[int]:
    """The numbers of the lines longer than 100 characters."""
    return [n for n, line in enumerate(source.splitlines(), 1) if len(line) > 100]


def test_the_check_sees_a_long_line():
    assert long_lines("x = 1\ny = '" + "a" * 95 + "'\n") == [2]
    assert long_lines("y = '" + "a" * 94 + "'\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_line_longer_than_100_characters(path):
    assert long_lines(path.read_text()) == []
