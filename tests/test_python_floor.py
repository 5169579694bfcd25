"""Every Python file of the project parses as the oldest Python it supports,
and no module of the package imports another's private name.

`ast.parse` with `feature_version` set to pyproject's `requires-python`
floor rejects the grammar that later versions added (`except*`, type
parameter lists, `type` statements), so a newer interpreter runs this check.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flapkin"
SOURCES = sorted(p for d in ("src", "tests", "benchmarks", "scripts") for p in (ROOT / d).rglob("*.py"))
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text()).groups()))


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_the_floor_rejects_newer_grammar():
    assert FLOOR == (3, 10)
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "type Pair = tuple[int, int]\n"):
        with pytest.raises(SyntaxError):
            ast.parse(source, feature_version=FLOOR)


def _private_imports(source: str) -> list[str]:
    """The `from <package module> import _name` imports of a source, as "module._name"; dunders are public."""
    return [f"{'.' * node.level}{node.module or ''}.{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "flapkin")
            for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_no_package_module_imports_a_private_name_of_another():
    found = {str(p.relative_to(ROOT)): names for p in sorted(PACKAGE.rglob("*.py"))
             if (names := _private_imports(p.read_text(encoding="utf-8")))}
    assert found == {}


def test_the_private_import_check_sees_relative_and_absolute_imports():
    assert _private_imports("from .kinematics import TOLERANCE, _first_roots\n") == [".kinematics._first_roots"]
    assert _private_imports("from flapkin.kinematics import _plan\n") == ["flapkin.kinematics._plan"]
    assert _private_imports("from . import __version__\nfrom numpy import _core\n") == []
