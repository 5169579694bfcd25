"""Every Python file of the project parses as the oldest Python it supports,
no module of the package imports another's private name, only
`kinematics.damped_newton`, the one Newton loop, reads the iteration cap, and
only `mechanism.placement`, the one walk of the joint graph, raises
DisconnectedError.

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


def _where(sources: dict[str, str], hit) -> list[str]:
    """Where in the sources (module name -> text) a node is a hit, each as "module.def.def"."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def _named(node) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _iteration_cap_readers(sources: dict[str, str]) -> list[str]:
    """Where the sources read MAX_ITERATIONS: a load of the name, or of an attribute so named, or an import of it."""
    return _where(sources, lambda node: isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                  and _named(node) == "MAX_ITERATIONS" or isinstance(node, ast.alias) and node.name == "MAX_ITERATIONS")


def _disconnected_raisers(sources: dict[str, str]) -> list[str]:
    """Where the sources raise DisconnectedError, by its name or an attribute so named, called or not."""
    return _where(sources, lambda node: isinstance(node, ast.Raise) and node.exc is not None and _named(
        node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "DisconnectedError")


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))}


def test_only_damped_newton_reads_the_iteration_cap():
    assert _iteration_cap_readers(_package_sources()) == ["kinematics.damped_newton"]


def test_the_iteration_cap_check_fails_on_a_second_reader():
    loop = "def _solve():\n    for _ in range(MAX_ITERATIONS):\n        pass\n"
    for second, where in ((f"from .kinematics import MAX_ITERATIONS\n{loop}", ["compliance", "compliance._solve"]),
                          ("class S:\n    def step(self):\n        return kinematics.MAX_ITERATIONS\n",
                           ["compliance.S.step"])):
        found = _iteration_cap_readers({**_package_sources(), "compliance": second})
        assert found != ["kinematics.damped_newton"] and [f for f in found if f.startswith("compliance")] == where
    assert _iteration_cap_readers({"kinematics": "MAX_ITERATIONS = 50\n"}) == []


def test_only_placement_raises_disconnected():
    assert set(_disconnected_raisers(_package_sources())) == {"mechanism.placement"}


def test_the_disconnected_check_fails_on_a_second_raiser():
    for second, where in (("def _reach(m):\n    raise DisconnectedError('links not reachable')\n",
                           ["kinematics._reach"]),
                          ("class P:\n    def walk(self):\n        raise errors.DisconnectedError\n", ["kinematics.P.walk"])):
        found = _disconnected_raisers({**_package_sources(), "kinematics": second})
        assert set(found) != {"mechanism.placement"} and [f for f in found if f.startswith("kinematics")] == where
    assert _disconnected_raisers({"mechanism": "try:\n    pass\nexcept DisconnectedError:\n    raise\n"}) == []
