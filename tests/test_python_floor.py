"""Every Python file of the project parses as the oldest Python it supports,
no module of the package imports another's private name, only
`kinematics.damped_newton`, the one Newton loop, reads the iteration cap,
only `mechanism.placement`, the one walk of the joint graph, raises
DisconnectedError, only `fileio`, the one reader of the input files, raises
SchemaError, no `except` clause of `cli` catches the errors a reader bug
raises (KeyError, TypeError, AttributeError) or every error, only
`kinematics.assemble` takes a `guess` (a sweep starts on the dyad plan's own
roots), and no function takes a `tol` (Newton closes to the one constant
`kinematics.TOLERANCE`).

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


def _raisers(sources: dict[str, str], error: str) -> list[str]:
    """Where the sources raise the error, by its name or an attribute so named, called or not."""
    return _where(sources, lambda node: isinstance(node, ast.Raise) and node.exc is not None and _named(
        node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == error)


BUG_ERRORS = {"KeyError", "TypeError", "AttributeError", "Exception", "BaseException"}


def _bug_catchers(sources: dict[str, str]) -> list[str]:
    """Where the sources have a bare `except:` or one that names a BUG_ERRORS class, alone or in a tuple."""
    return _where(sources, lambda node: isinstance(node, ast.ExceptHandler) and (node.type is None or any(
        _named(t) in BUG_ERRORS for t in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]))))


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
    assert set(_raisers(_package_sources(), "DisconnectedError")) == {"mechanism.placement"}


def test_the_disconnected_check_fails_on_a_second_raiser():
    for second, where in (("def _reach(m):\n    raise DisconnectedError('links not reachable')\n",
                           ["kinematics._reach"]),
                          ("class P:\n    def walk(self):\n        raise errors.DisconnectedError\n", ["kinematics.P.walk"])):
        found = _raisers({**_package_sources(), "kinematics": second}, "DisconnectedError")
        assert set(found) != {"mechanism.placement"} and [f for f in found if f.startswith("kinematics")] == where
    assert _raisers({"mechanism": "try:\n    pass\nexcept DisconnectedError:\n    raise\n"}, "DisconnectedError") == []


def _modules(where: list[str]) -> set[str]:
    return {w.split(".")[0] for w in where}


def test_only_fileio_raises_schema_errors():
    assert _modules(_raisers(_package_sources(), "SchemaError")) == {"fileio"}


def test_the_schema_error_check_fails_on_a_second_raiser():
    for second, where in (("def _load_doc(path, build):\n    raise SchemaError(f'{path}: bad')\n", ["cli._load_doc"]),
                          ("class R:\n    def read(self):\n        raise errors.SchemaError\n", ["cli.R.read"])):
        found = _raisers({**_package_sources(), "cli": second}, "SchemaError")
        assert _modules(found) != {"fileio"} and [f for f in found if f.startswith("cli")] == where


def test_the_cli_catches_no_reader_bug():
    assert _bug_catchers({"cli": _package_sources()["cli"]}) == []


def test_the_reader_bug_check_fails_on_a_planted_catch():
    body = "def _load_doc(path, build):\n    try:\n        return build(path)\n    except {}:\n        raise\n"
    for caught in ("KeyError", "(SchemaError, TypeError, ValueError) as e", "builtins.AttributeError", "Exception"):
        assert _bug_catchers({"cli": body.format(caught)}) == ["cli._load_doc"]
    assert _bug_catchers({"cli": body.replace(" {}", "")}) == ["cli._load_doc"]
    assert _bug_catchers({"cli": body.format("(FlapkinError, ValueError, OSError)")}) == []


GUESS_TAKERS = ["kinematics.assemble"]
SWEEP_SIGNATURE = "def sweep_arrays(m: Mechanism, thetas: np.ndarray, *,"


def _takers(sources: dict[str, str], name: str) -> list[str]:
    """Where the sources declare a parameter so named, positional or keyword-only, by def or lambda."""
    return _where(sources, lambda node: isinstance(node, ast.arg) and node.arg == name)


def _planted_sweep(parameter: str) -> dict[str, str]:
    """The kinematics module's source, as a sources dict, with a parameter added to `sweep_arrays`."""
    kinematics = _package_sources()["kinematics"]
    assert kinematics.count(SWEEP_SIGNATURE) == 1
    return {"kinematics": kinematics.replace(SWEEP_SIGNATURE, f"{SWEEP_SIGNATURE} {parameter},")}


def test_only_assemble_and_its_newton_starts_take_a_guess():
    assert sorted(_takers(_package_sources(), "guess")) == GUESS_TAKERS


def test_the_guess_check_fails_on_a_guessed_sweep():
    planted = _planted_sweep("guess: Configuration | None = None")
    assert sorted(_takers(planted, "guess")) == sorted([*GUESS_TAKERS, "kinematics.sweep_arrays"])
    assert _takers({"gait": "class G:\n    def sweep(self, *, guess=None):\n        pass\n"}, "guess") == ["gait.G.sweep"]


def test_no_function_takes_a_tolerance():
    assert _takers(_package_sources(), "tol") == []


def test_the_tolerance_check_fails_on_a_planted_tol():
    assert _takers(_planted_sweep("tol: float = TOLERANCE"), "tol") == ["kinematics.sweep_arrays"]
    assert _takers({"gait": "retracting = lambda gt, tol=1e-12: gt\n"}, "tol") == ["gait"]
