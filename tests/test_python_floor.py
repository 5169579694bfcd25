"""Every Python file of the project parses as the oldest Python it supports.

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
