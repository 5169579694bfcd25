"""The benchmark under `benchmarks/` reaches the package by name: `spans.TARGETS`
lists the functions its traced run wraps, and `workloads` imports what its
checks call. A name either file uses must stay in the package."""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str):
    """The benchmark module benchmarks/<name>.py, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_name_the_benchmark_wraps_is_a_function_of_its_module():
    _load("workloads")  # an ImportError if a name it imports is gone
    targets = [(mod, fn) for mod, fns in _load("spans").TARGETS for fn in fns]
    assert targets
    missing = [f"flapkin.{mod}.{fn}" for mod, fn in targets
               if not callable(getattr(importlib.import_module(f"flapkin.{mod}"), fn, None))]
    assert missing == []
