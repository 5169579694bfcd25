"""Results pinned at the commit before link rotations replaced link angles.

`tests/data/make_pinned_results.py` recorded `population_costs` on seeded
rows of three boxes (the four-bar recovery box, the same box three times as
wide, where many rows fail to assemble, and the shipped armwing design
space) and the `gait` and `aero` CSVs of the shipped armwing. Placing links
by rotation instead of by angle may move these results in their last bits
only.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import recovery_space, run_cli
from flapkin.cli import _load_space, _load_spec
from flapkin.kinematics import sweep_arrays
from flapkin.synthesis import (
    ASSEMBLY_FAILURE_COST,
    METRIC_FAILURE_COST,
    OBJECTIVE_SAMPLES,
    DesignSpace,
    GaitSpec,
    Parameter,
    population_costs,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "flapkin" / "data"
ARMWING = DATA / "armwing.json"
PINNED = Path(__file__).resolve().parent / "data"
ROWS = 64
BOXES = {"recovery": 0, "recovery_3x": 1, "armwing": 2}  # box -> seed of its rows
CLI_CASES = {"gait": ["gait", "--period", "0.1", "--samples", "256"],
             "aero": ["aero", "--period", "0.1", "--freestream", "3"]}
COST_RTOL = 1e-12
CSV_ATOL = 1e-12  # SI units; a relative bound means nothing for cells near zero


def boxes() -> dict[str, tuple[DesignSpace, GaitSpec]]:
    space, spec, _ = recovery_space()
    lo, hi = space.bounds()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    wide = DesignSpace(space.template, tuple(Parameter(p.name, m - 3.0 * h, m + 3.0 * h)
                                             for p, m, h in zip(space.parameters, mid, half)),
                       space.transmission_joints)
    armwing = _load_space(str(DATA / "armwing_space.json")), _load_spec(str(DATA / "armwing_spec.json"))
    return {"recovery": (space, spec), "recovery_3x": (wide, spec), "armwing": armwing}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads((PINNED / "pinned_costs.json").read_text())["boxes"]


@pytest.mark.parametrize("box", list(BOXES))
def test_population_costs_match_pinned(pinned, box):
    space, spec = boxes()[box]
    X, want = np.array(pinned[box]["X"]), np.array(pinned[box]["costs"])
    thetas = 2.0 * math.pi * np.arange(OBJECTIVE_SAMPLES) / OBJECTIVE_SAMPLES
    assert sweep_arrays(space.template, thetas, markers=space.markers(X)).failed_at.tolist() \
        == pinned[box]["failed_at"]
    got = population_costs(space, spec, X)
    # a failure's cost is a sentinel (1e6 + 1 - k/N for an assembly failure at
    # sample k, 1e5 for a degenerate gait): the same class, bit for bit
    failed = want >= METRIC_FAILURE_COST
    assert np.array_equal(got[failed], want[failed])
    np.testing.assert_allclose(got[~failed], want[~failed], rtol=COST_RTOL, atol=0.0)
    if box == "recovery_3x":
        assert failed.any() and (want >= ASSEMBLY_FAILURE_COST).sum() < len(want)


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_csv_matches_pinned(case):
    argv = CLI_CASES[case]
    code, out, _ = run_cli([argv[0], str(ARMWING), *argv[1:]])
    assert code == 0
    got, want = out.splitlines(), (PINNED / f"pinned_{case}.csv").read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    cells = [np.array([[float(v) for v in line.split(",")] for line in lines[1:]]) for lines in (got, want)]
    assert np.abs(cells[0] - cells[1]).max() <= CSV_ATOL
