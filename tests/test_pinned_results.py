"""Results pinned at earlier commits, which later changes may move in their
last bits only.

`tests/data/make_pinned_results.py` recorded `population_costs` on seeded
rows of three boxes (the four-bar recovery box, the same box three times as
wide, where many rows fail to assemble, and the shipped armwing design
space) and the `gait` and `aero` CSVs of the shipped armwing, at the commit
before link rotations replaced link angles. It also recorded Newton sweeps of
a block of triad eight-bar rows (`triad_space`), some of which stop partway
or fail at the first sample, at the last commit that swept Newton rows one by
one. And it recorded the winners of `synthesize` runs on the recovery box and
the shipped armwing design space (`WINNER_SEEDS`), at the commit that began to
draw each differential evolution generation in five block calls; those must
hold bit for bit. Last, it recorded the equilibria (poses or error, and the
number of warnings) of the compliance tests' `_pinned_cases`, at the last
commit that compiled the Newton constraint system apart from the dyad plan.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import recovery_space, run_cli, triad_eight_bar
from test_compliance import _outcome, _pinned_cases
from flapkin.compliance import solve_equilibrium
from flapkin.designs import two_stage_armwing
from flapkin.fileio import read_space, read_spec
from flapkin.kinematics import sweep_arrays
from flapkin.synthesis import (
    ASSEMBLY_FAILURE_COST,
    METRIC_FAILURE_COST,
    OBJECTIVE_SAMPLES,
    DesignSpace,
    GaitSpec,
    Parameter,
    feasibility_report,
    population_costs,
    synthesize,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "flapkin" / "data"
ARMWING = DATA / "armwing.json"
PINNED = Path(__file__).resolve().parent / "data"
ROWS = 64
BOXES = {"recovery": 0, "recovery_3x": 1, "armwing": 2}  # box -> seed of its rows
CLI_CASES = {"gait": ["gait", "--period", "0.1", "--samples", "256"],
             "aero": ["aero", "--period", "0.1", "--freestream", "3"]}
TRIAD_SEED, TRIAD_SAMPLES = 11, 128
# hand rows after the seeded ones: the nominal triad, which stops at sample
# 70; l3 with both pins on its origin, whose Jacobian is exactly singular; a
# crank too long to turn; an l3 too long to close at all
TRIAD_HAND_ROWS = [[1.0, 1.0, 2.5, 3.5, 5.5], [1.0, 0.0, 0.0, 0.0, 5.5],
                   [3.0, 3.0, 2.5, 3.5, 5.5], [1.0, 1.0, 20.0, 20.0, 5.5]]
WINNER_BUDGET = 1500
WINNER_SEEDS = {"recovery": range(10), "armwing": range(3)}  # box -> seeds of `synthesize` runs
COST_RTOL = 1e-12
CSV_ATOL = 1e-12  # SI units; a relative bound means nothing for cells near zero

# every input here is fixed, so a floating-point warning (a division by zero
# on the rows of `recovery_3x` whose circles miss, say) is a change of behaviour
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def boxes() -> dict[str, tuple[DesignSpace, GaitSpec]]:
    space, spec, _ = recovery_space()
    lo, hi = space.bounds()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    wide = DesignSpace(space.template, tuple(Parameter(p.name, m - 3.0 * h, m + 3.0 * h)
                                             for p, m, h in zip(space.parameters, mid, half)),
                       space.transmission_joints)
    armwing = read_space(str(DATA / "armwing_space.json")), read_spec(str(DATA / "armwing_spec.json"))
    return {"recovery": (space, spec), "recovery_3x": (wide, spec), "armwing": armwing}


def triad_space() -> DesignSpace:
    """The triad eight-bar with its crank tip, both pins of l3 and one pin of
    d1 as parameters."""
    return DesignSpace(triad_eight_bar(), tuple(Parameter(f"link.{path}", lo, hi) for path, lo, hi in (
        ("crank.marker.tip.x", 0.5, 1.1), ("l3.marker.a.x", 0.5, 1.1), ("l3.marker.b.x", 2.3, 2.7),
        ("l3.marker.b.y", 3.3, 3.7), ("d1.marker.b.y", 5.3, 5.7))))


def triad_thetas() -> np.ndarray:
    return 2.0 * math.pi * np.arange(TRIAD_SAMPLES) / TRIAD_SAMPLES


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


@pytest.mark.parametrize("box", list(BOXES))
def test_feasibility_report_reads_the_terms_the_cost_weighs(pinned, box):
    # on every seeded row the report names full_revolution exactly when the
    # cost is an assembly sentinel, the reach rule ("gait") or stroke_reversal
    # exactly when it is the degenerate-gait sentinel, and, where the cost is
    # the metric (a sentinel hides the penalties), area_ratio or
    # min_transmission_angle exactly when that penalty is positive: when
    # lifting its bound lowers the cost
    space, spec = boxes()[box]
    X = np.array(pinned[box]["X"])
    costs = population_costs(space, spec, X)
    lifted = {"area_ratio": replace(spec, area_ratio_max=1e300),
              "min_transmission_angle": replace(spec, min_transmission_angle=-1.0)}
    penalized = {name: costs > population_costs(space, s, X) for name, s in lifted.items()}
    assert all(p.any() for p in penalized.values())
    for x, cost, *penalties in zip(X, costs, *penalized.values()):
        named = {v.constraint for v in feasibility_report(space.apply(x), spec, space.transmission_joints)}
        assert ("full_revolution" in named) == (cost >= ASSEMBLY_FAILURE_COST)
        assert bool(named & {"gait", "stroke_reversal"}) == (cost == METRIC_FAILURE_COST)
        if cost < METRIC_FAILURE_COST:
            assert [name in named for name in penalized] == penalties


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_csv_matches_pinned(case):
    argv = CLI_CASES[case]
    code, out, _ = run_cli([argv[0], str(ARMWING), *argv[1:]])
    assert code == 0
    got, want = out.splitlines(), (PINNED / f"pinned_{case}.csv").read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    cells = [np.array([[float(v) for v in line.split(",")] for line in lines[1:]]) for lines in (got, want)]
    assert np.abs(cells[0] - cells[1]).max() <= CSV_ATOL


def test_triad_newton_sweeps_match_pinned():
    want = np.load(PINNED / "pinned_triad.npz")
    space = triad_space()
    pb = sweep_arrays(space.template, triad_thetas(), markers=space.markers(want["X"]))
    assert pb.solver == "newton"
    assert pb.failed_at.tolist() == want["failed_at"].tolist()
    assert [e or "" for e in pb.errors] == want["errors"].tolist()
    # rows that close, stop partway and fail at the first sample, with both codes
    assert {"NO_CONVERGENCE", "SINGULAR_JACOBIAN", ""} <= set(want["errors"].tolist())
    assert {0, TRIAD_SAMPLES} < set(want["failed_at"].tolist())
    for got, pinned_values in ((pb.origins, want["origins"]), (pb.rotations, want["rotations"])):
        assert np.abs(got - pinned_values).max() <= 1e-12


def winner_record(box: str, seed: int) -> dict:
    """The winner of one pinned `synthesize` run, its floats as hex strings."""
    space, spec = boxes()[box]
    result = synthesize(space, spec, WINNER_BUDGET, seed)
    return {"seed": seed, "parameters": [float(v).hex() for v in result.parameters],
            "cost": result.cost.hex(), "evaluations": result.evaluations}


@pytest.mark.parametrize("box", list(WINNER_SEEDS))
def test_synthesis_winners_match_pinned(box):
    want = json.loads((PINNED / "pinned_winners.json").read_text())["winners"][box]
    assert [w["seed"] for w in want] == list(WINNER_SEEDS[box])
    assert [winner_record(box, w["seed"]) for w in want] == want


def test_equilibria_match_pinned():
    want = np.load(PINNED / "pinned_equilibria.npz")
    cases = list(_pinned_cases(two_stage_armwing()))
    assert len(cases) == len(want["errors"]) == 71
    for (m, theta, load), poses, error, warned in zip(cases, want["poses"], want["errors"], want["warnings"]):
        result, caught = _outcome(lambda: solve_equilibrium(m, theta, load))
        assert len(caught) == warned, (theta, load)
        if error:
            assert result == error, (theta, load)
            continue
        assert not isinstance(result, str), (theta, result)
        got = np.frombuffer(result).reshape(-1, 3)
        assert np.isnan(poses[len(got):]).all()
        assert np.abs(got - poses[:len(got)]).max() <= 1e-12, (theta, load)
    # the large-deflection warnings are among them
    assert want["warnings"].any()
