"""Write the pinned results that `tests/test_pinned_results.py` compares against.

    PYTHONPATH=<tree>/src python tests/data/make_pinned_results.py [costs|cli|triad|winners|equilibria ...]

Costs `population_costs` on seeded rows of three boxes, records the `gait`
and `aero` CSVs of the shipped armwing and sweeps a block of triad eight-bar
rows with Newton, all with the flapkin on the path; it also runs `synthesize`
on two design spaces for a few seeds and keeps the winners, and solves the
equilibria of the `_pinned_cases` of `tests/test_compliance.py`.
`pinned_costs.json` and the CSVs were written at commit 099b888, the last one
that placed dyad links by angle (arctan2, then cos and sin);
`pinned_triad.npz` at commit 7b6bf05, the last one that swept Newton rows one
by one; `pinned_winners.json` at the child of commit cfbe9a8, the first one
that draws each differential evolution generation in five block calls and
takes the reach as a complex modulus; `pinned_equilibria.npz` at commit
b0ae8af, the last one that compiled the Newton constraint system apart from
the dyad plan, with the ground's pose slot last. Four rows of the recovery_3x box in
`pinned_costs.json` turn a whole revolution; their costs were set to the
no-reversal sentinel 1e5 by hand when `gait.stroke_phases` began to continue
the plunge past the seam by its net whole turns. Run it again only to pin a
deliberate change of results, naming only the files that change.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from flapkin import cli
from flapkin.compliance import solve_equilibrium
from flapkin.designs import two_stage_armwing
from flapkin.kinematics import sweep_arrays
from flapkin.synthesis import OBJECTIVE_SAMPLES, population_costs

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from test_pinned_results import (  # noqa: E402
    ARMWING, BOXES, CLI_CASES, ROWS, TRIAD_HAND_ROWS, TRIAD_SEED, WINNER_BUDGET, WINNER_SEEDS, boxes,
    triad_space, triad_thetas, winner_record)
from test_compliance import _outcome, _pinned_cases  # noqa: E402


def write_costs() -> None:
    doc = {"note": "population_costs of seeded rows (seed, X) of each box of "
                   "tests/test_pinned_results.py, and the failed_at of their sweeps",
           "rows": ROWS, "boxes": {}}
    spaces = boxes()
    for name, seed in BOXES.items():
        space, spec = spaces[name]
        lo, hi = space.bounds()
        X = lo + np.random.default_rng(seed).random((ROWS, space.dim)) * (hi - lo)
        thetas = 2.0 * math.pi * np.arange(OBJECTIVE_SAMPLES) / OBJECTIVE_SAMPLES
        failed_at = sweep_arrays(space.template, thetas, markers=space.markers(X)).failed_at
        doc["boxes"][name] = {"seed": seed, "X": X.tolist(),
                              "costs": population_costs(space, spec, X).tolist(),
                              "failed_at": failed_at.tolist()}
    (HERE / "pinned_costs.json").write_text(json.dumps(doc, indent=1) + "\n")


def write_cli() -> None:
    for name, argv in CLI_CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([argv[0], str(ARMWING), *argv[1:]]) == 0
        (HERE / f"pinned_{name}.csv").write_text(out.getvalue())


def write_triad() -> None:
    space = triad_space()
    lo, hi = space.bounds()
    X = np.vstack([lo + np.random.default_rng(TRIAD_SEED).random((6, space.dim)) * (hi - lo), TRIAD_HAND_ROWS])
    pb = sweep_arrays(space.template, triad_thetas(), markers=space.markers(X))
    np.savez_compressed(HERE / "pinned_triad.npz", X=X, failed_at=pb.failed_at,
                        errors=np.array([e or "" for e in pb.errors]),
                        origins=pb.origins, rotations=pb.rotations)


def write_winners() -> None:
    doc = {"note": "synthesize winners (parameters and cost as hex floats) of each box of "
                   "tests/test_pinned_results.py at the budget below, pinned at the child of "
                   "commit cfbe9a8, which draws each DE generation in five block calls",
           "budget": WINNER_BUDGET,
           "winners": {box: [winner_record(box, seed) for seed in seeds] for box, seeds in WINNER_SEEDS.items()}}
    (HERE / "pinned_winners.json").write_text(json.dumps(doc, indent=1) + "\n")


def write_equilibria() -> None:
    cases = list(_pinned_cases(two_stage_armwing()))
    poses = np.full((len(cases), max(len(m.links) for m, _, _ in cases), 3), np.nan)
    errors, warned = [], []
    for i, (m, theta, load) in enumerate(cases):
        result, caught = _outcome(lambda: solve_equilibrium(m, theta, load))
        if isinstance(result, str):
            errors.append(result)
        else:
            errors.append("")
            xya = np.frombuffer(result).reshape(-1, 3)
            poses[i, :len(xya)] = xya
        warned.append(len(caught))
    np.savez_compressed(HERE / "pinned_equilibria.npz", poses=poses, errors=np.array(errors),
                        warnings=np.array(warned))


WRITERS = {"costs": write_costs, "cli": write_cli, "triad": write_triad, "winners": write_winners,
           "equilibria": write_equilibria}


def main(argv: list[str]) -> int:
    for name in argv or list(WRITERS):
        WRITERS[name]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
