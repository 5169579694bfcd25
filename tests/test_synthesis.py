"""Dimensional synthesis: objective, DE search, feasibility reporting."""
from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import minimize

import flapkin
from flapkin import cli, synthesis
from flapkin.cli import _load_space, _load_spec
from flapkin.designs import ARMWING_TRANSMISSION_JOINTS, two_stage_armwing
from flapkin.errors import (
    BudgetTooSmallError,
    EmptyDesignSpaceError,
    FlapkinError,
    GaitError,
    MechanismValidationError,
    SynthesisError,
)
from flapkin.fileio import parse_mechanism, serialize_mechanism
from flapkin.geometry import Point2
from flapkin.gait import gait_from_pose_arrays, gait_metrics, generate_gait, retraction_time
from flapkin.kinematics import marker_table, sweep_arrays, transmission_angle_series
from flapkin.mechanism import CompliantHinge, FourBar, Link, as_fourbar, fourbar_mechanism
from flapkin.synthesis import (
    METRIC_FAILURE_COST,
    OBJECTIVE_SAMPLES,
    PENALTY,
    ConstraintViolation,
    DesignSpace,
    GaitSpec,
    Parameter,
    _nelder_mead,
    _trial_block,
    _trial_points,
    feasibility_report,
    objective,
    population_costs,
    synthesize,
)

from conftest import parallelogram_wing, recovery_space, reference_metrics, run_cli, triad_eight_bar
from test_pinned_results import triad_space

DATA = Path(flapkin.__file__).parent / "data"


class TestObjective:
    def test_exact_candidate_costs_zero(self):
        space, spec, x_hidden = recovery_space()
        assert objective(x_hidden, space, spec) <= 1e-12

    def test_assembly_failure_cost(self):
        space, spec, _ = recovery_space()
        wide = DesignSpace(space.template,
                           (Parameter("link.crank.marker.tip.x", 0.1, 30.0),),
                           space.transmission_joints)
        # crank longer than the other three bars combined: never closes
        assert objective(np.array([25.0]), wide, spec) == 1.0e6 + 1.0

    def test_coding_errors_surface(self, monkeypatch):
        space, spec, x_hidden = recovery_space()

        def broken(*args, **kwargs):
            raise TypeError("bug in the solver")

        monkeypatch.setattr("flapkin.synthesis.sweep_arrays", broken)
        with pytest.raises(TypeError):
            objective(x_hidden, space, spec)
        monkeypatch.setattr("flapkin.synthesis.mobility", broken)
        with pytest.raises(TypeError):
            feasibility_report(space.template, spec)

    def test_no_untyped_except_in_library_or_scripts(self):
        # a failure the search should survive has a type; anything else is a bug to surface
        root = Path(__file__).resolve().parents[1]
        found = [f"{path.relative_to(root)}:{i}" for d in ("src", "scripts")
                 for path in sorted((root / d).rglob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"except\s*(:|\(?\s*(Base)?Exception\b)", line)]
        assert found == []

    def test_quadratic_metric_error(self):
        space, spec, x_hidden = recovery_space()
        shifted = dataclasses.replace(spec,
                                      plunge_amplitude=spec.plunge_amplitude + 0.1,
                                      weights={"plunge_amplitude": 1.0})
        assert objective(x_hidden, space, shifted) == pytest.approx(0.01, rel=1e-9)

    def test_weight_scaling_is_homogeneous(self):
        space, spec, x_hidden = recovery_space()
        doubled = dataclasses.replace(
            spec, weights={k: 2.0 * v for k, v in spec.weights.items()})
        rng = np.random.default_rng(5)
        lo, hi = space.bounds()
        for _ in range(5):
            x = lo + rng.random(space.dim) * (hi - lo)
            c1 = objective(x, space, spec)
            c2 = objective(x, space, doubled)
            if c1 >= 1e5:          # failure sentinels are not weighted
                assert c2 == c1
            else:
                assert c2 == 2.0 * c1


def oracle_cost(space: DesignSpace, spec: GaitSpec, x: np.ndarray,
                samples: int = OBJECTIVE_SAMPLES) -> float:
    """One candidate at a time through the mechanism it builds: `apply`, a
    sweep, the gait of that sweep and its metrics by the scalar reference of
    conftest (not the library's), summed term by term. With no transmission
    joints in the space, a four-bar's follower joint is the one checked."""
    try:
        m = space.apply(x)
    except (ValueError, SynthesisError):
        return 1.0e6 + 1.0
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    try:
        pa = sweep_arrays(m, thetas)
    except (FlapkinError, np.linalg.LinAlgError):
        return 1.0e6 + 1.0
    if pa.errors[0]:
        return 1.0e6 + (1.0 - pa.failed_at[0] / samples)
    try:
        gt = gait_from_pose_arrays(m, pa, 1.0, np.arange(samples) / samples)
        # no transmission joints: a four-bar's follower joint, as the cost takes them
        joints = space.transmission_joints or ((view.follower_joint,) if (view := as_fourbar(m)) else ())
        mu = np.minimum.reduce([transmission_angle_series(m, pa, jid) for jid in joints]) if joints else None
        mts = reference_metrics(gt, mu)
    except GaitError:
        return 1.0e5
    w = spec.weights
    cost = w.get("plunge_amplitude", 0.0) * (mts.plunge_amplitude - spec.plunge_amplitude) ** 2
    cost += w.get("extension_min", 0.0) * (mts.extension_range[0] - spec.extension_range[0]) ** 2
    cost += w.get("extension_max", 0.0) * (mts.extension_range[1] - spec.extension_range[1]) ** 2
    pen = PENALTY * max(w.values())
    cost += pen * max(0.0, mts.area_ratio_up_down - spec.area_ratio_max)
    if mts.min_transmission_angle is not None:
        cost += pen * max(0.0, spec.min_transmission_angle - mts.min_transmission_angle)
    return cost


def widened(lo: float, hi: float) -> DesignSpace:
    """The recovery space with its box at [lo, hi] times the hidden values."""
    space, _, x_hidden = recovery_space()
    return dataclasses.replace(space, parameters=tuple(
        Parameter(p.name, lo * v, hi * v) for p, v in zip(space.parameters, x_hidden)))


def armwing_space(extra: tuple[Parameter, ...] = ()) -> tuple[DesignSpace, GaitSpec]:
    """Five marker coordinates of the shipped armwing, +-25% around their values."""
    m = two_stage_armwing()
    names = ("link.crank.marker.tip.x", "link.coupler1.marker.b_pin.x",
             "link.humerus.marker.elbow.x", "link.coupler2.marker.tip.x",
             "link.forearm.marker.d_pin.y")
    params = []
    for name in names:
        _, lid, _, marker, axis = name.split(".")
        v = getattr(m.link(lid).marker(marker), axis)  # all positive
        params.append(Parameter(name, 0.75 * v, 1.25 * v))
    gt = generate_gait(m, 1.0, OBJECTIVE_SAMPLES)
    mts = gait_metrics(gt)
    spec = GaitSpec(plunge_amplitude=mts.plunge_amplitude, extension_range=mts.extension_range,
                    area_ratio_max=mts.area_ratio_up_down)
    return DesignSpace(m, tuple(params) + extra, ARMWING_TRANSMISSION_JOINTS), spec


def population_cases():
    space, spec, _ = recovery_space()
    arm, arm_spec = armwing_space()
    return {"recovery": (space, spec), "wide": (widened(0.6, 1.5), spec),
            "armwing": (arm, arm_spec)}


class TestPopulationCosts:
    @pytest.mark.parametrize("case", ["recovery", "wide", "armwing"])
    def test_rows_match_objective_and_oracle(self, case):
        space, spec = population_cases()[case]
        lo, hi = space.bounds()
        X = lo + np.random.default_rng(17).random((60, space.dim)) * (hi - lo)
        costs = population_costs(space, spec, X)
        # a row's cost is the one-row call on it, bit for bit, whatever else is in the batch
        assert [objective(x, space, spec) for x in X] == costs.tolist()
        assert np.array_equal(population_costs(space, spec, X[::-1])[::-1], costs)
        assert np.array_equal(population_costs(space, spec, X[7:9]), costs[7:9])
        want = np.array([oracle_cost(space, spec, x) for x in X])
        failed = want >= 1e5
        assert np.array_equal(costs[failed], want[failed])
        np.testing.assert_allclose(costs[~failed], want[~failed], rtol=1e-12, atol=0.0)
        if case == "wide":
            assert failed.any() and not failed.all()

    def test_nonpositive_stiffness_cannot_be_built(self):
        space, spec = armwing_space((Parameter("joint.j_b.stiffness", -0.05, 0.05),))
        lo, hi = space.bounds()
        X = lo + np.random.default_rng(3).random((40, space.dim)) * (hi - lo)
        X[0, -1] = 0.0
        costs = population_costs(space, spec, X)
        bad = X[:, -1] <= 0.0
        assert bad.any() and not bad.all()
        assert np.all(costs[bad] == 1.0e6 + 1.0)
        want = np.array([oracle_cost(space, spec, x) for x in X[~bad]])
        np.testing.assert_allclose(costs[~bad], want, rtol=1e-12, atol=0.0)

    def test_whole_turn_row_gets_the_no_reversal_cost(self):
        # the parallelogram wing (row 1) turns one revolution; its neighbours are crank-rockers
        space = DesignSpace(parallelogram_wing(), (Parameter("link.crank.marker.tip.x", 1.5, 2.5),
                                                   Parameter("link.rocker.marker.tip.x", 1.5, 2.5)))
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.5, 1.0))
        X = np.array([[1.6, 2.4], [2.0, 2.0], [1.8, 2.2], [1.7, 2.5]])
        costs = population_costs(space, spec, X)
        assert costs[1] == METRIC_FAILURE_COST
        others = np.delete(X, 1, axis=0)
        assert np.array_equal(np.delete(costs, 1), population_costs(space, spec, others))
        want = np.array([oracle_cost(space, spec, x) for x in others])
        assert np.all(want < METRIC_FAILURE_COST)
        np.testing.assert_allclose(np.delete(costs, 1), want, rtol=1e-12, atol=0.0)

    def test_near_parallelogram_crank_rocker_is_costed(self):
        # its dyad's h has a smooth minimum near 0 twice a turn: the 128-sample sweep
        # keeps the assembly mode, so the rocker swings and does not turn a revolution
        space = DesignSpace(parallelogram_wing(2.0001), (Parameter("link.rocker.marker.tip.x", 1.9, 2.1),))
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.5, 1.0))
        x = np.array([2.0001])
        cost = population_costs(space, spec, x[None])[0]
        assert cost < METRIC_FAILURE_COST
        assert cost == pytest.approx(oracle_cost(space, spec, x), rel=1e-12, abs=0.0)
        assert cost == pytest.approx(oracle_cost(space, spec, x, 1024), rel=0.05)

    def test_triad_template_takes_newton_rows(self):
        m = triad_eight_bar()
        space = DesignSpace(m, (Parameter("link.crank.marker.tip.x", 0.5, 0.7),
                                Parameter("link.d1.marker.b.y", 5.3, 5.7)))
        spec = GaitSpec(plunge_amplitude=0.1, extension_range=(0.8, 1.0))
        lo, hi = space.bounds()
        X = lo + np.random.default_rng(8).random((4, space.dim)) * (hi - lo)
        thetas = 2.0 * math.pi * np.arange(OBJECTIVE_SAMPLES) / OBJECTIVE_SAMPLES
        assert sweep_arrays(m, thetas, markers=space.markers(X)).solver == "newton"
        costs = population_costs(space, spec, X)
        assert [objective(x, space, spec) for x in X] == costs.tolist()
        want = np.array([oracle_cost(space, spec, x) for x in X])
        assert np.all(want < 1e5)
        np.testing.assert_allclose(costs, want, rtol=1e-12, atol=0.0)


def scipy_nelder_mead(cost, x0: np.ndarray, maxfev: int, xatol: float = 1e-12,
                      fatol: float = 1e-14) -> tuple[np.ndarray, np.ndarray]:
    """The points scipy's Nelder-Mead evaluates one at a time, and their costs."""
    xs, fs = [], []

    def recorded(x):
        xs.append(np.array(x))
        fs.append(cost(x))
        return fs[-1]

    minimize(recorded, x0, method="Nelder-Mead", options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    return np.array(xs), np.array(fs)


def row_wise(cost):
    return lambda X: np.array([cost(x) for x in X])


def quadratic(x: np.ndarray) -> float:
    return float(np.sum((x - 0.3) ** 2))


STAIRCASE_START = np.array([1.0, 2.0, 0.5])


def staircase(x: np.ndarray) -> float:
    """A quadratic rounded down to steps of 1/4: its plateaus tie costs and force shrinks."""
    return float(np.floor(np.sum((x - 0.3) ** 2) * 4.0) / 4.0)


class TestNelderMead:
    """The batched simplex consumes the points scipy's Nelder-Mead evaluates, in its order."""

    @pytest.mark.parametrize("problem,seed", [*(("recovery", s) for s in range(10)),
                                              *(("armwing", s) for s in range(3)),
                                              ("stiffness", 0)])
    def test_polish_of_de_winners_matches_scipy(self, monkeypatch, problem, seed):
        if problem == "recovery":
            space, spec, _ = recovery_space()
        elif problem == "armwing":
            space = _load_space(str(DATA / "armwing_space.json"))
            spec = _load_spec(str(DATA / "armwing_spec.json"))
        else:  # a hinge stiffness moves no marker: every point costs the same
            arm, spec = armwing_space()
            space = DesignSpace(arm.template, (Parameter("joint.j_b.stiffness", 0.02, 0.08),),
                                arm.transmission_joints)
        lo, hi = space.bounds()
        polishes = []

        def recorded(costs, x0, **kwargs):
            polishes.append((np.array(x0), *_nelder_mead(costs, x0, **kwargs)))
            return polishes[-1][1:]

        monkeypatch.setattr("flapkin.synthesis._nelder_mead", recorded)
        result = synthesize(space, spec, budget=1500, seed=seed)
        [(x0, xs, fs)] = polishes
        sx, sf = scipy_nelder_mead(lambda x: objective(np.clip(x, lo, hi), space, spec), x0, 200)
        assert np.array_equal(xs, sx) and np.array_equal(fs, sf)
        # the best point as scipy's objective wrapper kept it: strict <, in evaluation order
        best_x, best_cost = x0, objective(x0, space, spec)
        for x, c in zip(sx, sf):
            if c < best_cost:
                best_x, best_cost = np.clip(x, lo, hi), c
        assert np.array_equal(result.parameters, best_x) and result.cost == best_cost
        pop_size = 15 * space.dim
        assert result.evaluations == pop_size * (1500 // pop_size) + len(sf)

    def test_block_trial_points_equal_the_four_scipy_formulas(self):
        rho, chi, psi = 1, 2, 0.5  # scipy's non-adaptive coefficients
        rng = np.random.default_rng(24)
        for k in range(2000):
            n = 2 + k % 39
            sim = rng.standard_normal((n + 1, n)) * 10.0 ** rng.integers(-6, 7, (n + 1, n))
            sim[rng.random(sim.shape) < 0.1] = 0.0
            sim[rng.random(sim.shape) < 0.1] = -0.0
            xbar = np.add.reduce(sim[:-1], 0) / n
            scipy_trials = np.stack([(1 + rho) * xbar - rho * sim[-1], (1 + rho * chi) * xbar - rho * chi * sim[-1],
                                     (1 + psi * rho) * xbar - psi * rho * sim[-1], (1 - psi) * xbar + psi * sim[-1]])
            assert _trial_points(sim).tobytes() == scipy_trials.tobytes()

    def test_tolerance_stop_before_the_cap(self):
        x0 = np.array([1.0, 2.0])
        xs, fs = _nelder_mead(row_wise(quadratic), x0, maxfev=200, xatol=1e-12, fatol=1e-14)
        sx, sf = scipy_nelder_mead(quadratic, x0, 200)
        assert len(sf) < 200
        assert np.array_equal(xs, sx) and np.array_equal(fs, sf)

    @settings(max_examples=40, deadline=None)
    @given(maxfev=st.integers(len(STAIRCASE_START) + 2, 200))
    def test_any_cap_matches_scipy(self, maxfev):
        x0 = STAIRCASE_START
        xs, fs = _nelder_mead(row_wise(staircase), x0, maxfev=maxfev, xatol=1e-12, fatol=1e-14)
        sx, sf = scipy_nelder_mead(staircase, x0, maxfev)
        assert len(sf) == maxfev
        assert np.array_equal(xs, sx) and np.array_equal(fs, sf)

    def test_cap_inside_a_shrink_matches_scipy(self):
        x0 = STAIRCASE_START
        blocks = []

        def costs(X):
            blocks.append(X.copy())
            return row_wise(staircase)(X)

        xs, _ = _nelder_mead(costs, x0, maxfev=200, xatol=1e-12, fatol=1e-14)
        # a shrink is the only 3-row block; find where its points were consumed
        starts = [i for b in blocks if len(b) == 3
                  for i in range(len(xs) - 2) if np.array_equal(xs[i:i + 3], b)]
        caps = [start + k for start in starts for k in (1, 2) if start + k <= 200]
        assert caps
        for maxfev in caps:
            xs, fs = _nelder_mead(row_wise(staircase), x0, maxfev=maxfev, xatol=1e-12, fatol=1e-14)
            sx, sf = scipy_nelder_mead(staircase, x0, maxfev)
            assert np.array_equal(xs, sx) and np.array_equal(fs, sf)

    def test_synthesize_makes_no_one_row_calls(self, monkeypatch):
        space, spec, _ = recovery_space()
        calls, costs = [], population_costs

        def counted(space, spec, X, *args, **kwargs):
            calls.append(len(X))
            return costs(space, spec, X, *args, **kwargs)

        blocks, consumed = [], []

        def recorded(costs, x0, **kwargs):
            def logged(X):
                blocks.append(X.copy())
                return costs(X)
            consumed.append(_nelder_mead(logged, x0, **kwargs))
            return consumed[-1]

        monkeypatch.setattr("flapkin.synthesis.population_costs", counted)
        monkeypatch.setattr("flapkin.synthesis._nelder_mead", recorded)
        synthesize(space, spec, budget=1500, seed=0)
        n, pop_size = space.dim, 15 * space.dim
        generations = 1500 // pop_size
        assert calls[:generations] == [pop_size] * generations
        # the polish: the initial simplex, then a step's four trial points with the next
        # step's likeliest four, or a shrink
        assert calls[generations] == n + 1
        assert set(calls[generations + 1:]) <= {8, n}
        assert len(calls) < 100  # one call per point made 220, one per step 127
        # both paths run: a step takes its costs from an earlier call's look-ahead rows
        # (a hit), and a step after a call whose look-ahead it did not take calls again
        first: dict[bytes, tuple[int, int]] = {}
        for k, X in enumerate(blocks):
            for r, x in enumerate(X):
                first.setdefault(x.tobytes(), (k, r))
        [(xs, _)] = consumed
        hits = {k for k, r in map(first.get, (x.tobytes() for x in xs)) if r >= 4 and len(blocks[k]) == 8}
        misses = [k for k in range(1, len(blocks) - 1)
                  if len(blocks[k]) == len(blocks[k + 1]) == 8 and k not in hits]
        assert hits and misses


def trial_block_reference(rng: np.random.Generator, pop: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                          f_weight: float = 0.7, crossover: float = 0.9) -> tuple[np.ndarray, np.ndarray]:
    """A per-row rand/1/bin loop on the draws `_trial_block` makes: each row
    reads its three raw picks as positions in the list of members it has left,
    deleting each member it picks. Returns the trials and the (P, 3) picks."""
    pop_size, dim = pop.shape
    raw = [rng.integers(pop_size - k, size=pop_size) for k in (1, 2, 3)]
    uniform, forced = rng.random((pop_size, dim)), rng.integers(dim, size=pop_size)
    trials, picks = np.empty_like(pop), np.empty((pop_size, 3), dtype=int)
    for i in range(pop_size):
        left = [m for m in range(pop_size) if m != i]
        picks[i] = [left.pop(int(r[i])) for r in raw]
        r1, r2, r3 = picks[i]
        mutant = np.clip(pop[r1] + f_weight * (pop[r2] - pop[r3]), lo, hi)
        cross = uniform[i] < crossover
        cross[forced[i]] = True
        trials[i] = np.where(cross, mutant, pop[i])
    return trials, picks


class TestSynthesize:
    @pytest.mark.parametrize("dim", [1, 5, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trial_block_equals_per_row_loop(self, dim, seed):
        lo, hi = -np.arange(1.0, dim + 1.0), np.linspace(0.5, 3.0, dim)
        rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
        pop = lo + rngs[0].random((15 * dim, dim)) * (hi - lo)
        rngs[1].random((15 * dim, dim))
        clipped = 0
        for _ in range(4):  # generations, each from the trials of the last
            want, picks = trial_block_reference(rngs[0], pop, lo, hi)
            got = _trial_block(rngs[1], pop, lo, hi)
            assert np.array_equal(got, want)
            assert rngs[1].bit_generator.state == rngs[0].bit_generator.state  # the same draws
            # three distinct members, none of them the row's own
            assert all(len({i, *p}) == 4 for i, p in enumerate(picks.tolist()))
            clipped += int(((got == lo) | (got == hi)).sum())
            pop = got
        assert clipped

    def test_trial_block_picks_are_uniform(self):
        # with pop the identity and every component crossed, row i's trial is
        # e_r1 + 0.7 (e_r2 - e_r3): its picks can be read off the trial itself
        size, generations = 15, 2000
        pop, lo, hi = np.eye(size), np.full(size, -1.0), np.full(size, 2.0)
        rng = np.random.default_rng(2024)
        counts = np.zeros((3, size, size), dtype=int)  # pick position, row, member picked
        rows = np.arange(size)
        for _ in range(generations):
            trials = _trial_block(rng, pop, lo, hi, crossover=1.0)
            for k, value in enumerate((1.0, 0.7, -0.7)):
                row, member = (trials == value).nonzero()
                assert np.array_equal(row, rows)  # exactly one member per position: distinct picks
                counts[k, rows, member] += 1
            assert ((trials != 0.0).sum(axis=1) == 3).all()
        assert (counts[:, rows, rows] == 0).all()  # never the row itself
        # each position, on each row, is uniform over the size - 1 other members
        others = counts[:, ~np.eye(size, dtype=bool)].reshape(3, size, size - 1)
        expected = generations / (size - 1)
        chi2 = ((others - expected) ** 2 / expected).sum(axis=(1, 2))
        assert (chi2 < stats.chi2.ppf(0.999, size * (size - 2))).all()

    def test_recovery_single_seed(self):
        space, spec, x_hidden = recovery_space()
        result = synthesize(space, spec, budget=6000, seed=42)
        assert result.cost <= 1e-4
        assert result.feasible
        assert result.seed == 42
        assert result.evaluations <= 6000 + 200

    def test_determinism_same_seed(self):
        space, spec, _ = recovery_space()
        a = synthesize(space, spec, budget=150, seed=7)
        b = synthesize(space, spec, budget=150, seed=7)
        assert np.array_equal(a.parameters, b.parameters)
        assert a.cost == b.cost and a.evaluations == b.evaluations

    def test_determinism_repeat_run(self):
        space, spec, _ = recovery_space()
        a = synthesize(space, spec, budget=150, seed=3)
        b = synthesize(space, spec, budget=150, seed=3)
        assert np.array_equal(a.parameters, b.parameters)
        assert a.cost == b.cost
        assert serialize_mechanism(a.mechanism) == serialize_mechanism(b.mechanism)

    def test_monotone_budget(self, monkeypatch):
        # the DE keeps each member's best, and a larger budget draws the same
        # stream further: its winner costs no more. The polish promises no such
        # order, as it starts from different winners (seed 9 ends at 1.19e-15
        # with budget 150 and at 1.42e-09 with 300), so it is stubbed out here.
        space, spec, _ = recovery_space()
        blocks, costs = [], population_costs

        def recorded(space, spec, X, *args, **kwargs):
            blocks.append(X.copy())
            return costs(space, spec, X, *args, **kwargs)

        monkeypatch.setattr("flapkin.synthesis.population_costs", recorded)
        monkeypatch.setattr("flapkin.synthesis._nelder_mead",
                            lambda costs, x0, **kwargs: (np.empty((0, len(x0))), np.empty(0)))
        for seed in range(30):
            small = synthesize(space, spec, budget=150, seed=seed)
            head = blocks[:]
            blocks.clear()
            large = synthesize(space, spec, budget=300, seed=seed)
            assert len(blocks) == len(head) + 2  # two more generations
            assert all(np.array_equal(a, b) for a, b in zip(head, blocks))
            assert large.cost <= small.cost
            blocks.clear()

    @pytest.mark.parametrize("budget", [150, 300])
    def test_polish_keeps_the_de_winner_or_better(self, monkeypatch, budget):
        space, spec, _ = recovery_space()
        starts = []

        def recorded(costs, x0, **kwargs):
            starts.append(objective(x0, space, spec))
            return _nelder_mead(costs, x0, **kwargs)

        monkeypatch.setattr("flapkin.synthesis._nelder_mead", recorded)
        for seed in range(10):
            assert synthesize(space, spec, budget=budget, seed=seed).cost <= starts[-1]

    def test_weight_scaling_keeps_best_candidate(self):
        space, spec, _ = recovery_space()
        doubled = dataclasses.replace(
            spec, weights={k: 2.0 * v for k, v in spec.weights.items()})
        a = synthesize(space, spec, budget=150, seed=11)
        b = synthesize(space, doubled, budget=150, seed=11)
        assert np.array_equal(a.parameters, b.parameters)
        assert b.cost == pytest.approx(2.0 * a.cost, rel=1e-12, abs=0.0)

    def test_budget_too_small(self):
        space, spec, _ = recovery_space()
        with pytest.raises(BudgetTooSmallError):
            synthesize(space, spec, budget=10, seed=0)

    def test_empty_design_space(self):
        space, spec, _ = recovery_space()
        empty = DesignSpace(space.template, ())
        with pytest.raises(EmptyDesignSpaceError):
            synthesize(empty, spec, budget=100, seed=0)

    def test_infeasible_spec_rigid_fourbar(self):
        # wingtip on the rocker tip: reach is the rocker length, extension
        # constant 1, so a target minimum of 0.9 cannot be realized
        m = fourbar_mechanism(FourBar(6, 2, 5, 5))
        m = dataclasses.replace(m, shoulder=("ground", "tip"), wingtip=("rocker", "tip"))
        space = DesignSpace(m, (Parameter("link.coupler.marker.tip.x", 4.5, 5.5),))
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.9, 1.0),
                        min_transmission_angle=math.radians(5.0))
        result = synthesize(space, spec, budget=30, seed=1)
        assert not result.feasible
        assert result.cost > 0.0


class TestArmwingDesignProblem:
    """The shipped armwing's design problem is a `flapkin synthesize` input pair."""

    def test_space_template_is_the_shipped_armwing(self):
        space = json.loads((DATA / "armwing_space.json").read_text())
        assert space["template"] == json.loads((DATA / "armwing.json").read_text())
        assert tuple(space["transmission_joints"]) == ARMWING_TRANSMISSION_JOINTS

    @pytest.mark.parametrize("seed", range(10))
    def test_synthesize_gives_a_valid_armwing(self, tmp_path, seed):
        out = tmp_path / "best.json"
        code, _, _ = run_cli(["synthesize", str(DATA / "armwing_space.json"), str(DATA / "armwing_spec.json"),
                              "--budget", "1500", "--seed", str(seed), "--out", str(out)])
        assert code == 0
        m = parse_mechanism(out.read_bytes())
        gt = generate_gait(m, 0.1, 256)
        mu = np.minimum.reduce([transmission_angle_series(m, gt.poses, j) for j in ARMWING_TRANSMISSION_JOINTS])
        mts = gait_metrics(gt, mu)
        # criterion 6 thresholds, then criterion 10
        assert mts.extension_range[1] - mts.extension_range[0] >= 0.15
        assert mts.area_ratio_up_down <= 0.9
        assert mts.min_transmission_angle >= math.radians(30.0)
        assert retraction_time(gt) <= 0.06


class TestApply:
    """`apply` builds the design its row of `markers` costed, and a mechanism file keeps every searched value."""

    @pytest.mark.parametrize("case", ["recovery", "armwing", "shipped armwing", "triad"])
    def test_the_design_built_has_the_costed_marker_row(self, case):
        space = {"recovery": lambda: recovery_space()[0], "armwing": lambda: armwing_space()[0],
                 "shipped armwing": lambda: _load_space(str(DATA / "armwing_space.json")),
                 "triad": triad_space}[case]()
        lo, hi = space.bounds()
        X = lo + np.random.default_rng(11).random((16, space.dim)) * (hi - lo)
        for x, row in zip(X, space.markers(X).points):
            assert marker_table(space.apply(x)).points[0].tobytes() == row.tobytes()

    def test_a_searched_stiffness_survives_the_file(self):
        arm, _ = armwing_space()
        space = DesignSpace(arm.template, (Parameter("joint.j_b.stiffness", 0.02, 0.8),
                                           Parameter("joint.j_b.rest_angle", -1.0, 1.0)))
        m = parse_mechanism(serialize_mechanism(space.apply([0.5, 0.3])))
        # the stiffness no longer follows from the flexure dimensions, so they are dropped
        assert m.joint("j_b").kind == CompliantHinge(0.5, 0.3)
        assert m.joint("j_d").kind == arm.template.joint("j_d").kind

    def test_a_rest_angle_edit_keeps_the_hinge_geometry(self):
        arm, _ = armwing_space()
        space = DesignSpace(arm.template, (Parameter("joint.j_d.rest_angle", -1.0, 1.0),))
        m = space.apply([0.3])
        hinge = arm.template.joint("j_d").kind
        assert m.joint("j_d").kind == dataclasses.replace(hinge, rest_angle=0.3) and hinge.geometry is not None
        assert parse_mechanism(serialize_mechanism(m)).joint("j_d").kind == m.joint("j_d").kind


class TestFeasibilityReport:
    def test_shipped_example_feasible(self, armwing):
        gt = generate_gait(armwing, 1.0, 128)
        mu = np.minimum.reduce([transmission_angle_series(armwing, gt.poses, j)
                                for j in ARMWING_TRANSMISSION_JOINTS])
        mts = gait_metrics(gt, mu)
        spec = GaitSpec(plunge_amplitude=mts.plunge_amplitude,
                        extension_range=mts.extension_range)
        report = feasibility_report(armwing, spec, ARMWING_TRANSMISSION_JOINTS)
        assert report == []

    def test_parallelogram_transmission_violation(self):
        m = fourbar_mechanism(FourBar(4, 2, 4, 2))
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.2, 1.0),
                        min_transmission_angle=math.radians(30.0))
        report = feasibility_report(m, spec)
        assert any(v.constraint == "min_transmission_angle" for v in report)

    def test_non_grashof_full_revolution_violation(self):
        m = fourbar_mechanism(FourBar(6, 3, 2, 4))
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.2, 1.0))
        report = feasibility_report(m, spec)
        viol = [v for v in report if v.constraint == "full_revolution"]
        assert viol and "theta" in viol[0].detail

    def test_mobility_violation_is_the_whole_report(self):
        m = fourbar_mechanism(FourBar(6, 2, 5, 5))
        m = dataclasses.replace(m, joints=tuple(j for j in m.joints if j.id != "j_ground_rocker"))
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.2, 1.0))
        report = feasibility_report(m, spec)
        assert report == [ConstraintViolation("mobility", 2, "Gruebler mobility is 3, expected 1")]

    def test_an_unjoined_link_is_a_mobility_violation_that_names_it(self):
        m = fourbar_mechanism(FourBar(6, 2, 5, 5))
        m = dataclasses.replace(m, links=(*m.links, Link("loose", {"origin": Point2(0.0, 0.0)})))
        report = feasibility_report(m, GaitSpec(plunge_amplitude=0.5, extension_range=(0.2, 1.0)))
        assert report == [ConstraintViolation("mobility", 1.0, "links not reachable from ground: ['loose']")]

    def test_area_ratio_bound_is_checked(self, armwing):
        # the shipped armwing's up/down area ratio is 0.801: under a bound of 0.5
        # that is the one violation, and the cost weighs the same margin
        mts = gait_metrics(generate_gait(armwing, 1.0, OBJECTIVE_SAMPLES))
        spec = GaitSpec(mts.plunge_amplitude, mts.extension_range, area_ratio_max=0.5)
        report = feasibility_report(armwing, spec, ARMWING_TRANSMISSION_JOINTS)
        assert [v.constraint for v in report] == ["area_ratio"]
        assert report[0].margin == pytest.approx(mts.area_ratio_up_down - 0.5, rel=1e-12)
        x = armwing.link("crank").marker("tip").x
        space = DesignSpace(armwing, (Parameter("link.crank.marker.tip.x", 0.5 * x, 2.0 * x),),
                            ARMWING_TRANSMISSION_JOINTS)
        assert objective(np.array([x]), space, spec) == pytest.approx(PENALTY * report[0].margin, rel=1e-12)

    @staticmethod
    def _crank_tip_wing(shoulder: Point2):
        """The (6, 2, 5, 5) crank-rocker with its wingtip on the crank tip and its shoulder on the ground."""
        m = fourbar_mechanism(FourBar(6, 2, 5, 5))
        links = tuple(dataclasses.replace(l, markers={**l.markers, "shoulder": shoulder})
                      if l.id == "ground" else l for l in m.links)
        return dataclasses.replace(m, links=links, shoulder=("ground", "shoulder"), wingtip=("crank", "tip"))

    def test_a_wing_that_turns_full_circles_has_no_stroke_reversal(self):
        # with the shoulder inside the crank circle the wing turns full circles:
        # no flapping gait, which the cost prices at the degenerate sentinel
        m = self._crank_tip_wing(Point2(0.5, 0.0))
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.6, 1.0))
        assert feasibility_report(m, spec) == [ConstraintViolation(
            "stroke_reversal", 1.0, "plunge is monotone over the wingbeat; not a flapping gait")]
        space = DesignSpace(m, (Parameter("link.crank.marker.tip.x", 1.5, 2.5),))
        assert objective(np.array([2.0]), space, spec) == METRIC_FAILURE_COST

    def test_a_broken_reach_rule_ends_the_report(self):
        # the shoulder on the crank tip's path at theta = 0: the reach rule's
        # violation is the last, though the extension range is missed as well
        m = self._crank_tip_wing(Point2(2.0, 0.0))
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.6, 1.0), min_transmission_angle=math.radians(80.0))
        report = feasibility_report(m, spec)
        assert [v.constraint for v in report] == ["min_transmission_angle", "gait"]
        assert report[-1] == ConstraintViolation(
            "gait", 1.0, "gait evaluation failed: shoulder and wingtip coincide during the sweep")
        space = DesignSpace(m, (Parameter("link.crank.marker.tip.x", 1.5, 2.5),))
        assert objective(np.array([2.0]), space, spec) == METRIC_FAILURE_COST

    def test_no_transmission_joints_means_the_follower_joint_in_cost_and_report(self):
        # the hidden four-bar with its angle bound 0.02 rad above its smallest
        # transmission angle: the cost weighs the follower joint j_b when the
        # space names no joint, as the report checks it
        space, spec, x = recovery_space()
        mu = float(transmission_angle_series(space.template, generate_gait(space.template, 1.0, OBJECTIVE_SAMPLES)
                                             .poses, "j_b").min())
        spec = dataclasses.replace(spec, min_transmission_angle=mu + 0.02)
        bare = dataclasses.replace(space, transmission_joints=())
        assert objective(x, bare, spec) == objective(x, space, spec) == pytest.approx(PENALTY * 0.02, rel=1e-9)
        m = space.apply(x)
        assert feasibility_report(m, spec) == feasibility_report(m, spec, ("j_b",))
        assert [v.constraint for v in feasibility_report(m, spec)] == ["min_transmission_angle"]


class TestBoundsTable:
    def test_a_bound_is_one_row_and_one_field(self, tmp_path, monkeypatch):
        # a throwaway maximum plunge amplitude, added as one `BOUNDS` row plus one
        # GaitSpec field: GaitSpec checks it, the cost weighs it, the report names
        # it and the spec loader reads its key
        space, spec, x = recovery_space()  # built and costed before the table grows a row GaitSpec lacks
        cost = objective(x, space, spec)

        @dataclasses.dataclass(frozen=True)
        class CappedSpec(GaitSpec):
            plunge_amplitude_max: float = math.pi

        row = ("plunge_amplitude", "plunge_amplitude_max", "plunge_amplitude_max_rad",
               lambda b: 0.0 < b < math.inf, "positive and finite", lambda t, b: t.amp - b,
               lambda t, b: f"plunge amplitude {t.amp:.3f} rad is above {b:.3f} rad")
        for module in (synthesis, cli):
            monkeypatch.setattr(module, "BOUNDS", (*synthesis.BOUNDS, row))
        monkeypatch.setattr(cli, "GaitSpec", CappedSpec)
        loose = CappedSpec(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(GaitSpec)})
        tight = dataclasses.replace(loose, plunge_amplitude_max=spec.plunge_amplitude - 0.01)
        with pytest.raises(ValueError, match="plunge_amplitude_max must be positive and finite"):
            dataclasses.replace(loose, plunge_amplitude_max=0.0)

        assert objective(x, space, loose) == cost
        assert objective(x, space, tight) - objective(x, space, loose) == pytest.approx(PENALTY * 0.01, rel=1e-9)
        m = space.apply(x)
        assert feasibility_report(m, loose, space.transmission_joints) == []
        (v,) = feasibility_report(m, tight, space.transmission_joints)
        assert v.constraint == "plunge_amplitude" and v.margin == pytest.approx(0.01, rel=1e-9)
        assert v.detail.startswith("plunge amplitude ") and v.detail.endswith(" rad is above "
                                                                              f"{tight.plunge_amplitude_max:.3f} rad")

        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"plunge_amplitude_rad": 0.3, "extension_range": [0.5, 1.0],
                                 "plunge_amplitude_max_rad": 0.4}))
        assert cli._load_spec(str(p)) == CappedSpec(0.3, (0.5, 1.0), plunge_amplitude_max=0.4)


class TestSpecValidation:
    def test_bad_extension_range(self):
        with pytest.raises(ValueError):
            GaitSpec(plunge_amplitude=0.5, extension_range=(0.9, 0.5))

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            GaitSpec(plunge_amplitude=0.5, extension_range=(0.2, 1.0),
                     weights={"plunge_amplitude": 0.0})

    @pytest.mark.parametrize("field, value", [
        ("plunge_amplitude", math.nan), ("plunge_amplitude", math.inf),
        ("area_ratio_max", math.nan), ("area_ratio_max", math.inf),
        ("min_transmission_angle", math.nan), ("min_transmission_angle", -math.inf),
        ("weights", {"plunge_amplitude": math.nan}), ("weights", {"plunge_amplitude": 1.0, "extension_min": math.inf}),
    ])
    def test_non_finite_values(self, field, value):
        with pytest.raises(ValueError):
            GaitSpec(**{"plunge_amplitude": 0.5, "extension_range": (0.2, 1.0), field: value})

    def test_unknown_weight_rejected(self):
        # the spec file's key name: accepted, it would weight every metric term 0
        with pytest.raises(ValueError, match="plunge_amplitude_rad"):
            GaitSpec(plunge_amplitude=0.5, extension_range=(0.2, 1.0),
                     weights={"plunge_amplitude_rad": 1.0})

    @pytest.mark.parametrize("name, message", [
        ("link.crank.marker.tip.z", "unknown parameter path 'link.crank.marker.tip.z'"),
        ("link.crank.marker.nope.x", "link 'crank' has no marker 'nope'"),
        ("link.nope.marker.tip.x", "template has no link 'nope'"),
        ("link.crank.tip.x", "unknown parameter path 'link.crank.tip.x'"),
        ("joint.j_b.stiffness", "joint 'j_b' is not a compliant hinge"),
        ("joint.nope.stiffness", "template has no joint 'nope'"),
        ("link.crank.marker.tip.x", "parameter path 'link.crank.marker.tip.x' appears twice"),
    ], ids=["component z", "unknown marker", "unknown link", "malformed", "rigid joint",
            "unknown joint", "repeated"])
    def test_bad_parameter_path_fails_when_the_space_is_built(self, monkeypatch, name, message):
        # before any cost is taken: a path that edits nothing is no dimension
        space, _, _ = recovery_space()
        monkeypatch.setattr("flapkin.synthesis.sweep_arrays", None)
        with pytest.raises(SynthesisError) as e:
            DesignSpace(space.template, (*space.parameters, Parameter(name, 0.5, 1.0)))
        assert (e.value.code, str(e.value)) == ("BAD_PARAMETER", message)

    @pytest.mark.parametrize("joints", [("j_nope",), ("j_b", "j_nope"), tuple("j_b")],
                             ids=["unknown joint", "one of two", "string split into characters"])
    def test_unknown_transmission_joint_fails_when_the_space_is_built(self, monkeypatch, joints):
        space, _, _ = recovery_space()
        monkeypatch.setattr("flapkin.synthesis.sweep_arrays", None)
        with pytest.raises(SynthesisError) as e:
            DesignSpace(space.template, space.parameters, joints)
        assert e.value.code == "BAD_PARAMETER"

    @pytest.mark.parametrize("field, value", [("shoulder", None), ("wingtip", None),
                                              ("wing_polygon", (("ground", "origin"), ("coupler", "cp")))])
    def test_template_without_a_wingbeat_fails_when_the_space_is_built(self, monkeypatch, field, value):
        space, _, _ = recovery_space()
        monkeypatch.setattr("flapkin.synthesis.sweep_arrays", None)
        with pytest.raises(GaitError) as e:
            DesignSpace(dataclasses.replace(space.template, **{field: value}), space.parameters)
        assert e.value.code == "DEGENERATE"

    def test_an_invalid_template_fails_when_the_space_is_built(self, monkeypatch):
        # the crank left free: validation's first error, with its code, before any cost is taken
        space, _, _ = recovery_space()
        monkeypatch.setattr("flapkin.synthesis.sweep_arrays", None)
        free = tuple(dataclasses.replace(j, actuated=False) for j in space.template.joints)
        with pytest.raises(MechanismValidationError) as e:
            DesignSpace(dataclasses.replace(space.template, joints=free), space.parameters)
        assert (e.value.code, str(e.value)) == ("NO_ACTUATOR", "no actuated joint")

    def test_of_several_bad_paths_the_first_is_reported(self, monkeypatch):
        space, _, _ = recovery_space()
        monkeypatch.setattr("flapkin.synthesis.sweep_arrays", None)
        bad = (Parameter("joint.nope.stiffness", 0.5, 1.0), Parameter("link.nope.marker.tip.x", 0.5, 1.0),
               Parameter("link.crank.marker.tip.z", 0.5, 1.0))
        for k in range(len(bad)):
            with pytest.raises(SynthesisError) as e:
                DesignSpace(space.template, (*space.parameters, *bad[k:]), ("j_nope",))
            assert (e.value.code, str(e.value)) == ("BAD_PARAMETER", [
                "template has no joint 'nope'", "template has no link 'nope'",
                "unknown parameter path 'link.crank.marker.tip.z'"][k])

    def test_bad_parameter_bounds(self):
        with pytest.raises(ValueError):
            Parameter("link.crank.marker.tip.x", 2.0, 1.0)
