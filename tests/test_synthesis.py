"""Dimensional synthesis: objective, DE search, feasibility reporting."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from flapkin.designs import ARMWING_TRANSMISSION_JOINTS
from flapkin.errors import BudgetTooSmallError, EmptyDesignSpaceError
from flapkin.gait import gait_metrics, generate_gait
from flapkin.kinematics import sweep_arrays, transmission_angle_series
from flapkin.mechanism import FourBar, fourbar_mechanism
from flapkin.synthesis import (
    DesignSpace,
    GaitSpec,
    Parameter,
    feasibility_report,
    objective,
    synthesize,
)

from conftest import recovery_space


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


class TestSynthesize:
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

    def test_determinism_across_threads(self):
        space, spec, _ = recovery_space()
        a = synthesize(space, spec, budget=150, seed=3, threads=1)
        b = synthesize(space, spec, budget=150, seed=3, threads=4)
        assert np.array_equal(a.parameters, b.parameters)
        assert a.cost == b.cost

    def test_monotone_budget(self):
        space, spec, _ = recovery_space()
        small = synthesize(space, spec, budget=150, seed=0)
        large = synthesize(space, spec, budget=300, seed=0)
        assert large.cost <= small.cost

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


class TestFeasibilityReport:
    def test_shipped_example_feasible(self, armwing):
        gt = generate_gait(armwing, 1.0, 128)
        pa = sweep_arrays(armwing, gt.crank)
        mu = np.minimum.reduce([transmission_angle_series(armwing, pa, j)
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


class TestSpecValidation:
    def test_bad_extension_range(self):
        with pytest.raises(ValueError):
            GaitSpec(plunge_amplitude=0.5, extension_range=(0.9, 0.5))

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            GaitSpec(plunge_amplitude=0.5, extension_range=(0.2, 1.0),
                     weights={"plunge_amplitude": 0.0})

    def test_bad_parameter_bounds(self):
        with pytest.raises(ValueError):
            Parameter("link.crank.marker.tip.x", 2.0, 1.0)
