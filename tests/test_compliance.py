"""Pseudo-rigid-body hinges: stiffness, energy, quasi-static equilibrium."""
from __future__ import annotations

import math

import numpy as np
import pytest

from flapkin.compliance import (
    HingeGeometry,
    LoadCase,
    elastic_energy,
    hinge_stiffness,
    solve_equilibrium,
    stationarity,
    total_potential,
)
from flapkin.errors import LargeDeflectionWarning
from flapkin.geometry import Point2, Pose
from flapkin.kinematics import (
    Configuration,
    ConstraintSystem,
    assemble,
    relative_joint_angle,
    solve_fourbar,
)
from flapkin.mechanism import CompliantHinge, Joint, Link, LinkRole, Mechanism

from conftest import two_hinge_chain


def single_hinge_chain(k: float = 0.144, arm: float = 0.05) -> Mechanism:
    ground = Link("ground", {"origin": Point2(0.0, 0.0)}, LinkRole.GROUND)
    link = Link("arm", {"origin": Point2(0.0, 0.0), "tip": Point2(arm, 0.0)})
    j = Joint("h", "ground", "origin", "arm", "origin", CompliantHinge(stiffness=k))
    return Mechanism((ground, link), (j,), "ground")


class TestHingeStiffness:
    def test_formula_oracle(self):
        # E w t^3 / (12 l) with w=10 mm, t=0.6 mm, l=3 mm, E=2 GPa:
        # I = 1.8e-13 m^4, k = 2e9 * 1.8e-13 / 3e-3 = 0.12 N*m/rad
        hg = HingeGeometry(width=0.010, thickness=0.0006, length=0.003,
                           elastic_modulus=2.0e9)
        assert hinge_stiffness(hg) == pytest.approx(0.12, rel=1e-12)

    def test_double_length_halves(self):
        hg = HingeGeometry(0.010, 0.0006, 0.003, 2.0e9)
        hg2 = HingeGeometry(0.010, 0.0006, 0.006, 2.0e9)
        assert hinge_stiffness(hg2) == pytest.approx(hinge_stiffness(hg) / 2, rel=1e-12)

    def test_double_thickness_times_eight(self):
        hg = HingeGeometry(0.010, 0.0006, 0.003, 2.0e9)
        hg2 = HingeGeometry(0.010, 0.0012, 0.003, 2.0e9)
        assert hinge_stiffness(hg2) == pytest.approx(8 * hinge_stiffness(hg), rel=1e-12)

    def test_thin_flag(self):
        assert HingeGeometry(0.010, 0.0006, 0.003, 2.0e9).thin
        assert not HingeGeometry(0.0005, 0.0006, 0.003, 2.0e9).thin

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HingeGeometry(0.0, 0.0006, 0.003, 2.0e9)


class TestElasticEnergy:
    def test_rest_configuration_zero(self):
        m = two_hinge_chain()
        c = solve_equilibrium(m, 0.0, LoadCase())
        assert elastic_energy(m, c) == pytest.approx(0.0, abs=1e-18)

    def test_half_k_theta_squared(self):
        from flapkin.kinematics import Branch

        m = single_hinge_chain(k=0.144)
        c = Configuration(0.0, {"ground": Pose(Point2(0, 0), 0.0),
                                "arm": Pose(Point2(0, 0), 0.1)}, Branch.OPEN)
        assert elastic_energy(m, c) == pytest.approx(0.5 * 0.144 * 0.1 ** 2, rel=1e-14)

    def test_rigid_pins_always_zero(self, fb_example, fb_mech):
        for theta in (0.0, 1.0, 2.5):
            c = solve_fourbar(fb_example, theta)
            assert elastic_energy(fb_mech, c) == 0.0

    def test_invariant_to_whole_turns_of_a_link_angle(self, armwing):
        c = assemble(armwing, 0.3)
        p = c.pose("humerus")
        shifted = Configuration(c.crank_angle, {**c.poses, "humerus": Pose(p.origin, p.angle + 2 * math.pi)},
                                c.branch)
        assert elastic_energy(armwing, shifted) == pytest.approx(elastic_energy(armwing, c), rel=1e-12)


class TestEquilibrium:
    def test_zero_load_zero_deflection(self):
        m = single_hinge_chain()
        c = solve_equilibrium(m, 0.0, LoadCase())
        assert relative_joint_angle(m, c, "h") == pytest.approx(0.0, abs=1e-9)

    def test_linear_spring_moment(self):
        m = single_hinge_chain(k=0.144)
        c = solve_equilibrium(m, 0.0, LoadCase(moments=(("h", 0.0144),)))
        assert relative_joint_angle(m, c, "h") == pytest.approx(0.1, abs=1e-6)

    def test_two_hinge_grid_oracle(self):
        k1 = k2 = 0.12
        l1, l2 = 0.05, 0.04
        m = two_hinge_chain(k1, k2, l1, l2)
        force = Point2(0.0, 0.15)
        load = LoadCase(forces=(("fore", "tip", force),))
        c = solve_equilibrium(m, 0.0, load)
        t1 = relative_joint_angle(m, c, "h1")
        t2 = relative_joint_angle(m, c, "h2")

        # brute-force grid minimization of the total potential, 1e-3 rad step
        g1 = np.arange(-0.5, 0.5, 1e-3)
        g2 = np.arange(-0.5, 0.5, 1e-3)
        T1, T2 = np.meshgrid(g1, g2, indexing="ij")
        tip_x = l1 * np.cos(T1) + l2 * np.cos(T1 + T2)
        tip_y = l1 * np.sin(T1) + l2 * np.sin(T1 + T2)
        V = 0.5 * k1 * T1 ** 2 + 0.5 * k2 * T2 ** 2 - force.y * tip_y - force.x * tip_x
        i, j = np.unravel_index(np.argmin(V), V.shape)
        assert t1 == pytest.approx(g1[i], abs=2e-3)
        assert t2 == pytest.approx(g2[j], abs=2e-3)

        pg, closure = stationarity(m, load, c, 0.0)
        assert pg <= 1e-8 * max(k1, k2)
        assert closure <= 1e-8

    def test_load_linearity_small_deflection(self):
        m = two_hinge_chain()
        base = Point2(0.0, 0.02)
        defl = {}
        for alpha in (1.0, 2.0):
            load = LoadCase(forces=(("fore", "tip", Point2(0.0, alpha * base.y)),))
            c = solve_equilibrium(m, 0.0, load)
            defl[alpha] = (relative_joint_angle(m, c, "h1"),
                           relative_joint_angle(m, c, "h2"))
        for a, b in zip(defl[2.0], defl[1.0]):
            assert a == pytest.approx(2.0 * b, rel=0.05)

    def test_gradient_check_finite_differences(self):
        m = two_hinge_chain()
        load = LoadCase(forces=(("fore", "tip", Point2(0.01, 0.1)),))
        c = solve_equilibrium(m, 0.0, load)
        t1 = relative_joint_angle(m, c, "h1")
        t2 = relative_joint_angle(m, c, "h2")
        l1 = m.link("upper").marker("tip").x
        l2 = m.link("fore").marker("tip").x

        def V(a, b):
            tip_x = l1 * math.cos(a) + l2 * math.cos(a + b)
            tip_y = l1 * math.sin(a) + l2 * math.sin(a + b)
            return 0.5 * 0.12 * (a * a + b * b) - 0.01 * tip_x - 0.1 * tip_y

        h = 1e-6
        d1 = (V(t1 + h, t2) - V(t1 - h, t2)) / (2 * h)
        d2 = (V(t1, t2 + h) - V(t1, t2 - h)) / (2 * h)
        assert abs(d1) <= 1e-7 and abs(d2) <= 1e-7

    @pytest.mark.filterwarnings("ignore::flapkin.errors.LargeDeflectionWarning")
    def test_shipped_armwing_full_revolution_tip_load(self, armwing):
        k_max = max(j.kind.stiffness for j in armwing.joints if isinstance(j.kind, CompliantHinge))
        n = 360
        directions = np.random.default_rng(5).uniform(0.0, 2 * math.pi, n)
        thetas = 2 * math.pi * np.arange(n) / n
        assert np.any((thetas >= 4.5) & (thetas <= 5.1))
        for theta, a in zip(thetas, directions):
            load = LoadCase(forces=(("forearm", "tip", Point2(0.5 * math.cos(a), 0.5 * math.sin(a))),))
            c = solve_equilibrium(armwing, float(theta), load)
            pg, closure = stationarity(armwing, load, c, float(theta))
            assert pg <= 1e-8 * k_max, theta
            assert closure <= 1e-8, theta

    def test_lagrangian_hessian_matches_finite_differences(self, armwing):
        from flapkin.compliance import _Potential

        load = LoadCase(forces=(("forearm", "tip", Point2(0.3, -0.4)),), moments=(("j_b", 0.01),))
        sys = ConstraintSystem(armwing)
        pot = _Potential(armwing, load, sys)
        rng = np.random.default_rng(2)
        q = sys.q_from(assemble(armwing, 1.1)) + rng.normal(scale=0.01, size=sys.n)
        lam = rng.normal(size=sys.rows)

        def grad_lagrangian(qv):
            return pot.grad(qv) + sys.jacobian(qv).T @ lam

        h = 1e-6
        fd = np.column_stack([(grad_lagrangian(q + h * e) - grad_lagrangian(q - h * e)) / (2 * h)
                              for e in np.eye(sys.n)])
        assert np.allclose(pot.hessian(q, lam), fd, rtol=0.0, atol=1e-7)

    def test_large_deflection_warns(self):
        m = single_hinge_chain(k=0.1)
        with pytest.warns(LargeDeflectionWarning):
            solve_equilibrium(m, 0.0, LoadCase(moments=(("h", 0.2),)))

    def test_total_potential_at_equilibrium_is_minimal(self):
        m = two_hinge_chain()
        load = LoadCase(forces=(("fore", "tip", Point2(0.0, 0.1)),))
        c = solve_equilibrium(m, 0.0, load)
        v0 = total_potential(m, load, c)
        rng = np.random.default_rng(11)

        # nearby feasible configurations (chain is open: any hinge angles close)
        l1 = m.link("upper").marker("tip").x
        for _ in range(10):
            a = relative_joint_angle(m, c, "h1") + rng.uniform(-0.05, 0.05)
            b = relative_joint_angle(m, c, "h2") + rng.uniform(-0.05, 0.05)
            poses = {
                "ground": Pose(Point2(0, 0), 0.0),
                "upper": Pose(Point2(0, 0), a),
                "fore": Pose(Point2(l1 * math.cos(a), l1 * math.sin(a)), a + b),
            }
            cp = Configuration(0.0, poses, c.branch)
            assert total_potential(m, load, cp) >= v0 - 1e-12
