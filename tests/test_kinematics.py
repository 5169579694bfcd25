"""Closed-form and Newton solvers, sweeps, velocities, transmission angles."""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flapkin import kinematics, mechanism
from flapkin.cli import _load_space, _load_spec
from flapkin.compliance import LoadCase, solve_equilibrium
from flapkin.designs import two_stage_armwing
from flapkin.errors import (BranchAmbiguousError, ConvergenceError, DisconnectedError, FlapkinError,
                            KinematicsError, NotAssemblableError, SingularJacobianError)
from flapkin.geometry import Point2, Pose
from flapkin.kinematics import (
    Branch,
    Configuration,
    TOLERANCE,
    assemble,
    solve_fourbar,
    sweep_arrays,
    transmission_angle_series,
    velocities,
)
from flapkin.mechanism import FourBar, Joint, Link, LinkRole, Mechanism, fourbar_mechanism
from flapkin.synthesis import DesignSpace, GaitSpec, Parameter, population_costs

from conftest import (bootstrap_candidates, coincidence_residual, loop_residual, marker_world, random_crank_rocker,
                      recovery_space, run_cli, transmission_angle, transmission_angle_at, triad_eight_bar,
                      two_hinge_chain)
from test_pinned_results import PINNED, triad_space, triad_thetas

# law-of-cosines oracle for (6, 2, 5, 5) at theta = 0: d = 4,
# beta = arccos((c^2 + d^2 - b^2) / (2cd)) = arccos(0.4), rocker = pi - beta
ROCKER_6255_T0 = math.pi - math.acos(0.4)
# cos(mu) = (b^2 + c^2 - d^2) / (2bc) = 0.68
MU_6255_T0 = math.acos(0.68)


def bisect_rocker(fb: FourBar, theta: float, lo: float, hi: float) -> float:
    """Independent oracle: bisection on the loop-closure residual in psi."""
    ax, ay = fb.a * math.cos(theta), fb.a * math.sin(theta)

    def f(psi):
        bx = fb.g + fb.c * math.cos(psi)
        by = fb.c * math.sin(psi)
        return math.hypot(bx - ax, by - ay) - fb.b

    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0, "bracket does not straddle the root"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


class TestClosedForm:
    def test_rocker_oracle_theta0(self, fb_example):
        c = solve_fourbar(fb_example, 0.0)
        assert c.pose("rocker").angle == pytest.approx(ROCKER_6255_T0, abs=1e-10)

    def test_rocker_oracle_theta90_bisection(self, fb_example):
        c = solve_fourbar(fb_example, math.pi / 2)
        psi_ref = bisect_rocker(fb_example, math.pi / 2, 1.0, 2.8)
        assert c.pose("rocker").angle == pytest.approx(psi_ref, abs=1e-9)

    def test_parallelogram_theta50(self):
        fb = FourBar(4, 2, 4, 2)
        c = solve_fourbar(fb, math.radians(50.0), Branch.OPEN)
        assert c.pose("rocker").angle == pytest.approx(math.radians(50.0), abs=1e-12)
        assert c.pose("coupler").angle == pytest.approx(0.0, abs=1e-12)

    def test_residual_postcondition(self, fb_example, fb_mech):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0, 2 * math.pi, 16):
            c = solve_fourbar(fb_example, float(theta))
            scale = sum(fb_example.lengths)
            assert np.linalg.norm(loop_residual(fb_mech, c)) <= 1e-12 * scale

    def test_residual_lipschitz_in_translation(self, fb_example, fb_mech):
        c = solve_fourbar(fb_example, 0.3)
        r0 = np.linalg.norm(loop_residual(fb_mech, c))
        p = c.pose("coupler")
        poses = dict(c.poses)
        poses["coupler"] = Pose(Point2(p.origin.x, p.origin.y + 1e-3), p.angle)
        c2 = Configuration(c.crank_angle, poses, c.branch)
        r1 = np.linalg.norm(loop_residual(fb_mech, c2))
        assert abs(r1 - r0) <= 2e-3

    def test_past_a_dead_center_is_not_assemblable(self):
        # a non-Grashof triple rocker: its crank cannot reach 2 rad
        with pytest.raises(NotAssemblableError, match="cannot close at crank angle 2 rad"):
            solve_fourbar(FourBar(6, 3, 2, 4), 2.0)


class TestAssemble:
    def test_exact_guess_returned_unchanged(self, fb_example, fb_mech):
        guess = solve_fourbar(fb_example, 0.8)
        c = assemble(fb_mech, 0.8, guess=guess)
        for lid in fb_mech.link_ids:
            assert c.pose(lid).angle == pytest.approx(guess.pose(lid).angle, abs=1e-12)

    def test_perturbed_guess_matches_oracle(self, fb_example, fb_mech):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0, 2 * math.pi, 8):
            ref = solve_fourbar(fb_example, float(theta))
            poses = {}
            for lid, p in ref.poses.items():
                if lid == fb_mech.ground:
                    poses[lid] = p
                    continue
                da = rng.uniform(-0.1, 0.1)
                poses[lid] = Pose(Point2(p.origin.x + rng.uniform(-0.05, 0.05),
                                         p.origin.y + rng.uniform(-0.05, 0.05)),
                                  p.angle + da)
            guess = Configuration(ref.crank_angle, poses, ref.branch)
            c = assemble(fb_mech, float(theta), guess=guess)
            for lid in ("crank", "coupler", "rocker"):
                assert abs(c.pose(lid).angle - ref.pose(lid).angle) <= 1e-8

    def test_whole_turn_in_theta_keeps_the_guess_branch(self, armwing):
        # theta just short of a whole turn, from the theta = 0 pose: the crank
        # must not be turned a whole turn back to the guess, which lands on
        # another assembly mode
        theta = 6.2796
        wingbeat = sweep_arrays(armwing, np.linspace(0.0, theta, 512))
        guess = wingbeat.configuration(0)
        want = wingbeat.configuration(511)
        for c in (assemble(armwing, theta, guess), assemble(armwing, theta - 2 * math.pi, guess)):
            assert c.crank_angle == c.pose("crank").angle
            for lid in wingbeat.ids:
                turn = c.pose(lid).angle - want.pose(lid).angle
                assert abs((turn + math.pi) % (2 * math.pi) - math.pi) <= 1e-9
                assert (c.pose(lid).origin - want.pose(lid).origin).norm() <= 1e-9

    def test_two_stage_chain_residual(self, armwing):
        c = assemble(armwing, math.radians(30.0))
        assert np.linalg.norm(loop_residual(armwing, c)) <= 1e-10

    def test_nan_guess_is_a_singular_jacobian(self):
        m = triad_eight_bar()
        guess = assemble(m, 0.3)
        nan_t = Pose(guess.pose("t").origin, math.nan)
        with pytest.raises(SingularJacobianError):
            assemble(m, 0.3, guess=Configuration(0.3, {**guess.poses, "t": nan_t}))

    def test_a_closing_guess_comes_back_bit_for_bit(self):
        # the crank 1e-12 off theta is within the tolerance: no step is taken, so the
        # drive is not moved onto theta either
        m = triad_eight_bar()
        closed = assemble(m, 0.3)
        crank = closed.pose("crank")
        guess = Configuration(0.3, {**closed.poses, "crank": Pose(crank.origin, 0.3 + 1e-12)})
        c = assemble(m, 0.3, guess=guess)
        assert c.poses == guess.poses and c.pose("crank").angle != 0.3

    def test_the_last_allowed_step_may_converge(self, monkeypatch):
        # closure is tested after every step, the last one included
        m, steps = triad_eight_bar(), []
        guess = assemble(m, 0.3)
        jacobian = kinematics.ConstraintSystem.jacobian
        monkeypatch.setattr(kinematics.ConstraintSystem, "jacobian", lambda sys, q: steps.append(q) or jacobian(sys, q))
        want, taken = assemble(m, 0.5, guess), len(steps)
        assert taken > 1 and want.pose("crank").angle == 0.5
        monkeypatch.setattr(kinematics, "MAX_ITERATIONS", taken)
        assert assemble(m, 0.5, guess) == want
        monkeypatch.setattr(kinematics, "MAX_ITERATIONS", taken - 1)
        with pytest.raises(ConvergenceError):
            assemble(m, 0.5, guess)

    def test_an_unjoined_link_is_disconnected(self, armwing):
        m = dataclasses.replace(armwing, links=(*armwing.links, Link("loose", {"origin": Point2(0.0, 0.0)})))
        for solve in (lambda: solve_equilibrium(m, 0.3, LoadCase()), lambda: sweep_arrays(m, np.array([0.3])),
                      lambda: assemble(m, 0.3)):
            with pytest.raises(DisconnectedError, match=r"^links not reachable from ground: \['loose'\]$"):
                solve()

    def test_an_actuator_off_the_ground_is_a_typed_error(self):
        # the (6, 2, 5, 5) four-bar driven at its crank-coupler pin: no crank turns on the ground, so no solver
        # may place one there (its pin would read a pose slot never written), and each says so every time
        fb = fourbar_mechanism(FourBar(6, 2, 5, 5))
        m = dataclasses.replace(fb, joints=tuple(dataclasses.replace(j, actuated=j.id == "j_a") for j in fb.joints))
        c = assemble(fb, 0.3)
        for solve in (lambda: sweep_arrays(m, np.linspace(0.0, 1.0, 4)), lambda: assemble(m, 0.3),
                      lambda: velocities(m, c, 1.0), lambda: solve_equilibrium(m, 0.3, LoadCase())):
            for _ in range(3):
                with pytest.raises(KinematicsError, match=r"^actuated joint 'j_a' is not on the ground link$") as e:
                    solve()
                assert e.value.code == "ACTUATOR_NOT_GROUNDED"


class TestDampedNewton:
    """The one Newton loop, on scalar problems whose every stop is known."""

    @staticmethod
    def solve(f, df, x0: float, tol: float = 1e-12):
        return kinematics.damped_newton(f, lambda x: np.diag(df(x)), np.array([x0]),
                                        lambda F: abs(F[0]) <= tol)

    def test_converges(self):
        x, F, why = self.solve(lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.0)
        assert why == "converged" and x[0] == pytest.approx(math.sqrt(2.0), abs=1e-12) and abs(F[0]) <= 1e-12

    def test_a_start_that_converges_is_the_start_itself(self):
        x0 = np.array([2.0])
        x, F, why = kinematics.damped_newton(lambda x: x - 2.0, np.diag, x0, lambda F: abs(F[0]) <= 0.0)
        assert why == "converged" and x is x0 and F[0] == 0.0

    def test_a_singular_solve(self):
        x, F, why = self.solve(lambda x: x * x + 1.0, lambda x: 2.0 * x, 0.0)
        assert (why, x[0], F[0]) == ("singular", 0.0, 1.0)

    def test_a_step_that_is_not_finite(self):
        x, _, why = self.solve(lambda x: x + 1.0, lambda x: 1e-320 + 0.0 * x, 0.0)
        assert (why, x[0]) == ("ill-conditioned", 0.0)

    def test_a_stall(self):
        # a Jacobian of the wrong sign: every halving of the step raises |F|
        x, F, why = self.solve(lambda x: x, lambda x: -np.ones_like(x), 1.0)
        assert (why, x[0], F[0]) == ("stall", 1.0, 1.0)

    def test_out_of_iterations(self, monkeypatch):
        # Newton on x^3 shrinks x by 2/3 a step: about 23 steps to |x^3| <= 1e-12 from 1
        monkeypatch.setattr(kinematics, "MAX_ITERATIONS", 5)
        x, F, why = self.solve(lambda x: x ** 3, lambda x: 3.0 * x * x, 1.0)
        assert why == "iterations" and x[0] == pytest.approx((2.0 / 3.0) ** 5, rel=1e-12) and F[0] == x[0] ** 3


class TestSweep:
    def test_crank_rocker_continuity(self, fb_mech):
        pb = sweep_arrays(fb_mech, np.linspace(0.0, 2 * math.pi, 360))
        configurations = pb.configurations()
        assert pb.errors == [None] and len(configurations) == 360
        rockers = np.array([c.pose("rocker").angle for c in configurations])
        assert np.abs(np.diff(rockers)).max() < 0.2
        for c in configurations[::30]:
            assert np.linalg.norm(loop_residual(fb_mech, c)) <= 1e-9

    def test_non_grashof_fails_past_dead_center(self):
        m = fourbar_mechanism(FourBar(6, 3, 2, 4))
        pb = sweep_arrays(m, np.linspace(0.0, 2 * math.pi, 360))
        assert pb.errors[0] is not None
        assert len(pb.configurations()) == pb.failed_at[0]

    def test_configuration_only_at_closed_samples(self):
        m = fourbar_mechanism(FourBar(6, 3, 2, 4))
        pb = sweep_arrays(m, np.linspace(0.0, 2 * math.pi, 360))
        n = int(pb.failed_at[0])
        assert n == 76
        for k in (-1, n, 200, 359):
            with pytest.raises(IndexError):
                pb.configuration(k)
        c = pb.configuration(n - 1)
        assert c.crank_angle == pb.thetas[n - 1] and c.pose("crank").angle == pb.thetas[n - 1]
        values = [v for p in c.poses.values() for v in (p.origin.x, p.origin.y, p.angle)]
        assert all(type(v) is float for v in values)

    def test_degenerate_range(self, fb_mech):
        a, b = sweep_arrays(fb_mech, np.linspace(0.0, 0.0, 2)).configurations()
        for lid in fb_mech.link_ids:
            assert a.pose(lid).angle == b.pose(lid).angle

    @pytest.mark.parametrize("name", ["fourbar", "armwing", "triad"])
    def test_empty_crank_angle_array(self, name, fb_mech, armwing):
        m = {"fourbar": fb_mech, "armwing": armwing, "triad": triad_eight_bar()}[name]
        pb = sweep_arrays(m, np.array([]))
        assert pb.origins.shape == (1, len(m.links), 0, 2) and pb.angles.shape == (1, len(m.links), 0)
        assert pb.failed_at.tolist() == [0] and pb.errors == [None] and pb.configurations() == []

    @pytest.mark.parametrize("thetas, errors", [([], [None]), ([math.pi, 0.0], [NotAssemblableError.code])],
                             ids=["no angles", "first sample open"])
    def test_guessed_sweep_without_a_closed_first_sample(self, thetas, errors):
        # no row has a first sample for the guess to pick a root at: the sweep is the unguessed one
        m = fourbar_mechanism(FourBar(6, 3, 2, 4))  # its crank cannot reach pi
        pb, free = sweep_arrays(m, np.array(thetas), guess=assemble(m, 0.0)), sweep_arrays(m, np.array(thetas))
        assert pb.failed_at.tolist() == [0] and pb.errors == free.errors == errors
        assert pb.origins.tobytes() == free.origins.tobytes() and pb.rotations.tobytes() == free.rotations.tobytes()

    def test_crank_angles_unwrapped(self, fb_mech):
        thetas = np.linspace(0, 2 * math.pi, 90)
        pa = sweep_arrays(fb_mech, thetas)
        crank = pa.angles[0, pa.index("crank")]
        assert np.allclose(np.diff(crank) > 0, True)
        assert crank[-1] == pytest.approx(2 * math.pi, abs=1e-9)


class TestVelocities:
    def test_parallelogram_one_to_one(self):
        m = fourbar_mechanism(FourBar(4, 2, 4, 2))
        c = solve_fourbar(FourBar(4, 2, 4, 2), 0.7)
        vel = velocities(m, c, 2.5)
        assert vel["rocker"][1] == pytest.approx(2.5, abs=1e-9)
        assert vel["crank"][1] == pytest.approx(2.5, abs=1e-12)

    def test_flat_parallelogram_is_singular(self):
        # at theta = 0 all four links of (4, 2, 4, 2) lie on one line: a dead center
        fb = FourBar(4, 2, 4, 2)
        with pytest.raises(SingularJacobianError):
            velocities(fourbar_mechanism(fb), solve_fourbar(fb, 0.0), 1.0)

    def test_zero_rate_zero_velocity(self, fb_example, fb_mech):
        c = solve_fourbar(fb_example, 1.1)
        vel = velocities(fb_mech, c, 0.0)
        for v, w in vel.values():
            assert v.norm() == pytest.approx(0.0, abs=1e-14) and w == 0.0

    def test_finite_difference_oracle(self, fb_example, fb_mech):
        h = 1e-6
        for theta in (0.4, 1.3, 2.9, 4.4):
            c = solve_fourbar(fb_example, theta)
            vel = velocities(fb_mech, c, 1.0)
            cm = solve_fourbar(fb_example, theta - h)
            cp = solve_fourbar(fb_example, theta + h)
            for lid in ("coupler", "rocker"):
                w_fd = (cp.pose(lid).angle - cm.pose(lid).angle) / (2 * h)
                if abs(w_fd) > 1e-6:
                    assert vel[lid][1] == pytest.approx(w_fd, rel=1e-4)

    def test_finite_difference_on_the_shipped_armwing(self, armwing):
        # ground-attached links and links in several joints, against closed-form sweeps at theta +- h
        h = 1e-6
        thetas = 2 * math.pi * np.arange(16) / 16 + 0.1
        pb, lo, hi = (sweep_arrays(armwing, thetas + d) for d in (0.0, -h, h))
        (c_lo, s_lo), (c_hi, s_hi) = np.moveaxis(lo.rotations[0], -1, 0), np.moveaxis(hi.rotations[0], -1, 0)
        w_fd = np.arctan2(s_hi * c_lo - c_hi * s_lo, c_hi * c_lo + s_hi * s_lo) / (2 * h)  # (L, N)
        v_fd = (hi.origins[0] - lo.origins[0]) / (2 * h)  # (L, N, 2)
        assert np.abs(w_fd).max() > 0.5 and np.abs(v_fd).max() > 0.01
        for k in range(len(thetas)):
            vel = velocities(armwing, pb.configuration(k), 1.0)
            for i, lid in enumerate(pb.ids):
                v, w = vel[lid]
                assert w == pytest.approx(w_fd[i, k], rel=1e-6, abs=1e-7)
                assert (v.x, v.y) == pytest.approx(tuple(v_fd[i, k]), rel=1e-6, abs=1e-8)


class TestTransmission:
    def test_oracle_theta0(self, fb_example):
        c = solve_fourbar(fb_example, 0.0)
        assert transmission_angle(fb_example, c) == pytest.approx(MU_6255_T0, abs=1e-10)

    def test_parallelogram_theta90(self):
        fb = FourBar(4, 2, 4, 2)
        c = solve_fourbar(fb, math.pi / 2)
        assert transmission_angle(fb, c) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_folded_to_first_quadrant(self, fb_example, fb_mech):
        thetas = np.linspace(0, 2 * math.pi, 40)
        series = transmission_angle_series(fb_mech, sweep_arrays(fb_mech, thetas), "j_b")
        for theta, mu_series in zip(thetas, series[0]):
            c = solve_fourbar(fb_example, float(theta))
            mu = transmission_angle(fb_example, c)
            assert 0.0 <= mu <= math.pi / 2 + 1e-12
            assert transmission_angle_at(fb_mech, c, "j_b") == pytest.approx(mu, abs=1e-9)
            assert mu_series == pytest.approx(mu, abs=1e-9)

    def test_a_coincident_joint_marker_takes_the_x_axis(self, fb_mech):
        # row 1's coupler joint marker sits 1e-13 above the coupler origin: the span to it (up)
        # is under 1e-12 long, so the angle reads the link's x axis
        table = kinematics.marker_table(fb_mech)
        points = np.repeat(table.points, 2, axis=0)
        points[1, table.columns["coupler", "tip"]] = 1e-13j
        pb = sweep_arrays(fb_mech, 2 * math.pi * np.arange(16) / 16,
                          markers=kinematics.Markers(table.columns, points))
        mu = transmission_angle_series(fb_mech, pb, "j_b")
        rot = kinematics._complex(pb.rotations[1])
        rel = rot[pb.index("rocker")] * np.conj(rot[pb.index("coupler")])  # the rocker's span is its x axis
        assert np.array_equal(mu[1], np.arctan2(np.abs(rel.imag), np.abs(rel.real)))
        alone = sweep_arrays(fb_mech, pb.thetas)
        assert pb.errors[0] is None and np.array_equal(mu[0], transmission_angle_series(fb_mech, alone, "j_b")[0])


class TestMarkerWorld:
    def test_ground_marker_unchanged(self, fb_mech, fb_example):
        c = solve_fourbar(fb_example, 0.5)
        p = marker_world(fb_mech, c, "ground", "tip")
        x, y = sweep_arrays(fb_mech, np.array([0.5])).marker_world(("ground", "tip"))
        assert (p.x, p.y) == (x[0, 0], y[0, 0]) == (6.0, 0.0)

    def test_marker_at_origin_is_link_origin(self, fb_mech, fb_example):
        c = solve_fourbar(fb_example, 0.5)
        p = marker_world(fb_mech, c, "coupler", "origin")
        o = c.pose("coupler").origin
        x, y = sweep_arrays(fb_mech, np.array([0.5])).marker_world(("coupler", "origin"))
        assert (p.x, p.y) == (x[0, 0], y[0, 0]) == (o.x, o.y)

    def test_rotation_identity(self):
        link = Link("l", {"origin": Point2(0, 0), "m": Point2(1, 0)})
        c = Configuration(0.0, {"l": Pose(Point2(0, 0), math.pi / 2)}, Branch.OPEN)
        m = Mechanism((Link("ground", {"origin": Point2(0, 0)}, LinkRole.GROUND), link),
                      (), "ground")
        p = marker_world(m, c, "l", "m")
        assert p.x == pytest.approx(0.0, abs=1e-15) and p.y == pytest.approx(1.0)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.floats(1e-2, 1e2),
           theta=st.floats(0.0, 2 * math.pi))
    def test_scale_equivariance(self, seed, lam, theta):
        fb = random_crank_rocker(np.random.default_rng(seed))
        g, a, b, c = fb.lengths
        cp = fb.coupler_point
        fb2 = FourBar(lam * g, lam * a, lam * b, lam * c,
                      coupler_point=Point2(lam * cp.x, lam * cp.y))
        c1 = solve_fourbar(fb, theta)
        c2 = solve_fourbar(fb2, theta)
        for lid in ("crank", "coupler", "rocker"):
            assert c2.pose(lid).angle == pytest.approx(c1.pose(lid).angle, abs=1e-9)
            o1, o2 = c1.pose(lid).origin, c2.pose(lid).origin
            assert o2.x == pytest.approx(lam * o1.x, rel=1e-9, abs=1e-12)
            assert o2.y == pytest.approx(lam * o1.y, rel=1e-9, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(theta=st.floats(0.0, 2 * math.pi), phi=st.floats(-math.pi, math.pi))
    def test_frame_invariance(self, theta, phi):
        fb_example = FourBar(6.0, 2.0, 5.0, 5.0, coupler_point=Point2(2.5, 1.5))
        fb_mech = fourbar_mechanism(fb_example)
        g = fb_example.g
        ground = Link("ground", {"origin": Point2(0, 0),
                                 "tip": Point2(g * math.cos(phi), g * math.sin(phi))},
                      LinkRole.GROUND)
        m2 = dataclasses.replace(fb_mech, links=(ground,) + fb_mech.links[1:])
        pa1 = sweep_arrays(fb_mech, np.array([theta, theta + 0.1]))
        pa2 = sweep_arrays(m2, np.array([theta + phi, theta + phi + 0.1]))
        assert pa1.errors == pa2.errors == [None]
        R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        for lid in ("crank", "coupler", "rocker"):
            w1 = np.stack(pa1.marker_world((lid, "tip")), axis=-1)
            w2 = np.stack(pa2.marker_world((lid, "tip")), axis=-1)
            assert np.allclose(w2, w1 @ R.T, atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_closure_random_crank_rockers(self, seed):
        rng = np.random.default_rng(seed)
        fb = random_crank_rocker(rng)
        m = fourbar_mechanism(fb)
        pb = sweep_arrays(m, np.linspace(0.0, 2 * math.pi, 64), TOLERANCE)
        assert pb.errors == [None]
        for c in pb.configurations()[::8]:
            assert np.linalg.norm(loop_residual(m, c)) <= TOLERANCE * sum(fb.lengths)


class TestSettings:
    def test_bad_tolerance_rejected(self, fb_mech):
        with pytest.raises(ValueError):
            sweep_arrays(fb_mech, np.zeros(1), 0.0)

    def test_infinite_tolerance_rejected(self, fb_mech):
        # Newton would take any start as converged
        with pytest.raises(ValueError):
            sweep_arrays(fb_mech, np.zeros(1), math.inf)


# ---------------------------------------------------------------------------
# Dyad plan against the Newton path that stays, and its branch contract

# Newton's default tolerance (1e-10 m of residual) allows ~2e-9 rad of angle
# error on the shipped armwing's short links; the reference is held tighter.
NEWTON_REF = 1e-13


def assert_matches_newton(m, thetas):
    pa = sweep_arrays(m, thetas)
    ref = kinematics._newton_sweep_arrays(m, kinematics.marker_table(m), thetas, NEWTON_REF, None)
    assert pa.solver == "dyad" and ref.solver == "newton"
    assert pa.failed_at.tolist() == ref.failed_at.tolist()
    assert pa.ids == ref.ids == [m.ground, *m.moving_link_ids()]
    n = pa.failed_at[0]
    assert np.abs(pa.origins[:, :, :n] - ref.origins[:, :, :n]).max(initial=0.0) <= 1e-9
    assert np.abs(pa.angles[:, :, :n] - ref.angles[:, :, :n]).max(initial=0.0) <= 1e-9
    return pa


# the marker coordinates of the shipped armwing design space plus the membrane's
# trailing root point, as <link>.<marker>.<component>
PERTURBED = ("crank.tip.x", "ground.shoulder.x", "ground.shoulder.y", "humerus.b_pin.x", "humerus.elbow.x",
             "coupler1.b_pin.x", "coupler1.c_pin.x", "coupler1.c_pin.y", "coupler2.tip.x", "forearm.d_pin.x",
             "forearm.d_pin.y", "forearm.tip.x", "ground.trail.x", "ground.trail.y")


def perturbed_armwing(rel) -> Mechanism:
    """The shipped armwing with each PERTURBED coordinate scaled by 1 + rel[i]."""
    m, paths = two_stage_armwing(), [p.split(".") for p in PERTURBED]
    space = DesignSpace(m, tuple(Parameter(f"link.{lid}.marker.{mk}.{c}", -1.0, 1.0) for lid, mk, c in paths))
    nominal = np.array([getattr(m.link(lid).marker(mk), c) for lid, mk, c in paths])
    return space.apply(nominal * (1 + np.array(rel[:len(PERTURBED)])))


# a `rel` hypothesis found for test_perturbed_armwings_match_newton: the (coupler2,
# forearm) dyad's h has a smooth minimum of 4.8e-4 near sample 783 of 1024
NEAR_TANGENT_REL = [0, 0.078125, 0, 0.034977578223443745, 0.10424828342412615, 0, 0, 0.015625] + [0] * 11


class TestDyadPlan:
    @pytest.mark.parametrize("samples", [256, 360])
    def test_shipped_armwing_matches_newton(self, armwing, samples):
        pa = assert_matches_newton(armwing, 2 * math.pi * np.arange(samples) / samples)
        assert pa.errors == [None]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-0.15, 0.15), min_size=19, max_size=19))
    @example(NEAR_TANGENT_REL)
    def test_perturbed_armwings_match_newton(self, rel):
        assert_matches_newton(perturbed_armwing(rel), 2 * math.pi * np.arange(64) / 64)

    @pytest.mark.parametrize("m, lid, coarse", [
        (perturbed_armwing(NEAR_TANGENT_REL), "forearm", (64,)),
        (fourbar_mechanism(FourBar(4, 2, 4, 2.0001)), "rocker", (64, 128)),
    ], ids=["armwing", "near_parallelogram"])
    def test_coarse_sweep_keeps_the_fine_sweeps_root(self, m, lid, coarse):
        # a dyad's h has a smooth minimum near 0 that coarse samples straddle
        fine = sweep_arrays(m, 2 * math.pi * np.arange(1024) / 1024)
        assert fine.errors == [None]
        for n in coarse:
            pa = sweep_arrays(m, 2 * math.pi * np.arange(n) / n)
            assert pa.errors == [None]
            i = pa.index(lid)
            assert np.abs(pa.angles[0, i] - fine.angles[0, i, ::1024 // n]).max() <= 1e-9

    @pytest.mark.parametrize("fb", [FourBar(6, 2, 5, 5), FourBar(4, 2, 4, 2)])
    def test_fourbars_take_the_dyad_path(self, fb):
        pa = sweep_arrays(fourbar_mechanism(fb), np.linspace(0, 2 * math.pi, 64))
        assert pa.solver == "dyad" and pa.errors == [None]

    def test_coincident_pivots_ignore_the_branch(self, fb_mech):
        # ground length zero: not a FourBar, so both requests start on the same root
        m = dataclasses.replace(fb_mech, links=tuple(
            dataclasses.replace(l, markers={**l.markers, "tip": Point2(0.0, 0.0)}) if l.id == "ground" else l
            for l in fb_mech.links))
        thetas = np.linspace(0, 2 * math.pi, 32)
        a, b = (sweep_arrays(m, thetas, branch=br) for br in (Branch.OPEN, Branch.CROSSED))
        assert a.errors == [None] and a.branches == b.branches == [None]
        assert np.array_equal(a.origins, b.origins)

    def test_shipped_armwing_takes_the_dyad_path(self, armwing):
        assert sweep_arrays(armwing, np.linspace(0, 1, 8)).solver == "dyad"

    def test_triad_falls_back_to_newton(self):
        m = triad_eight_bar()
        guess = Configuration(0.0, {l.id: Pose(Point2(0, 0), 0.0) for l in m.links})
        pa = sweep_arrays(m, np.linspace(0.0, 0.3, 16), guess=guess)
        assert pa.solver == "newton" and pa.errors == [None]
        assert coincidence_residual(m, pa) <= 1e-9

    def test_non_grashof_fails_at_first_open_circle(self):
        # g=6, a=3, b=2, c=4: |crank tip - rocker pivot|^2 = 45 - 36 cos(theta)
        # exceeds (b + c)^2 = 36 once cos(theta) < 1/4
        thetas = np.linspace(0.0, 2 * math.pi, 360)
        pa = sweep_arrays(fourbar_mechanism(FourBar(6, 3, 2, 4)), thetas)
        assert pa.solver == "dyad" and pa.errors == [NotAssemblableError.code]
        assert pa.failed_at[0] == int(np.argmax(np.cos(thetas) < 0.25)) == 76
        assert not pa.angles[0, :, pa.failed_at[0]:].any()

    def test_angles_unwrapped_along_the_sweep(self):
        # double-crank: coupler and follower turn a full revolution with the crank
        thetas = np.linspace(0.0, 4 * math.pi, 200)
        pa = sweep_arrays(fourbar_mechanism(FourBar(2, 4, 3.5, 4.5)), thetas)
        assert pa.errors == [None]
        assert np.abs(np.diff(pa.angles, axis=-1)).max() < 0.5
        rocker = pa.angles[0, pa.index("rocker")]
        assert rocker[-1] - rocker[0] == pytest.approx(4 * math.pi, abs=1e-9)

    @pytest.mark.parametrize("branch", list(Branch))
    def test_solve_fourbar_law_of_cosines_oracle(self, branch):
        fb = FourBar(6.0, 2.0, 5.0, 5.0)
        for theta in np.linspace(0.0, 2 * math.pi, 37):
            ax, ay = fb.a * math.cos(theta), fb.a * math.sin(theta)
            d = math.hypot(ax - fb.g, ay)
            beta = math.acos((fb.c ** 2 + d ** 2 - fb.b ** 2) / (2 * fb.c * d))
            psi = math.atan2(ay, ax - fb.g) + (-beta if branch is Branch.OPEN else beta)
            mu = math.atan2(fb.c * math.sin(psi) - ay, fb.g + fb.c * math.cos(psi) - ax)
            c = solve_fourbar(fb, float(theta), branch)
            assert c.branch is branch
            for lid, origin, angle in (("crank", (0, 0), theta), ("coupler", (ax, ay), mu),
                                       ("rocker", (fb.g, 0), psi)):
                p = c.pose(lid)
                turn = (p.angle - angle + math.pi) % (2 * math.pi) - math.pi
                assert abs(turn) <= 1e-12
                assert math.hypot(p.origin.x - origin[0], p.origin.y - origin[1]) <= 1e-12

    def test_guess_picks_the_nearest_root(self, fb_mech, fb_example):
        thetas = np.linspace(0.5, 1.5, 11)
        crossed = solve_fourbar(fb_example, 0.5, Branch.CROSSED)
        pa = sweep_arrays(fb_mech, thetas, guess=crossed)
        assert pa.branches == [Branch.CROSSED]
        ref = sweep_arrays(fb_mech, thetas, branch=Branch.CROSSED)
        assert np.allclose(pa.origins, ref.origins, rtol=0, atol=1e-12)

    def test_guess_roots_and_turns_on_the_armwing(self, armwing):
        thetas = np.linspace(0.3, 0.6, 8)
        first, second = bootstrap_candidates(armwing, 0.3)[:2]
        for guess in (first, second):
            # a whole turn added to one link's guessed angle carries into the sweep
            poses = dict(guess.poses)
            h = poses["humerus"]
            poses["humerus"] = Pose(h.origin, h.angle + 2 * math.pi)
            pa = sweep_arrays(armwing, thetas, guess=Configuration(0.3, poses))
            assert pa.solver == "dyad" and pa.errors == [None]
            start = pa.configuration(0)
            for lid, p in poses.items():
                assert start.pose(lid).angle == pytest.approx(p.angle, abs=1e-12)
                assert (start.pose(lid).origin - p.origin).norm() <= 1e-12

    def test_guess_at_change_point_is_ambiguous(self):
        fb = FourBar(4, 2, 4, 2)
        guess = solve_fourbar(fb, 0.0)
        with pytest.raises(BranchAmbiguousError):
            sweep_arrays(fourbar_mechanism(fb), np.linspace(0.0, 1.0, 8), guess=guess)

    @pytest.mark.parametrize("thetas", [np.arange(361) * math.pi / 180, 2 * math.pi * np.arange(63) / 63,
                                        2 * math.pi * np.arange(129) / 129], ids=["361", "63", "129"])
    def test_parallelogram_flips_at_its_change_point(self, monkeypatch, thetas):
        # h = 0 at theta = 0 and pi, where the coupler-rocker triangle turns inside
        # out: the rocker tracks the crank only if the root flips there, a sample at pi
        # or not (an odd grid's samples near pi do not show h^2 reaching 0)
        signs, follow = [], kinematics._follow_roots

        def recorded(*args):
            signs.append(follow(*args))
            return signs[-1]

        monkeypatch.setattr(kinematics, "_follow_roots", recorded)
        pa = sweep_arrays(fourbar_mechanism(FourBar(4, 2, 4, 2)), thetas)
        assert len(signs) == 1
        [k] = np.flatnonzero(np.diff(signs[0][0])) + 1
        assert thetas[k - 2] < math.pi < thetas[k + 1]
        assert pa.errors == [None]
        assert np.abs(pa.angles[0, pa.index("rocker")] - thetas).max() <= 1e-12

    @pytest.mark.parametrize("branch", list(Branch))
    def test_change_point_fourbar_keeps_the_requested_branch(self, branch):
        # (4, 2, 5, 3) lies folded flat at theta = 0 (h = 0), its only meeting, at the
        # sweep's ends: each sample is the requested branch's one-sample sweep
        m, thetas = fourbar_mechanism(FourBar(4, 2, 5, 3)), np.linspace(0.0, 2 * math.pi, 90)
        pa = sweep_arrays(m, thetas, branch=branch)
        assert pa.errors == [None] and pa.branches == [branch]
        for k in range(90):
            one = sweep_arrays(m, thetas[k:k + 1], branch=branch)
            assert np.array_equal(pa.rotations[0, :, k], one.rotations[0, :, 0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans(), st.data())
    def test_rows_keep_their_sign_between_candidates(self, rows, n, seed, smooth, data):
        rng = np.random.default_rng(seed)
        k = np.arange(n)
        if smooth:  # slowly turning roots whose gap may close: few minima near 0
            base = np.cumsum(0.1 * rng.standard_normal((2, rows, n)), axis=-1)
            r = rng.uniform(-1, 1, (rows, 1)) + rng.uniform(-0.1, 0.1, (rows, 1)) * k
            phi = rng.uniform(-3, 3, (rows, 1)) + rng.uniform(-0.2, 0.2, (rows, 1)) * k
            offset = (r * np.cos(phi), r * np.sin(phi))
        else:  # small integers: zeros, ties and minima everywhere
            base, offset = rng.integers(-2, 3, (2, 2, rows, n)).astype(float)
        n_ok = np.array(data.draw(st.lists(st.integers(0, n), min_size=rows, max_size=rows)))
        s = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=rows, max_size=rows)))
        base, offset = base[0] + 1j * base[1], offset[0] + 1j * offset[1]
        flat = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
        hh = np.abs(offset) ** 2
        sign = kinematics._follow_roots(base, offset, hh, n_ok, s, flat)
        for b in range(rows):
            h2, m = hh[b].tolist(), int(n_ok[b])
            # interior minima of h^2 whose three-point parabola reaches 0 (any, on a flat
            # row), the next sample closing; and a flat row's last sample, if lowest, as N - 2
            candidates = [j for j in range(1, m - 1) if h2[j] <= min(h2[j - 1], h2[j + 1]) and (
                flat[b] or h2[j] <= 0.0 or 8.0 * (h2[j - 1] + h2[j + 1] - 2.0 * h2[j]) * h2[j]
                < (h2[j + 1] - h2[j - 1]) * (h2[j + 1] - h2[j - 1]))]
            candidates += [n - 2] if flat[b] and m == n > 2 and h2[-1] <= h2[-2] else []
            flips = set(np.flatnonzero(np.diff(sign[b, :m])) + 1)
            assert flips <= {j + d for j in candidates for d in (0, 1)}
            if m:
                assert sign[b, 0] == s[b]
            assert np.all(sign[b, m:] == 1.0)

    def test_candidates_take_the_continuity_choice(self):
        # joints at signed distance y from a centre line moving along x, roots +-i|y|:
        # row 0 crosses the line at sample 3 (h = 0); row 1 comes within 0.1 of it at
        # sample 3, a candidate, and turns back; row 2 is row 0 mirrored, starting on
        # the + root and closing at its first 6 samples. Rows 3 and 4 cross between
        # samples 3 and 4, where the parabola of h^2 only touches 0, and rows 5 and 6
        # between samples 6 and 7: only the flat rows 3 and 5 see these crossings
        k = np.arange(8)
        y = np.array([(k - 3) / 4, [-0.5, -0.3, -0.19, -0.1, -0.4, -0.8, -1.2, -1.6], (3 - k) / 4,
                      (k - 3.5) / 4, (k - 3.5) / 4, (k - 6.6) / 4, (k - 6.6) / 4])
        base, offset = np.broadcast_to(0.1 * k, y.shape), 1j * np.abs(y)
        flat = np.array([False] * 3 + [True, False] * 2)
        sign = kinematics._follow_roots(base, offset, y * y, np.array([8, 8, 6, 8, 8, 8, 8]),
                                        np.array([-1.0, -1.0, 1.0, -1.0, -1.0, -1.0, -1.0]), flat)
        assert sign.tolist() == [[-1.0] * 4 + [1.0] * 4, [-1.0] * 8, [1.0] * 4 + [-1.0] * 2 + [1.0] * 2,
                                 [-1.0] * 4 + [1.0] * 4, [-1.0] * 8, [-1.0] * 7 + [1.0], [-1.0] * 8]


class TestRotationForm:
    """Sweeps store link rotations; link angles are derived only when asked for."""

    def test_a_whole_turn_in_the_guess_moves_only_the_angles(self, armwing):
        thetas = 2 * math.pi * np.arange(64) / 64
        guess = sweep_arrays(armwing, thetas[:1]).configuration(0)
        fixed = (armwing.ground, armwing.actuated_joint().other(armwing.ground))
        turned = Configuration(guess.crank_angle, {
            lid: Pose(p.origin, p.angle + (0.0 if lid in fixed else 2 * math.pi)) for lid, p in guess.poses.items()})
        a, b = sweep_arrays(armwing, thetas, guess=guess), sweep_arrays(armwing, thetas, guess=turned)
        assert a.errors == b.errors == [None]
        assert np.array_equal(a.origins, b.origins) and np.array_equal(a.rotations, b.rotations)
        for l in armwing.links:
            for k in l.markers:
                assert np.array_equal(a.marker_world((l.id, k)), b.marker_world((l.id, k)))
        turn = (b.angles - a.angles) / (2 * math.pi)
        moving = [i for i, lid in enumerate(a.ids) if lid not in fixed]
        assert np.abs(turn[:, moving] - 1.0).max() <= 1e-14
        assert not turn[:, [a.index(lid) for lid in fixed]].any()

    def test_ground_sits_at_the_identity_wherever_its_origin_marker_is(self, armwing):
        # every ground marker moved by the same offset: the chain moves with it
        ground, shift = armwing.link(armwing.ground), Point2(0.01, -0.02)
        moved = dataclasses.replace(ground, markers={k: p + shift for k, p in ground.markers.items()})
        m = dataclasses.replace(armwing, links=tuple(moved if l.id == ground.id else l for l in armwing.links))
        thetas = 2 * math.pi * np.arange(16) / 16
        pb, ref = sweep_arrays(m, thetas), sweep_arrays(armwing, thetas)
        assert pb.errors == [None]
        assert not pb.origins[:, 0].any() and (pb.rotations[:, 0] == (1.0, 0.0)).all()
        assert np.abs(pb.origins[:, 1:] - ref.origins[:, 1:] - (shift.x, shift.y)).max() <= 1e-15
        assert all(c.pose(m.ground) == Pose(Point2(0.0, 0.0), 0.0) for c in bootstrap_candidates(m, 0.3))

    @pytest.mark.parametrize("rows, n", [(1, 1), (3, 7), (16, 128), (75, 128)])
    def test_turn_and_over_divide_bit_for_bit(self, rows, n):
        # numpy's complex / real division, signed zeros included, on draws with zeros of both signs
        rng = np.random.default_rng(rows * 1000 + n)

        def draw(shape):
            part = rng.standard_normal((2, *shape)) * 10.0 ** rng.integers(-8, 9, (2, *shape))
            part[rng.random(part.shape) < 0.25] = 0.0
            part[rng.random(part.shape) < 0.25] = -0.0
            return part[0] + 1j * part[1]

        for _ in range(20):
            w, z, unit_conj = draw((rows, n)), draw((rows, n)), np.conj(draw((rows, 1)))
            length = np.abs(w)  # 0 where w is a zero of either sign
            zero = length == 0.0
            block = np.empty((rows, 3, n), dtype=complex)  # `_turn` writes a strided slot of a pose block
            kinematics._turn(w, length, unit_conj, block[:, 1])
            assert block[:, 1].tobytes() == np.divide((w + zero) * unit_conj, length + zero).tobytes()
            r = np.abs(z) + rng.random((rows, n))  # positive, as the dyad step's d is
            assert kinematics._over(z, r).tobytes() == np.divide(z, r).tobytes()

    def test_derived_angles_turn_the_rotations(self, armwing):
        pb = sweep_arrays(armwing, 2 * math.pi * np.arange(256) / 256)
        c, s = pb.rotations[..., 0], pb.rotations[..., 1]
        assert np.abs(np.hypot(c, s) - 1.0).max() <= 1e-15  # unit to a few ulps
        assert np.abs(np.cos(pb.angles) - c).max() <= 1e-14 and np.abs(np.sin(pb.angles) - s).max() <= 1e-14
        assert np.array_equal(pb.angles[0, pb.index("crank")], pb.thetas)
        assert np.abs(np.diff(pb.angles, axis=-1)).max() < 0.5  # unwrapped

    def test_costs_gait_and_aero_never_derive_angles(self, monkeypatch):
        def derived(self):
            raise AssertionError("PoseBatch.angles was computed")

        monkeypatch.setattr(kinematics.PoseBatch, "angles", property(derived))
        data = Path(kinematics.__file__).parent / "data"
        space, spec, x = recovery_space()
        lo, hi = space.bounds()
        X = np.vstack([x, lo + np.random.default_rng(0).random((7, space.dim)) * 3 * (hi - lo)])
        assert (population_costs(space, spec, X) >= 1e6).any()  # failed rows included
        arm_space = _load_space(str(data / "armwing_space.json"))
        lo, hi = arm_space.bounds()
        assert population_costs(arm_space, _load_spec(str(data / "armwing_spec.json")), 0.5 * (lo + hi)[None]) < 1e5
        path = str(data / "armwing.json")
        assert run_cli(["gait", path, "--period", "0.1", "--samples", "64", "--metrics",
                        "--transmission-joint", "j_b", "--transmission-joint", "j_d"])[0] == 0
        assert run_cli(["aero", path, "--period", "0.1", "--freestream", "3", "--samples", "64"])[0] == 0


class TestBatchRows:
    """Row b of a batch sweep is the sweep of the b-th mechanism alone, bit for bit."""

    def test_newton_rows_that_fail_are_rows_swept_alone(self):
        # the pinned triad block holds rows that close, stop partway, and fail at the first
        # sample, one of them (l3 with both pins on its origin) with an exactly singular
        # Jacobian, on which `np.linalg.solve` raises
        X, thetas, space = np.load(PINNED / "pinned_triad.npz")["X"], triad_thetas(), triad_space()
        pb = sweep_arrays(space.template, thetas, markers=space.markers(X))
        assert {None, "NO_CONVERGENCE", "SINGULAR_JACOBIAN"} == set(pb.errors)
        assert {0, len(thetas)} < set(pb.failed_at.tolist())
        alone = [sweep_arrays(space.apply(x), thetas) for x in X]
        for b, one in enumerate(alone):
            assert np.array_equal(pb.origins[b], one.origins[0]) and np.array_equal(pb.rotations[b], one.rotations[0])
            assert (pb.failed_at[b], pb.errors[b]) == (one.failed_at[0], one.errors[0])
        rows = [7, 1, 6, 0]  # the singular row, then rows stopping at 82 and 70, then a closed one
        sub = sweep_arrays(space.template, thetas, markers=space.markers(X[rows]))
        assert np.array_equal(sub.origins, pb.origins[rows]) and np.array_equal(sub.rotations, pb.rotations[rows])
        assert sub.failed_at.tolist() == pb.failed_at[rows].tolist()

    def test_newton_rows_that_differ_only_off_the_joints(self):
        # a wingtip no joint uses: the joints' markers are one float for every row
        closing = DesignSpace(triad_eight_bar(), (Parameter("link.crank.marker.tip.x", 0.5, 0.7),)).apply([0.6])
        t = closing.link("t")
        m = dataclasses.replace(
            closing, links=tuple(dataclasses.replace(l, markers={**l.markers, "w": Point2(6.0, 4.0)})
                                 if l is t else l for l in closing.links),
            shoulder=("ground", "origin"), wingtip=("t", "w"), wing_polygon=(("ground", "origin"), ("t", "w"), ("t", "p")))
        space = DesignSpace(m, (Parameter("link.t.marker.w.x", 5.0, 7.0), Parameter("link.t.marker.w.y", 3.0, 5.0)))
        X = np.array([[5.0, 3.0], [6.0, 4.0], [7.0, 5.0], [5.5, 4.5]])
        thetas = 2 * math.pi * np.arange(32) / 32
        pb = sweep_arrays(m, thetas, markers=space.markers(X))
        assert pb.solver == "newton" and pb.origins.shape[0] == len(X) and (pb.failed_at == len(thetas)).all()
        for b, x in enumerate(X):
            one = sweep_arrays(space.apply(x), thetas)
            assert np.array_equal(pb.origins[b], one.origins[0]) and np.array_equal(pb.rotations[b], one.rotations[0])
        spec = GaitSpec(plunge_amplitude=0.5, extension_range=(0.6, 1.0))
        costs = population_costs(space, spec, X, samples=32)
        assert len(set(costs.tolist())) == len(X)
        assert costs.tolist() == [population_costs(space, spec, x[None], samples=32)[0] for x in X]

    def test_rows_from_a_guess_are_one_mechanism_sweeps_from_it(self, fb_mech):
        # a row's own joint marker, placed by the guess, picks its start root: the coupler
        # frames of rows 2 and 4 are turned so far that it lies nearer the crossed root
        space = DesignSpace(fb_mech, (Parameter("link.coupler.marker.tip.x", -5.5, 5.5),
                                      Parameter("link.coupler.marker.tip.y", -5.5, 5.5)))
        thetas = 0.3 + 2 * math.pi * np.arange(16) / 16
        guess = sweep_arrays(fb_mech, thetas[:1]).configuration(0)
        X = np.array([[5.0, 0.0], [0.0, 5.0], [-3.0, 4.0], [3.0, -4.0], [0.0, -5.0]])
        pb = sweep_arrays(fb_mech, thetas, guess=guess, markers=space.markers(X))
        assert pb.branches == [Branch.OPEN, Branch.OPEN, Branch.CROSSED, Branch.OPEN, Branch.CROSSED]
        for b, x in enumerate(X):
            one = sweep_arrays(space.apply(x), thetas, guess=guess)
            assert np.array_equal(pb.origins[b], one.origins[0]) and np.array_equal(pb.rotations[b], one.rotations[0])
            assert pb.branches[b] == one.branches[0]

    @pytest.mark.parametrize("mechanism", ["armwing", "fourbar"])
    def test_samples_are_one_sample_sweeps(self, mechanism, armwing, fb_mech):
        # the same arithmetic whatever the block shape: numpy takes an in-place
        # complex product on a single element without fusing its multiply-add
        m = armwing if mechanism == "armwing" else fb_mech
        thetas = np.sort(np.random.default_rng(5).uniform(0.0, 2 * math.pi, 24))
        pb = sweep_arrays(m, thetas)
        assert pb.errors == [None]
        for k, theta in enumerate(thetas):
            one = sweep_arrays(m, np.array([theta]))
            assert pb.origins[:, :, k].tobytes() == one.origins[:, :, 0].tobytes()
            assert pb.rotations[:, :, k].tobytes() == one.rotations[:, :, 0].tobytes()

    @pytest.mark.parametrize("space, solver, box, rows, n, fails", [
        pytest.param("recovery", "dyad", 1.0, 300, 128, False, id="dyad-1.0-300-128"),
        pytest.param("recovery", "dyad", 3.0, 300, 128, True, id="dyad-3.0-300-128"),  # about a third fail
        pytest.param("triad", "newton", 1.0, 4, 32, False, id="newton-1.0-4-32"),
        # the shipped armwing's two-dyad plan, where half the rows of its box fail
        pytest.param("armwing", "dyad", 1.0, 60, 64, True, id="armwing-dyad-1.0-60-64"),
        pytest.param("recovery", "dyad", 1.0, 1, 1, False, id="dyad-1.0-1-1"),
    ])
    def test_rows_are_one_mechanism_sweeps(self, space, solver, box, rows, n, fails):
        if space == "triad":
            space = DesignSpace(triad_eight_bar(), (Parameter("link.crank.marker.tip.x", 0.5, 0.7),
                                                    Parameter("link.d1.marker.b.y", 5.3, 5.7)))
        else:
            space = recovery_space()[0] if space == "recovery" else \
                _load_space(str(Path(kinematics.__file__).parent / "data" / "armwing_space.json"))
        lo, hi = space.bounds()
        half = 0.5 * box * (hi - lo)
        X = 0.5 * (lo + hi) - half + np.random.default_rng(4).random((rows, space.dim)) * 2 * half
        thetas = 2 * math.pi * np.arange(n) / n
        pb = sweep_arrays(space.template, thetas, markers=space.markers(X))
        assert pb.solver == solver and (pb.failed_at < n).any() == fails
        for b, x in enumerate(X):
            one = sweep_arrays(space.apply(x), thetas)
            assert np.array_equal(pb.origins[b], one.origins[0]) and np.array_equal(pb.rotations[b], one.rotations[0])
            assert np.array_equal(pb.angles[b], one.angles[0])
            assert (pb.failed_at[b], pb.errors[b], pb.branches[b]) == \
                (one.failed_at[0], one.errors[0], one.branches[0])


def solver_outputs(m: Mechanism, theta: float, load: LoadCase) -> list:
    """The bytes, or the error, of m's Newton sweep from theta, `assemble` at
    theta without and then with a guess, `velocities` at the equilibrium and
    `solve_equilibrium` under load, with the link ids they are keyed by."""
    def poses(c):
        return list(c.poses), np.array([(p.origin.x, p.origin.y, p.angle) for p in c.poses.values()]).tobytes()

    def newton_sweep():
        thetas = theta + 2 * math.pi * np.arange(32) / 32
        pb = kinematics._newton_sweep_arrays(m, kinematics.marker_table(m), thetas, TOLERANCE, None)
        return pb.ids, pb.crank, pb.origins.tobytes(), pb.rotations.tobytes(), pb.failed_at.tolist(), pb.errors

    def velocity():
        v = velocities(m, solve_equilibrium(m, theta, load), 1.5)
        return [(lid, p.x, p.y, w) for lid, (p, w) in v.items()]

    outputs = []
    for solve in (newton_sweep, lambda: poses(assemble(m, theta)),
                  lambda: poses(assemble(m, theta + 0.05, assemble(m, theta))), velocity,
                  lambda: poses(solve_equilibrium(m, theta, load))):
        try:
            outputs.append(solve())
        except FlapkinError as e:
            outputs.append(repr(e))
    return outputs


class TestGroundOrder:
    """Where the ground is declared in `links` changes no result: the solvers
    compile every topology with the ground's pose slot first."""

    @pytest.mark.parametrize("name", ["triad", "armwing", "two-hinge-chain"])
    def test_ground_declared_last(self, name):
        m, theta, load = {
            "triad": (triad_eight_bar(), 0.3, LoadCase(forces=(("d1", "b", Point2(0.0, -1.0)),))),
            "armwing": (two_stage_armwing(), 0.7, LoadCase(forces=(("forearm", "tip", Point2(0.3, -0.2)),))),
            "two-hinge-chain": (two_hinge_chain(), 0.0, LoadCase(forces=(("fore", "tip", Point2(0.0, 0.1)),))),
        }[name]
        last = dataclasses.replace(m, links=(*(l for l in m.links if l.id != m.ground), m.link(m.ground)))
        assert last.links[-1].id == m.ground != m.links[-1].id
        got, want = solver_outputs(last, theta, load), solver_outputs(m, theta, load)
        assert got == want
        # the open chain has no crank to sweep, assemble or differentiate; both closed chains solve everything
        assert sum(isinstance(o, str) for o in want) == (4 if name == "two-hinge-chain" else 0)


class TestTopologyCache:
    """A topology's compiled plan is kept, at most 64 at a time, and one built again is the same."""

    @staticmethod
    def renamed(k: int) -> Mechanism:
        """The (6, 2, 5, 5) four-bar with its coupler-rocker joint renamed: a topology of its own."""
        m = fourbar_mechanism(FourBar(6, 2, 5, 5))
        return dataclasses.replace(m, joints=tuple(dataclasses.replace(j, id=f"j_b{k}") if j.id == "j_b" else j
                                                   for j in m.joints))

    def test_the_65th_topology_clears_the_cache(self):
        built = []
        cached = mechanism.per_topology(lambda m: built.append(m) or len(built))
        ms = [self.renamed(k) for k in range(65)]
        assert [cached(m) for m in ms] == list(range(1, 66))
        assert [cached(ms[64]), cached(ms[0]), cached(ms[0])] == [65, 66, 66]

    def test_a_plan_built_again_sweeps_the_same(self):
        thetas = 2 * math.pi * np.arange(32) / 32
        ms = [self.renamed(k) for k in range(65)]
        first = sweep_arrays(ms[0], thetas)
        for m in ms[1:]:  # more topologies than the cache keeps: the first one's plan is dropped
            sweep_arrays(m, thetas)
        again = sweep_arrays(ms[0], thetas)
        assert again.errors == first.errors == [None]
        assert again.origins.tobytes() == first.origins.tobytes()
        assert again.rotations.tobytes() == first.rotations.tobytes()
