"""Pseudo-rigid-body hinges: stiffness, energy, quasi-static equilibrium."""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from flapkin import compliance, kinematics
from flapkin.compliance import (
    HingeGeometry,
    LoadCase,
    _lagrange_newton,
    _Potential,
    elastic_energy,
    hinge_deflection,
    hinge_stiffness,
    solve_equilibrium,
    stationarity,
    total_potential,
)
from flapkin.errors import ConvergenceError, LargeDeflectionWarning, SingularJacobianError
from flapkin.geometry import Point2, Pose
from flapkin.kinematics import (
    TOLERANCE,
    Configuration,
    ConstraintSystem,
    assemble,
    solve_fourbar,
    start_block,
)
from flapkin.mechanism import CompliantHinge, FourBar, Joint, Link, LinkRole, Mechanism, fourbar_mechanism

from conftest import bootstrap_candidates, relative_joint_angle, triad_eight_bar, two_hinge_chain


def single_hinge_chain(k: float = 0.144, arm: float = 0.05) -> Mechanism:
    ground = Link("ground", {"origin": Point2(0.0, 0.0)}, LinkRole.GROUND)
    link = Link("arm", {"origin": Point2(0.0, 0.0), "tip": Point2(arm, 0.0)})
    j = Joint("h", "ground", "origin", "arm", "origin", CompliantHinge(stiffness=k))
    return Mechanism((ground, link), (j,), "ground")


def free_crank(m: Mechanism) -> Mechanism:
    """m with no actuated joint: its crank turns freely, one unknown more than
    it has constraint rows."""
    return dataclasses.replace(m, joints=tuple(dataclasses.replace(j, actuated=False) for j in m.joints))


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

    def test_a_failed_start_moves_on_to_the_next(self, armwing, monkeypatch):
        # the crank left free: not square, so each start runs Lagrange-Newton
        m, starts = free_crank(armwing), []

        def first_start_fails(sys, pot, q, theta):
            starts.append(q)
            if len(starts) == 1:
                raise ConvergenceError("the first start fails")
            return _lagrange_newton(sys, pot, q, theta)

        monkeypatch.setattr(compliance, "_lagrange_newton", first_start_fails)
        c = solve_equilibrium(m, 1.1, LoadCase())
        assert len(starts) == 2 and not np.array_equal(starts[0], starts[1])
        sys = ConstraintSystem(m)
        q = _lagrange_newton(sys, _Potential(m, LoadCase(), sys), starts[1], 1.1)
        assert np.array_equal(sys.q_from(c), q)

    def test_every_start_failing_raises_the_last_error(self, armwing, monkeypatch):
        m, starts = free_crank(armwing), []

        def every_start_fails(sys, pot, q, theta):
            starts.append(q)
            raise ConvergenceError(f"start {len(starts)} fails")

        monkeypatch.setattr(compliance, "_lagrange_newton", every_start_fails)
        tried = int(start_block(ConstraintSystem(m), 1.1)[1].sum())
        assert tried > 1
        with pytest.raises(ConvergenceError, match=f"^start {tried} fails$"):
            solve_equilibrium(m, 1.1, LoadCase())
        assert len(starts) == tried

    def test_a_square_chain_moves_on_from_a_start_newton_fails_on(self, monkeypatch):
        # a triad's starts do not close, so each runs kinematic Newton as `assemble` runs it
        m, load, calls = triad_eight_bar(), LoadCase(forces=(("d1", "b", Point2(0.0, -1.0)),)), []
        newton = kinematics._newton

        def first_start_fails(sys, q, theta, tol):
            calls.append(q)
            if len(calls) == 1:
                return q, ConvergenceError.code
            return newton(sys, q, theta, tol)

        monkeypatch.setattr(kinematics, "_newton", first_start_fails)
        c = solve_equilibrium(m, 0.3, load)
        sys = ConstraintSystem(m)
        assert len(calls) == 2 and np.array_equal(calls[1], start_block(sys, 0.3)[0][1])
        root, _ = newton(sys, calls[1], 0.3, TOLERANCE)
        assert np.array_equal(sys.q_from(c), root)

    def test_a_square_chain_with_every_start_failing_raises_the_last_code(self, monkeypatch):
        m, calls = triad_eight_bar(), []

        def every_start_fails(sys, q, theta, tol):
            calls.append(q)
            return q, SingularJacobianError.code if len(calls) == tried else ConvergenceError.code

        monkeypatch.setattr(kinematics, "_newton", every_start_fails)
        tried = int(start_block(ConstraintSystem(m), 0.3)[1].sum())
        assert tried > 1
        with pytest.raises(ConvergenceError, match=r"^no start closes at theta=0\.3 \(SINGULAR_JACOBIAN\)$"):
            solve_equilibrium(m, 0.3, LoadCase())
        assert len(calls) == tried

    def test_out_of_iterations_is_no_convergence(self, monkeypatch):
        m = two_hinge_chain()
        load = LoadCase(forces=(("fore", "tip", Point2(0.0, 0.15)),))
        solve_equilibrium(m, 0.0, load)  # converges within the full iteration count
        monkeypatch.setattr(kinematics, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="equilibrium did not converge"):
            solve_equilibrium(m, 0.0, load)

    def test_an_unsprung_pin_under_a_moment_is_a_singular_kkt_system(self):
        # nothing holds the arm's angle against the moment: the Hessian's angle row is zero
        ground = Link("ground", {"origin": Point2(0.0, 0.0)}, LinkRole.GROUND)
        arm = Link("arm", {"origin": Point2(0.0, 0.0), "tip": Point2(0.05, 0.0)})
        m = Mechanism((ground, arm), (Joint("h", "ground", "origin", "arm", "origin"),), "ground")
        with pytest.raises(ConvergenceError, match=r"^singular KKT system at theta=0$"):
            solve_equilibrium(m, 0.0, LoadCase(moments=(("h", 0.01),)))

    def test_total_potential_of_a_pure_moment(self):
        # elastic energy minus the moment times the relative angle of the joint's links
        from flapkin.kinematics import Branch

        k, moment, angle = 0.144, 0.0144, 0.1
        m = single_hinge_chain(k=k)
        c = Configuration(0.0, {"ground": Pose(Point2(0, 0), 0.0),
                                "arm": Pose(Point2(0, 0), angle)}, Branch.OPEN)
        v = total_potential(m, LoadCase(moments=(("h", moment),)), c)
        assert v == pytest.approx(0.5 * k * angle ** 2 - moment * angle, rel=1e-12)

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


def reference_equilibrium(m: Mechanism, theta: float, load: LoadCase) -> Configuration:
    """`solve_equilibrium` without a guess, run from Configuration starts: each
    `bootstrap_candidates` entry in turn through `q_from` and
    `_lagrange_newton`, then a LargeDeflectionWarning per hinge past pi/2."""
    sys = ConstraintSystem(m)
    pot = _Potential(m, load, sys)
    for start in bootstrap_candidates(m, theta):
        try:
            q = _lagrange_newton(sys, pot, sys.q_from(start), theta)
            break
        except ConvergenceError as e:
            error = e
    else:
        raise error
    c = sys.config_from(q, theta)
    for j in m.joints:
        if isinstance(j.kind, CompliantHinge):
            d = hinge_deflection(c.pose(j.link_a).angle, c.pose(j.link_b).angle, j.kind.rest_angle)
            if abs(d) > math.pi / 2:
                warnings.warn(f"hinge {j.id!r} deflection {d:.3f} rad exceeds pi/2", LargeDeflectionWarning)
    return c


def _outcome(solve) -> tuple:
    """(pose bytes or the error, warnings) of one solve."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            c = solve()
            result = np.array([(p.origin.x, p.origin.y, p.angle) for p in c.poses.values()]).tobytes()
        except ConvergenceError as e:
            result = repr(e)
    return result, [(w.category, str(w.message)) for w in caught]


def _pinned_cases(armwing: Mechanism):
    rng = np.random.default_rng(14)
    for theta, a in zip(2 * math.pi * np.arange(64) / 64, rng.uniform(0.0, 2 * math.pi, 64)):
        tip = Point2(0.5 * math.cos(a), 0.5 * math.sin(a))
        yield armwing, float(theta), LoadCase(forces=(("forearm", "tip", tip),))
    yield single_hinge_chain(k=0.144), 0.0, LoadCase(moments=(("h", 0.0144),))
    yield single_hinge_chain(k=0.1), 0.0, LoadCase(moments=(("h", 0.2),))
    for force in ((0.0, 0.15), (0.0, 0.02), (0.0, 0.04), (0.01, 0.1), (0.0, 0.1)):
        yield two_hinge_chain(), 0.0, LoadCase(forces=(("fore", "tip", Point2(*force)),))


def test_equilibria_pinned_to_configuration_starts(armwing):
    """Bit for bit the equilibria, errors and warnings of the Configuration-start loop."""
    warned = 0
    for m, theta, load in _pinned_cases(armwing):
        got = _outcome(lambda: solve_equilibrium(m, theta, load))
        assert got == _outcome(lambda: reference_equilibrium(m, theta, load)), (theta, load)
        warned += bool(got[1])
    assert warned  # the large-deflection case is among them


def test_square_chain_equilibria_are_lagrange_newtons_bit_for_bit(armwing, monkeypatch):
    """The armwing with its drive row is square: over seeded draws of crank
    angle and tip load, its equilibrium, errors and warnings are those of the
    Lagrange-Newton start loop, which never runs on it."""
    calls = []
    monkeypatch.setattr(compliance, "_lagrange_newton", lambda *args: calls.append(args) or _lagrange_newton(*args))
    for theta, a in np.random.default_rng(28).uniform(0.0, 2 * math.pi, (200, 2)).tolist():
        load = LoadCase(forces=(("forearm", "tip", Point2(0.5 * math.cos(a), 0.5 * math.sin(a))),))
        got = _outcome(lambda: solve_equilibrium(armwing, theta, load))
        assert got == _outcome(lambda: reference_equilibrium(armwing, theta, load)), theta
    assert not calls


def test_lagrange_newton_runs_only_on_chains_that_are_not_square(monkeypatch):
    calls = []
    monkeypatch.setattr(compliance, "_lagrange_newton", lambda *args: calls.append(args) or _lagrange_newton(*args))
    solve_equilibrium(triad_eight_bar(), 0.3, LoadCase(forces=(("d1", "b", Point2(0.0, -1.0)),)))
    solve_equilibrium(fourbar_mechanism(FourBar(6, 2, 5, 5)), 1.0, LoadCase(moments=(("j_a", 0.1),)))
    assert not calls
    solve_equilibrium(two_hinge_chain(), 0.0, LoadCase(forces=(("fore", "tip", Point2(0.0, 0.1)),)))
    assert len(calls) == 1


def test_a_triad_equilibrium_is_the_assembled_pose():
    """Square but not dyadic: the pose is Newton's, as `assemble` finds it,
    and where `assemble` fails (crank angles 14-19 of 24) so does the solve."""
    m, load = triad_eight_bar(), LoadCase(forces=(("d1", "b", Point2(0.0, -1.0)),))
    failed = []
    for k in range(24):
        theta = 2 * math.pi * k / 24
        try:
            want = assemble(m, theta)
        except ConvergenceError:
            failed.append(k)
            with pytest.raises(ConvergenceError, match="no start closes"):
                solve_equilibrium(m, theta, load)
            continue
        c = solve_equilibrium(m, theta, load)
        assert c == want, k
        pg, closure = stationarity(m, load, c, theta)
        assert pg <= 1e-8 and closure <= 1e-8, k
    assert failed == list(range(14, 20))


@pytest.mark.parametrize("theta", [0.0, math.pi])
def test_a_loaded_chain_at_a_singular_pose_has_no_equilibrium(theta):
    """The parallelogram's crank lies along its ground: J is singular (exactly
    so at 0), so no multipliers hold a moment on the coupler pin, while the
    unloaded pose stays an equilibrium."""
    m = fourbar_mechanism(FourBar(4, 2, 4, 2))
    with pytest.raises(ConvergenceError, match="singular constraint Jacobian"):
        solve_equilibrium(m, theta, LoadCase(moments=(("j_a", 0.1),)))
    c = solve_equilibrium(m, theta, LoadCase())
    assert stationarity(m, LoadCase(), c, theta)[0] == 0.0
