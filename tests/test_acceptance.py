"""Acceptance suite: one test per release criterion, tolerances as stated.

Each test prints a single PASS line when its criterion holds; a failing
criterion fails the test outright.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import flapkin
from flapkin.aero import AeroConfig, compare_gaits, quasi_steady_forces
from flapkin.compliance import LoadCase, solve_equilibrium, stationarity
from flapkin.designs import ARMWING_TRANSMISSION_JOINTS, two_stage_armwing
from flapkin.gait import gait_metrics, generate_gait, retraction_time
from flapkin.geometry import Point2, Pose
from flapkin.kinematics import (
    Configuration,
    assemble,
    solve_fourbar,
    sweep_arrays,
    transmission_angle_series,
    velocities,
)
from flapkin.mechanism import FourBar, fourbar_mechanism
from flapkin.synthesis import synthesize

from conftest import (coincidence_residual, make_plunge_gait, random_crank_rocker, recovery_space,
                      relative_joint_angle, two_hinge_chain)

N_LINKAGES = 100
DEG = math.pi / 180.0


def _sample_linkages(seed: int = 2024):
    rng = np.random.default_rng(seed)
    return [random_crank_rocker(rng) for _ in range(N_LINKAGES)]


def test_criterion_01_closure_suite():
    thetas = np.arange(361) * DEG
    worst_res, worst_jump = 0.0, 0.0
    for fb in _sample_linkages():
        m = fourbar_mechanism(fb)
        pa = sweep_arrays(m, thetas)
        assert pa.errors == [None]
        worst_res = max(worst_res, coincidence_residual(m, pa))
        rocker = pa.angles[0, pa.index("rocker")]
        worst_jump = max(worst_jump, float(np.abs(np.diff(rocker)).max()))
    assert worst_res <= 1e-9
    assert worst_jump < 0.2
    print(f"PASS criterion 1: closure suite, {N_LINKAGES} crank-rockers x 361 steps, "
          f"max residual {worst_res:.2e} m, max rocker jump {worst_jump:.3f} rad")


def test_criterion_02_newton_vs_closed_form():
    rng = np.random.default_rng(7)
    worst = 0.0
    for fb in _sample_linkages():
        m = fourbar_mechanism(fb)
        for theta in rng.uniform(0.0, 2 * math.pi, 32):
            ref = solve_fourbar(fb, float(theta))
            poses = {}
            for lid, p in ref.poses.items():
                if lid == "ground":
                    poses[lid] = p
                else:
                    poses[lid] = Pose(Point2(p.origin.x + rng.uniform(-0.02, 0.02),
                                             p.origin.y + rng.uniform(-0.02, 0.02)),
                                      p.angle + rng.uniform(-0.1, 0.1))
            guess = Configuration(ref.crank_angle, poses, ref.branch)
            c = assemble(m, float(theta), guess=guess)
            for lid in ("crank", "coupler", "rocker"):
                worst = max(worst, abs(c.pose(lid).angle - ref.pose(lid).angle))
    assert worst <= 1e-8
    print(f"PASS criterion 2: Newton vs closed form, {N_LINKAGES} linkages x 32 angles, "
          f"max angle discrepancy {worst:.2e} rad")


def test_criterion_03_velocities_vs_finite_differences():
    h = 1e-6
    rng = np.random.default_rng(13)
    worst = 0.0
    checked = 0
    for fb in _sample_linkages()[:25]:
        m = fourbar_mechanism(fb)
        for theta in rng.uniform(0.0, 2 * math.pi, 8):
            c = solve_fourbar(fb, float(theta))
            vel = velocities(m, c, 1.0)
            cm = solve_fourbar(fb, float(theta) - h)
            cp = solve_fourbar(fb, float(theta) + h)
            for lid in ("coupler", "rocker"):
                w_fd = (cp.pose(lid).angle - cm.pose(lid).angle) / (2 * h)
                vx_fd = (cp.pose(lid).origin.x - cm.pose(lid).origin.x) / (2 * h)
                vy_fd = (cp.pose(lid).origin.y - cm.pose(lid).origin.y) / (2 * h)
                v, w = vel[lid]
                for got, want in ((w, w_fd), (v.x, vx_fd), (v.y, vy_fd)):
                    if abs(want) > 1e-6:
                        worst = max(worst, abs(got - want) / abs(want))
                        checked += 1
    assert worst <= 1e-4
    print(f"PASS criterion 3: Jacobian velocities vs central differences, "
          f"{checked} samples, max relative error {worst:.2e}")


def test_criterion_04_parallelogram_exactness():
    m = fourbar_mechanism(FourBar(4, 2, 4, 2))
    thetas = np.arange(361) * DEG
    pa = sweep_arrays(m, thetas)
    assert pa.errors == [None]
    rocker = pa.angles[0, pa.index("rocker")]
    worst = float(np.abs(rocker - thetas).max())
    assert worst <= 1e-12
    print(f"PASS criterion 4: parallelogram rocker tracks crank, "
          f"max deviation {worst:.2e} rad over a full sweep")


def test_criterion_05_two_hinge_equilibrium():
    k1 = k2 = 0.12
    l1, l2 = 0.05, 0.04
    m = two_hinge_chain(k1, k2, l1, l2)
    force = Point2(0.01, 0.15)
    load = LoadCase(forces=(("fore", "tip", force),))
    c = solve_equilibrium(m, 0.0, load)
    t1 = relative_joint_angle(m, c, "h1")
    t2 = relative_joint_angle(m, c, "h2")

    grid = np.arange(-0.5, 0.5, 1e-3)
    T1, T2 = np.meshgrid(grid, grid, indexing="ij")
    tip_x = l1 * np.cos(T1) + l2 * np.cos(T1 + T2)
    tip_y = l1 * np.sin(T1) + l2 * np.sin(T1 + T2)
    V = 0.5 * k1 * T1 ** 2 + 0.5 * k2 * T2 ** 2 - force.x * tip_x - force.y * tip_y
    i, j = np.unravel_index(np.argmin(V), V.shape)
    err = max(abs(t1 - grid[i]), abs(t2 - grid[j]))
    assert err <= 2e-3

    pg, _ = stationarity(m, load, c, 0.0)
    assert pg <= 1e-8 * max(k1, k2)
    print(f"PASS criterion 5: two-hinge equilibrium vs grid search, "
          f"angle error {err:.2e} rad, projected gradient {pg:.2e} N*m")


def test_criterion_06_single_wingbeat_articulation():
    m = two_stage_armwing()
    gt = generate_gait(m, 1.0, 256)
    mu = np.minimum.reduce([transmission_angle_series(m, gt.poses, j)
                            for j in ARMWING_TRANSMISSION_JOINTS])
    mts = gait_metrics(gt, mu)
    width = mts.extension_range[1] - mts.extension_range[0]
    assert width >= 0.15
    assert mts.area_ratio_up_down <= 0.9
    assert mts.min_transmission_angle >= math.radians(30.0)
    print(f"PASS criterion 6: shipped example articulates in one wingbeat, "
          f"extension width {width:.3f}, area ratio {mts.area_ratio_up_down:.3f}, "
          f"min transmission {math.degrees(mts.min_transmission_angle):.1f} deg")


def test_criterion_07_aero_sign_and_ranking():
    cfg = AeroConfig(freestream=3.0, span=1.0, strip_count=32,
                     chord_profile=(0.1, 0.09, 0.07, 0.04))
    gaits = [
        make_plunge_gait(samples=256, amplitude=0.5, mod_depth=0.3, mod_sign=1.0),
        make_plunge_gait(samples=256, amplitude=0.5, mod_depth=0.0),
        make_plunge_gait(samples=256, amplitude=0.5, mod_depth=0.3, mod_sign=-1.0),
    ]
    rep_in, rep_const, rep_anti = (quasi_steady_forces(g, cfg) for g in gaits)
    assert rep_in.vertical_impulse > 0.0
    assert rep_anti.vertical_impulse < 0.0
    peak = float(np.abs(rep_const.vertical_force).max()) * gaits[1].dt
    assert abs(rep_const.vertical_impulse) <= 1e-10 * peak
    ranked = compare_gaits(gaits, cfg)
    assert [r.input_index for r in ranked] == [0, 1, 2]
    print(f"PASS criterion 7: aero sign test, in-phase {rep_in.vertical_impulse:+.3e} N*s, "
          f"constant {rep_const.vertical_impulse:+.1e} N*s, "
          f"anti-phase {rep_anti.vertical_impulse:+.3e} N*s, ranking in > const > anti")


def test_criterion_08_synthesis_recovery():
    space, spec, _ = recovery_space()
    hits, worst_time = 0, 0.0
    costs = []
    for seed in range(10):
        t0 = time.perf_counter()
        result = synthesize(space, spec, budget=6000, seed=seed)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        assert elapsed < 60.0
        costs.append(result.cost)
        if result.cost <= 1e-4:
            hits += 1
    assert hits >= 9
    print(f"PASS criterion 8: synthesis recovery, {hits}/10 seeds reached cost <= 1e-4 "
          f"(median cost {np.median(costs):.1e}), slowest run {worst_time:.1f} s")


def test_criterion_09_determinism(tmp_path):
    shipped = tmp_path / "armwing.json"
    shipped.write_bytes((resources.files("flapkin.data") / "armwing.json").read_bytes())

    # The child runs with cwd=tmp_path, where an inherited relative PYTHONPATH
    # (such as "src") resolves to nothing; put the absolute parent of the
    # imported flapkin package first so the child runs the code under test.
    package_root = str(Path(flapkin.__file__).resolve().parent.parent)

    def run(args, extra_env=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
        if extra_env:
            env.update(extra_env)
        r = subprocess.run([sys.executable, "-m", "flapkin.cli", *args],
                           capture_output=True, env=env, cwd=tmp_path)
        assert r.returncode == 0, r.stderr.decode()
        return r.stdout

    sweep_a = run(["sweep", str(shipped), "--steps", "64"])
    sweep_b = run(["sweep", str(shipped), "--steps", "64"])
    assert sweep_a == sweep_b

    gait_a = run(["gait", str(shipped), "--period", "0.1", "--samples", "64"])
    gait_b = run(["gait", str(shipped), "--period", "0.1", "--samples", "64"])
    assert gait_a == gait_b

    template = fourbar_mechanism(FourBar(6, 2, 5, 5, coupler_point=Point2(2.5, 1.5)))
    mts = gait_metrics(generate_gait(template, 1.0, 128))
    from flapkin.fileio import mechanism_to_doc

    space_doc = {
        "template": mechanism_to_doc(template),
        "parameters": [
            {"name": "link.crank.marker.tip.x", "lower": 1.6, "upper": 2.4},
            {"name": "link.coupler.marker.cp.y", "lower": 1.2, "upper": 1.8},
        ],
        "transmission_joints": ["j_b"],
    }
    spec_doc = {
        "plunge_amplitude_rad": mts.plunge_amplitude,
        "extension_range": list(mts.extension_range),
        "area_ratio_max": 1.05 * mts.area_ratio_up_down,
        "min_transmission_angle_rad": 0.1,
    }
    (tmp_path / "space.json").write_text(json.dumps(space_doc))
    (tmp_path / "spec.json").write_text(json.dumps(spec_doc))

    outputs = []
    for name, threads in (("t1a.json", "1"), ("t1b.json", "1"), ("t8.json", "8")):
        out = run(["synthesize", str(tmp_path / "space.json"), str(tmp_path / "spec.json"),
                   "--budget", "300", "--seed", "9", "--out", str(tmp_path / name),
                   "--threads", threads])
        outputs.append(((tmp_path / name).read_bytes(), out))
    assert outputs[0] == outputs[1] == outputs[2]
    print("PASS criterion 9: sweep/gait/synthesize byte-identical across runs "
          "and across --threads 1 vs 8")


def test_criterion_10_retraction_timing():
    m = two_stage_armwing()
    gt = generate_gait(m, 0.1, 256)
    t_retract = retraction_time(gt)
    assert t_retract <= 0.06
    print(f"PASS criterion 10: retraction completes in {t_retract * 1e3:.1f} ms "
          f"of a 100 ms wingbeat (limit 60 ms)")
