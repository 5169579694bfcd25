"""Shared fixtures and oracle helpers for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest

from flapkin.gait import GaitTrajectory
from flapkin.geometry import Point2
from flapkin.mechanism import (
    CompliantHinge,
    FourBar,
    FourBarClass,
    Joint,
    Link,
    LinkRole,
    Mechanism,
    fourbar_mechanism,
    grashof_classify,
)


@pytest.fixture
def fb_example() -> FourBar:
    """The (6, 2, 5, 5) crank-rocker used throughout as a hand-checkable case."""
    return FourBar(g=6.0, a=2.0, b=5.0, c=5.0, coupler_point=Point2(2.5, 1.5))


@pytest.fixture
def fb_mech(fb_example) -> Mechanism:
    return fourbar_mechanism(fb_example)


@pytest.fixture
def armwing() -> Mechanism:
    from flapkin.designs import two_stage_armwing

    return two_stage_armwing()


def random_crank_rocker(rng: np.random.Generator) -> FourBar:
    """Rejection-sample a Grashof crank-rocker with lengths uniform in [1, 10].

    Linkages whose minimum transmission angle falls below 5 degrees are also
    rejected: at the class boundary the rocker velocity diverges, so no fixed
    per-step continuity bound can hold for them at any finite sweep step.
    """
    while True:
        g, a, b, c = rng.uniform(1.0, 10.0, size=4)
        if max(g, a, b, c) >= g + a + b + c - max(g, a, b, c):
            continue
        fb = FourBar(g=g, a=a, b=b, c=c, coupler_point=Point2(b / 2, b / 4))
        if grashof_classify(fb) is not FourBarClass.CRANK_ROCKER or min(g, a, b, c) != a:
            continue
        mu_min = math.pi / 2
        for d in (g - a, g + a):
            cos_mu = (b * b + c * c - d * d) / (2.0 * b * c)
            mu = math.acos(max(-1.0, min(1.0, cos_mu)))
            mu_min = min(mu_min, mu, math.pi - mu)
        if mu_min >= math.radians(5.0):
            return fb


def make_plunge_gait(period: float = 1.0, samples: int = 128, amplitude: float = 0.5,
                     mod_depth: float = 0.0, mod_sign: float = 1.0,
                     area0: float = 0.02, reach: float = 1.0) -> GaitTrajectory:
    """Synthetic sinusoidal plunge gait with optional area modulation.

    mod_sign +1 puts the larger area on the downstroke (in-phase with the
    lift-friendly timing), -1 on the upstroke (anti-phase).
    """
    k = np.arange(samples)
    phase = 2.0 * math.pi * k / samples
    plunge = amplitude * np.sin(phase)
    # plunge rate ~ cos(phase); downstroke (decreasing plunge) has cos < 0
    area = area0 * (1.0 - mod_sign * mod_depth * np.cos(phase))
    extension = np.full(samples, 1.0)
    wingtip = reach * np.stack([np.cos(plunge), np.sin(plunge)], axis=-1)
    t = k * (period / samples)
    crank = phase.copy()
    return GaitTrajectory(period, t, crank, plunge, extension, area, wingtip)


def two_hinge_chain(k1: float = 0.12, k2: float = 0.12,
                    l1: float = 0.05, l2: float = 0.04) -> Mechanism:
    """Serial compliant chain: ground - hinge - upper - hinge - fore.

    Both links rest along +x; the chain is open (no closing loop), so the
    hinge angles are the only equilibrium unknowns.
    """
    ground = Link("ground", {"origin": Point2(0.0, 0.0)}, LinkRole.GROUND)
    upper = Link("upper", {"origin": Point2(0.0, 0.0), "tip": Point2(l1, 0.0)})
    fore = Link("fore", {"origin": Point2(0.0, 0.0), "tip": Point2(l2, 0.0)})
    joints = (
        Joint("h1", "ground", "origin", "upper", "origin", CompliantHinge(stiffness=k1)),
        Joint("h2", "upper", "tip", "fore", "origin", CompliantHinge(stiffness=k2)),
    )
    return Mechanism((ground, upper, fore), joints, "ground")


def recovery_space(noise: float = 0.0):
    """Hidden-mechanism recovery setup: (space, spec, hidden x) for synthesis.

    Five marker coordinates of the (6, 2, 5, 5) crank-rocker, bounds +-20%
    around the hidden values.
    """
    from flapkin.synthesis import DesignSpace, GaitSpec, Parameter

    hidden = FourBar(6.0, 2.0, 5.0, 5.0, coupler_point=Point2(2.5, 1.5))
    template = fourbar_mechanism(hidden)
    names_and_values = (
        ("link.crank.marker.tip.x", 2.0),
        ("link.coupler.marker.tip.x", 5.0),
        ("link.rocker.marker.tip.x", 5.0),
        ("link.coupler.marker.cp.x", 2.5),
        ("link.coupler.marker.cp.y", 1.5),
    )
    params = tuple(Parameter(name, 0.8 * v, 1.2 * v) for name, v in names_and_values)
    x_hidden = np.array([v for _, v in names_and_values])
    space = DesignSpace(template, params, transmission_joints=("j_b",))

    from flapkin.gait import gait_metrics, generate_gait
    from flapkin.kinematics import transmission_angle_series
    from flapkin.synthesis import OBJECTIVE_SAMPLES

    gt = generate_gait(template, 1.0, OBJECTIVE_SAMPLES)
    mu = transmission_angle_series(template, gt.poses, "j_b")
    mts = gait_metrics(gt, mu)
    spec = GaitSpec(plunge_amplitude=mts.plunge_amplitude + noise,
                    extension_range=mts.extension_range,
                    area_ratio_max=1.05 * mts.area_ratio_up_down,
                    min_transmission_angle=0.8 * float(mu.min()))
    return space, spec, x_hidden


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process, returning (exit code, stdout, stderr)."""
    import contextlib
    import io

    from flapkin.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = int(e.code or 0)
    return code, out.getvalue(), err.getvalue()
