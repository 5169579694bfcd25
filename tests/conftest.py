"""Shared fixtures and oracle helpers for the test suite."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest

from flapkin.cli import main
from flapkin.designs import two_stage_armwing
from flapkin.errors import DegenerateGeometryError, GaitError, NoStrokeReversalError
from flapkin.gait import GaitMetrics, GaitTrajectory, gait_metrics, generate_gait, polygon_area
from flapkin.geometry import Point2
from flapkin.kinematics import Configuration, ConstraintSystem, start_block, transmission_angle_series
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
from flapkin.synthesis import OBJECTIVE_SAMPLES, DesignSpace, GaitSpec, Parameter


@pytest.fixture
def fb_example() -> FourBar:
    """The (6, 2, 5, 5) crank-rocker used throughout as a hand-checkable case."""
    return FourBar(g=6.0, a=2.0, b=5.0, c=5.0, coupler_point=Point2(2.5, 1.5))


@pytest.fixture
def fb_mech(fb_example) -> Mechanism:
    return fourbar_mechanism(fb_example)


@pytest.fixture
def armwing() -> Mechanism:
    return two_stage_armwing()


def parallelogram_wing(rocker: float = 2.0) -> Mechanism:
    """The (4, 2, 4, rocker) four-bar with its rocker as the wing. At rocker = 2
    it is the parallelogram, whose plunge tracks the crank through a whole
    revolution; any longer rocker makes a crank-rocker."""
    m = fourbar_mechanism(FourBar(4, 2, 4, rocker))
    return dataclasses.replace(
        m, shoulder=("ground", "tip"), wingtip=("rocker", "tip"),
        wing_polygon=(("ground", "origin"), ("ground", "tip"), ("rocker", "tip")))


def marker_world(m: Mechanism, c: Configuration, link_id: str, marker: str) -> Point2:
    """Rigid transform of a link-local marker by the solved link pose."""
    return c.pose(link_id).transform(m.link(link_id).marker(marker))


def bootstrap_candidates(m: Mechanism, theta: float) -> list[Configuration]:
    """The dyad-plan starts `start_block` gives one mechanism at one crank
    angle, in the order they are tried, each as a Configuration."""
    sys = ConstraintSystem(m)
    q, tried = start_block(sys, theta)
    return [sys.config_from(row, theta) for row in q[0, tried[0]]]


def loop_residual(m: Mechanism, c: Configuration) -> np.ndarray:
    """Coincidence error (2 entries) of every non-spanning-tree joint."""
    tree_links = {m.ground}
    remaining = list(m.joints)
    grew = True
    while grew:
        grew = False
        still = []
        for j in remaining:
            if j.link_a in tree_links and j.link_b in tree_links:
                still.append(j)
            elif j.link_a in tree_links or j.link_b in tree_links:
                tree_links.add(j.link_a)
                tree_links.add(j.link_b)
                grew = True
            else:
                still.append(j)
        remaining = still
    non_tree = [j for j in remaining if j.link_a in tree_links and j.link_b in tree_links]
    out = np.zeros(2 * len(non_tree))
    for i, j in enumerate(non_tree):
        wa = marker_world(m, c, j.link_a, j.marker_a)
        wb = marker_world(m, c, j.link_b, j.marker_b)
        out[2 * i] = wa.x - wb.x
        out[2 * i + 1] = wa.y - wb.y
    return out


def relative_joint_angle(m: Mechanism, c: Configuration, joint_id: str) -> float:
    """Orientation of link_b minus orientation of link_a at a joint."""
    j = m.joint(joint_id)
    return c.pose(j.link_b).angle - c.pose(j.link_a).angle


def fold_quadrant(angle: float) -> float:
    """Fold an angle into [0, pi/2] the way transmission angles are reported."""
    a = abs(angle) % math.pi
    return math.pi - a if a > math.pi / 2 else a


def transmission_angle(fb: FourBar, c: Configuration) -> float:
    """Interior angle between coupler and rocker, folded into [0, pi/2]."""
    return fold_quadrant(c.pose("coupler").angle - c.pose("rocker").angle)


def _direction_at_joint(m: Mechanism, c: Configuration, link_id: str, j) -> float:
    lk = m.link(link_id)
    pj = lk.marker(j.marker_a if j.link_a == link_id else j.marker_b)
    v = pj - lk.marker("origin")
    pose = c.pose(link_id)
    if v.norm() < 1e-12:
        return pose.angle
    return pose.angle + math.atan2(v.y, v.x)


def transmission_angle_at(m: Mechanism, c: Configuration, joint_id: str) -> float:
    """Folded angle between the two link directions meeting at a joint.

    A link's direction is taken from its origin marker toward the joint
    marker (its x axis when the joint sits at the origin marker).
    """
    j = m.joint(joint_id)
    da = _direction_at_joint(m, c, j.link_a, j)
    db = _direction_at_joint(m, c, j.link_b, j)
    return fold_quadrant(db - da)


def wing_area(m: Mechanism, c: Configuration) -> float:
    """Membrane area traced by the wing-polygon markers in the world frame."""
    if len(m.wing_polygon) < 3:
        raise GaitError("mechanism has no wing polygon", code="BAD_WING_POLYGON")
    pts = [marker_world(m, c, lid, mk) for lid, mk in m.wing_polygon]
    return polygon_area([p.x for p in pts], [p.y for p in pts])


def plunge_angle(m: Mechanism, c: Configuration) -> float:
    """Angle of the shoulder-to-wingtip ray above the ground x axis.

    Downstroke is decreasing plunge by convention.
    """
    if m.shoulder is None or m.wingtip is None:
        raise GaitError("mechanism does not declare shoulder/wingtip markers", code="DEGENERATE")
    v = marker_world(m, c, *m.wingtip) - marker_world(m, c, *m.shoulder)
    if v.norm() < 1e-12:
        raise DegenerateGeometryError("shoulder and wingtip coincide")
    return math.atan2(v.y, v.x)


def coincidence_residual(m: Mechanism, pb) -> float:
    """Worst joint-coincidence error over the closed samples of row 0 of a sweep."""
    worst, n = 0.0, pb.failed_at[0]
    for j in m.joints:
        (ax, ay), (bx, by) = pb.marker_world((j.link_a, j.marker_a)), pb.marker_world((j.link_b, j.marker_b))
        worst = max(worst, float(np.hypot(ax[0, :n] - bx[0, :n], ay[0, :n] - by[0, :n]).max()))
    return worst


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


def reference_metrics(gt: GaitTrajectory, transmission: np.ndarray | None = None) -> GaitMetrics:
    """`gait_metrics` as scalar arithmetic on one wingbeat, apart from the
    library's batched rules: loop-built stroke signs (periodic central
    differences, one-sample flickers taken from the previous sample),
    boolean-mask means for the area ratio, `up.all() or down.all()` for stroke
    reversal, and 0.5 * (max - min) for the amplitude. The unwrapped plunge
    continues past either end by the wingbeat's net whole turns."""
    if gt.samples < 8:
        raise ValueError("need >= 8 samples")
    n, plunge = gt.samples, gt.plunge
    turns = round(float(plunge[-1] - plunge[0]) / (2.0 * math.pi))

    def at(k):  # plunge at sample k of the periodic series, whole turns added past either end
        return plunge[k % n] + 2.0 * math.pi * turns * (k // n)

    raw = [1 if at(k + 1) - at(k - 1) >= 0.0 else -1 for k in range(n)]
    sign = [raw[k - 1] if raw[k] != raw[k - 1] and raw[k] != raw[(k + 1) % n] else raw[k] for k in range(n)]
    up = np.array(sign) > 0
    down = ~up
    if up.all() or down.all():
        raise NoStrokeReversalError("plunge is monotone over the wingbeat")
    amp = 0.5 * float(plunge.max() - plunge.min())
    ratio = float(gt.area[up].mean() / gt.area[down].mean())

    def run(start):  # length of the upstroke run from start, which may wrap past the end
        length = 0
        while length < n and up[(start + length) % n]:
            length += 1
        return length

    # the first longest upstroke run, in order of start
    start = max((k for k in range(n) if up[k] and not up[k - 1]), key=run)
    mid_idx = (start + run(start) // 2) % n
    lag = gt.crank[int(np.argmin(gt.extension))] - gt.crank[mid_idx]
    lag = (lag + math.pi) % (2.0 * math.pi) - math.pi
    mu_min = float(np.min(transmission)) if transmission is not None else None
    return GaitMetrics(amp, (float(gt.extension.min()), float(gt.extension.max())), ratio, float(lag), mu_min)


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


def triad_eight_bar() -> Mechanism:
    """Crank, a class-III Assur group (ternary link "t" held by three binary
    links) and a dyad hung on it. Every link frame is the world frame at
    crank angle 0, so local markers are the world points of that pose. It
    declares a wing (shoulder, wingtip, polygon), so design spaces take it."""
    P = Point2
    links = (
        Link("ground", {"origin": P(0, 0), "g1": P(4, -1), "g2": P(6, 1), "g3": P(8, 3)},
             LinkRole.GROUND),
        Link("crank", {"origin": P(0, 0), "tip": P(1, 0)}, LinkRole.CRANK),
        Link("t", {"origin": P(0, 0), "p": P(3.5, 2), "q": P(5.5, 3), "r": P(2.5, 3.5),
                   "s": P(4.5, 4.5)}),
        Link("l1", {"origin": P(0, 0), "a": P(4, -1), "b": P(3.5, 2)}),
        Link("l2", {"origin": P(0, 0), "a": P(6, 1), "b": P(5.5, 3)}),
        Link("l3", {"origin": P(0, 0), "a": P(1, 0), "b": P(2.5, 3.5)}),
        Link("d1", {"origin": P(0, 0), "a": P(4.5, 4.5), "b": P(7, 5.5)}),
        Link("d2", {"origin": P(0, 0), "a": P(8, 3), "b": P(7, 5.5)}),
    )
    joints = (
        Joint("j_crank", "ground", "origin", "crank", "origin", actuated=True),
        Joint("j1", "ground", "g1", "l1", "a"), Joint("j2", "l1", "b", "t", "p"),
        Joint("j3", "ground", "g2", "l2", "a"), Joint("j4", "l2", "b", "t", "q"),
        Joint("j5", "crank", "tip", "l3", "a"), Joint("j6", "l3", "b", "t", "r"),
        Joint("j7", "t", "s", "d1", "a"), Joint("j8", "d1", "b", "d2", "b"),
        Joint("j9", "d2", "a", "ground", "g3"),
    )
    return Mechanism(links, joints, "ground", wing_polygon=(("ground", "origin"), ("t", "s"), ("d1", "b")),
                     shoulder=("ground", "origin"), wingtip=("d1", "b"))


def recovery_space(noise: float = 0.0):
    """Hidden-mechanism recovery setup: (space, spec, hidden x) for synthesis.

    Five marker coordinates of the (6, 2, 5, 5) crank-rocker, bounds +-20%
    around the hidden values.
    """
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = int(e.code or 0)
    return code, out.getvalue(), err.getvalue()
