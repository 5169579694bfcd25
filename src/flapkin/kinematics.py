"""Pose solvers for planar linkages: closed-form dyad plan, Newton fallback.

A mechanism is compiled into a dyad plan: place the crank, then solve each RR
dyad (two links sharing a pin, each pinned once to a link already placed) by
circle intersection, for all crank angles at once. Along a sweep every dyad
keeps one of its two roots by continuation; the four-bar is the one-dyad
case. Chains the plan cannot decompose (triads) fall back to damped Newton
iteration on the stacked joint-coincidence residuals, seeded step by step
with the previous solution, and `assemble` always polishes with Newton.

The crank coordinate theta is the world orientation of the crank link frame,
measured counter-clockwise; sweeps keep all angles unwrapped so they stay
continuous across +-pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BranchAmbiguousError,
    ConvergenceError,
    KinematicsError,
    NotAssemblableError,
    SingularJacobianError,
    UnknownMarkerError,
)
from .geometry import IDENTITY_POSE, Point2, Pose, drot, fold_quadrant
from .mechanism import FourBar, Joint, Mechanism, as_fourbar, fourbar_mechanism


class Branch(Enum):
    OPEN = "open"
    CROSSED = "crossed"


@dataclass(frozen=True)
class Configuration:
    """Pose of every link at a given crank angle. Ground pose is identity."""

    crank_angle: float
    poses: dict[str, Pose]
    branch: Branch | None = None

    def pose(self, link_id: str) -> Pose:
        return self.poses[link_id]


@dataclass(frozen=True)
class SolveSettings:
    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


DEFAULT_SETTINGS = SolveSettings()


@dataclass
class PoseArrays:
    """Columnar sweep result: per-link origins (L,N,2) and angles (L,N)."""

    ids: list[str]
    thetas: np.ndarray
    origins: np.ndarray
    angles: np.ndarray
    failed_at: int | None = None
    error: str | None = None
    branch: Branch | None = None
    solver: str = "dyad"  # "dyad" (closed-form plan) or "newton"

    @property
    def n_solved(self) -> int:
        return len(self.thetas) if self.failed_at is None else self.failed_at

    def index(self, link_id: str) -> int:
        return self.ids.index(link_id)

    def configuration(self, k: int) -> Configuration:
        poses = {
            lid: Pose(Point2(self.origins[i, k, 0], self.origins[i, k, 1]), float(self.angles[i, k]))
            for i, lid in enumerate(self.ids)
        }
        return Configuration(float(self.thetas[k]), poses, self.branch)

    def configurations(self) -> list[Configuration]:
        return [self.configuration(k) for k in range(self.n_solved)]

    def marker_world(self, m: Mechanism, ref: tuple[str, str]) -> np.ndarray:
        """World path (N,2) of one marker across the sweep."""
        lid, mname = ref
        i = self.index(lid)
        p = m.link(lid).marker(mname)
        c, s = np.cos(self.angles[i]), np.sin(self.angles[i])
        out = np.empty_like(self.origins[i])
        out[:, 0] = self.origins[i, :, 0] + c * p.x - s * p.y
        out[:, 1] = self.origins[i, :, 1] + s * p.x + c * p.y
        return out


@dataclass(frozen=True)
class SweepResult:
    configurations: list[Configuration]
    failed_at: int | None = None
    error: str | None = None


def marker_world(m: Mechanism, c: Configuration, link_id: str, marker: str) -> Point2:
    """Rigid transform of a link-local marker by the solved link pose."""
    try:
        lk = m.link(link_id)
        p = lk.marker(marker)
    except KeyError as e:
        raise UnknownMarkerError(f"unknown link or marker: {link_id}.{marker}") from e
    return c.pose(link_id).transform(p)


# ---------------------------------------------------------------------------
# Dyad plan: the crank, then RR dyads by circle intersection


@dataclass(frozen=True)
class _Step:
    """One placement of a dyad plan. A pin is (own marker, placed link, its marker).

    kind "crank": the driven link, pinned to ground. "dyad": two links sharing
    a joint (their `shared` markers), each pinned once to a placed link, with
    `radii` from pin to shared marker. "rigid": one link pinned to two placed
    links. "hang": one link pinned once, left at orientation zero. "free": an
    unreachable link, left at the identity.
    """

    kind: str
    links: tuple[str, ...]
    pins: tuple[tuple[str, str, str], ...] = ()
    shared: tuple[str, ...] = ()
    radii: tuple[float, ...] = ()


def _pin(j: Joint, lid: str) -> tuple[str, str, str]:
    if j.link_a == lid:
        return j.marker_a, j.link_b, j.marker_b
    return j.marker_b, j.link_a, j.marker_a


def _decompose(m: Mechanism) -> list[_Step]:
    """Placement order from the topology alone: the crank, then repeatedly
    (1) a link pinned to two placed links, (2) an RR dyad, (3) a link hung
    from one placed link; unreachable links last."""
    placed = {m.ground}
    steps = []
    act = m.actuated_joint()
    if act is not None:
        crank = act.other(m.ground)
        steps.append(_Step("crank", (crank,), (_pin(act, crank),)))
        placed.add(crank)

    def pins(lid, skip=None):
        return [_pin(j, lid) for j in m.joints
                if j is not skip and lid in (j.link_a, j.link_b) and j.other(lid) in placed]

    def rigid():
        for l in m.links:
            if l.id not in placed and len(anchors := pins(l.id)) >= 2:
                return _Step("rigid", (l.id,), tuple(anchors[:2]))

    def dyad():
        for j in m.joints:
            if j.link_a in placed or j.link_b in placed:
                continue
            sides = [(lid, mk, pins(lid, skip=j))
                     for lid, mk in ((j.link_a, j.marker_a), (j.link_b, j.marker_b))]
            if all(p for _, _, p in sides):
                radii = tuple((m.link(lid).marker(mk) - m.link(lid).marker(p[0][0])).norm()
                              for lid, mk, p in sides)
                return _Step("dyad", (j.link_a, j.link_b), (sides[0][2][0], sides[1][2][0]),
                             (j.marker_a, j.marker_b), radii)

    def hang():
        for j in m.joints:
            for lid in (j.link_a, j.link_b):
                if lid not in placed and j.other(lid) in placed:
                    return _Step("hang", (lid,), (_pin(j, lid),))

    while len(placed) < len(m.links):
        step = rigid() or dyad() or hang()
        if step is None:
            steps.extend(_Step("free", (l.id,)) for l in m.links if l.id not in placed)
            break
        steps.append(step)
        placed.update(step.links)
    return steps


def _is_dyadic(m: Mechanism, steps: list[_Step]) -> bool:
    """The plan solves the whole chain: crank and dyads only, square system."""
    return (bool(steps) and steps[0].kind == "crank"
            and 2 * len(m.joints) + 1 == 3 * (len(m.links) - 1)
            and all(st.kind in ("crank", "dyad") for st in steps))


def _place_steps(m: Mechanism, steps: list[_Step], thetas: np.ndarray, pick):
    """Place every link at every crank angle of `thetas` at once.

    Returns link id -> (x, y, angle, cos, sin) arrays, and the mask of
    samples at which every dyad closes. The i-th dyad's roots are
    base +- offset; `pick(i, base, offset, n_ok)` returns its root sign per
    sample, given that its first n_ok samples (and all earlier dyads') close.
    Circles that miss are clamped to their nearest approach.
    """
    n = len(thetas)
    zero = np.zeros(n)
    poses = {m.ground: (zero, zero, zero, np.ones(n), zero)}
    ok = np.ones(n, dtype=bool)

    def world(lid, marker):
        x, y, _, c, s = poses[lid]
        p = m.link(lid).marker(marker)
        return x + c * p.x - s * p.y, y + s * p.x + c * p.y

    def place(lid, marker, at, angle):
        q = m.link(lid).marker(marker)
        c, s = np.cos(angle), np.sin(angle)
        poses[lid] = (at[0] - (c * q.x - s * q.y), at[1] - (s * q.x + c * q.y), angle, c, s)

    def place_two(lid, m1, p1, m2, p2):
        """Local marker m1 on p1 and m2 on the ray from p1 toward p2."""
        q1, q2 = m.link(lid).marker(m1), m.link(lid).marker(m2)
        angle = np.arctan2(p2[1] - p1[1], p2[0] - p1[0]) - math.atan2(q2.y - q1.y, q2.x - q1.x)
        place(lid, m1, p1, angle)

    n_dyads = 0
    for st in steps:
        if st.kind == "free":
            poses[st.links[0]] = poses[m.ground]
            continue
        (own, other, other_marker), *more = st.pins
        p1 = world(other, other_marker)
        if st.kind == "crank":
            place(st.links[0], own, p1, thetas)
        elif st.kind == "hang":
            place(st.links[0], own, p1, zero)
        elif st.kind == "rigid":
            own2, other2, marker2 = more[0]
            place_two(st.links[0], own, p1, own2, world(other2, marker2))
        else:
            own2, other2, marker2 = more[0]
            p2 = world(other2, marker2)
            ra, rb = st.radii
            dx, dy = p2[0] - p1[0], p2[1] - p1[1]
            d = np.hypot(dx, dy)
            # Heron's factors: the circles meet where none is negative
            f1, f2, f3, f4 = ra + rb - d, d - ra + rb, d + ra - rb, d + ra + rb
            eps = 1e-12 * f4
            ok &= (f1 >= -eps) & (f2 >= -eps) & (f3 >= -eps) & (d > eps)
            d = np.where(d > 0.0, d, 1.0)
            h = np.sqrt(np.maximum(f1 * f2 * f3 * f4, 0.0)) / (2.0 * d)
            a = (ra * ra - rb * rb + d * d) / (2.0 * d)
            ux, uy = dx / d, dy / d
            base = (p1[0] + a * ux, p1[1] + a * uy)
            offset = (-h * uy, h * ux)
            sign = pick(n_dyads, base, offset, n if ok.all() else int(np.argmin(ok)))
            n_dyads += 1
            x = (base[0] + sign * offset[0], base[1] + sign * offset[1])
            place_two(st.links[0], own, p1, st.shared[0], x)
            place_two(st.links[1], own2, p2, st.shared[1], x)
    return poses, ok


def _continue_roots(base, offset, n: int, s: float) -> list[float]:
    """Root signs along a sweep: start on root s, then take the root nearest
    the linear extrapolation of the joint's last two positions. At a near-tie
    (a change point) that is the root whose step is closest to the previous
    step. Plain floats: this is the one per-sample loop of a dyad sweep."""
    bx, by = base[0][:n].tolist(), base[1][:n].tolist()
    ox, oy = offset[0][:n].tolist(), offset[1][:n].tolist()
    signs = [s]
    px, py = bx[0] + s * ox[0], by[0] + s * oy[0]
    vx = vy = 0.0
    for k in range(1, n):
        # |base + o - pred|^2 - |base - o - pred|^2 = -4 o.(pred - base)
        t = ox[k] * (px + vx - bx[k]) + oy[k] * (py + vy - by[k])
        if t != 0.0:
            s = 1.0 if t > 0.0 else -1.0
        x, y = bx[k] + s * ox[k], by[k] + s * oy[k]
        vx, vy, px, py = x - px, y - py, x, y
        signs.append(s)
    return signs


def _dyad_sweep_arrays(m: Mechanism, steps: list[_Step], thetas: np.ndarray,
                       guess: Configuration | None, branch: Branch) -> PoseArrays:
    n = len(thetas)
    dyads = [st for st in steps if st.kind == "dyad"]
    view = as_fourbar(m)
    # sign of the open branch's root: the coupler-rocker triangle keeps its orientation
    open_sign = -1.0 if view is not None and dyads[0].links[0] == view.rocker else 1.0
    starts = []

    def start_sign(st: _Step, base, offset) -> float:
        if guess is None:
            if view is None:
                return 1.0
            return open_sign if branch is Branch.OPEN else -open_sign
        g = guess.pose(st.links[0]).transform(m.link(st.links[0]).marker(st.shared[0]))
        bx, by, ox, oy = float(base[0][0]), float(base[1][0]), float(offset[0][0]), float(offset[1][0])
        d_plus = math.hypot(bx + ox - g.x, by + oy - g.y)
        d_minus = math.hypot(bx - ox - g.x, by - oy - g.y)
        if abs(d_plus - d_minus) <= 1e-12 * sum(st.radii):
            raise BranchAmbiguousError(
                f"both roots of the {st.links[0]}-{st.links[1]} dyad are equidistant from the "
                "guess (change point); pass an explicit branch")
        return 1.0 if d_plus < d_minus else -1.0

    def pick(i, base, offset, n_ok):
        sign = np.ones(n)
        if n_ok:
            starts.append(start_sign(dyads[i], base, offset))
            sign[:n_ok] = _continue_roots(base, offset, n_ok, starts[-1])
        return sign

    poses, ok = _place_steps(m, steps, thetas, pick)
    ids = [m.ground, *m.moving_link_ids()]
    origins = np.stack([np.stack(poses[lid][:2], axis=-1) for lid in ids])
    angles = np.stack([poses[lid][2] for lid in ids])
    turning = [i for i, lid in enumerate(ids) if lid not in (m.ground, steps[0].links[0])]
    angles[turning] = np.unwrap(angles[turning], axis=1)
    if guess is not None and n:
        turns = np.round((np.array([guess.pose(ids[i]).angle for i in turning])
                          - angles[turning, 0]) / (2.0 * math.pi))
        angles[turning] += 2.0 * math.pi * turns[:, None]
    failed_at = error = None
    if not ok.all():
        failed_at, error = int(np.argmin(ok)), NotAssemblableError.code
        origins[:, failed_at:] = 0.0
        angles[:, failed_at:] = 0.0
    if view is not None:
        if starts:
            branch = Branch.OPEN if starts[0] == open_sign else Branch.CROSSED
    else:
        branch = guess.branch if guess else None
    return PoseArrays(ids, thetas, origins, angles, failed_at, error, branch, "dyad")


def solve_fourbar(fb: FourBar, theta: float, branch: Branch = Branch.OPEN) -> Configuration:
    """Exact closed-form pose of the canonical four-bar mechanism at crank
    angle theta (the one-dyad plan). Raises NotAssemblableError past a dead
    center."""
    pa = sweep_arrays(fourbar_mechanism(fb), np.array([float(theta)]), branch=branch)
    if pa.failed_at is not None:
        raise NotAssemblableError(
            f"four-bar {fb.lengths} cannot close at crank angle {theta:.6g} rad")
    return pa.configuration(0)


def rocker_angle(c: Configuration) -> float:
    return c.pose("rocker").angle


def transmission_angle(fb: FourBar, c: Configuration) -> float:
    """Interior angle between coupler and rocker, folded into [0, pi/2]."""
    return fold_quadrant(c.pose("coupler").angle - c.pose("rocker").angle)


# ---------------------------------------------------------------------------
# General Newton solver


class ConstraintSystem:
    """Stacked joint-coincidence constraints plus the crank drive row.

    Unknowns are the (x, y, angle) of every non-ground link; the system is
    square exactly when the rigid skeleton has Gruebler mobility one.
    """

    def __init__(self, m: Mechanism):
        self.m = m
        self.moving = list(m.moving_link_ids())
        self.index = {lid: 3 * i for i, lid in enumerate(self.moving)}
        self.n = 3 * len(self.moving)
        act = m.actuated_joint()
        self.crank_link = act.other(m.ground) if act is not None else None
        self.rows = 2 * len(m.joints) + (1 if act is not None else 0)
        # (index a, marker a, index b, marker b) of residual rows 2r, 2r+1
        self.joints = []
        for j in m.joints:
            pa = m.link(j.link_a).marker(j.marker_a).as_array()
            pb = m.link(j.link_b).marker(j.marker_b).as_array()
            ia = self.index.get(j.link_a)
            ib = self.index.get(j.link_b)
            self.joints.append((ia, pa, ib, pb))

    def q_from(self, c: Configuration) -> np.ndarray:
        q = np.zeros(self.n)
        for lid, base in self.index.items():
            p = c.pose(lid)
            q[base] = p.origin.x
            q[base + 1] = p.origin.y
            q[base + 2] = p.angle
        return q

    def config_from(self, q: np.ndarray, theta: float, branch: Branch | None = None) -> Configuration:
        poses = {self.m.ground: IDENTITY_POSE}
        for lid, base in self.index.items():
            poses[lid] = Pose(Point2(float(q[base]), float(q[base + 1])), float(q[base + 2]))
        return Configuration(float(theta), poses, branch)

    def _world(self, q, idx, p):
        if idx is None:
            return p
        a = q[idx + 2]
        c, s = math.cos(a), math.sin(a)
        return np.array([q[idx] + c * p[0] - s * p[1], q[idx + 1] + s * p[0] + c * p[1]])

    def residual(self, q: np.ndarray, theta: float) -> np.ndarray:
        out = np.zeros(self.rows)
        r = 0
        for ia, pa, ib, pb in self.joints:
            out[r:r + 2] = self._world(q, ia, pa) - self._world(q, ib, pb)
            r += 2
        if self.crank_link is not None:
            out[r] = q[self.index[self.crank_link] + 2] - theta
        return out

    def jacobian(self, q: np.ndarray) -> np.ndarray:
        J = np.zeros((self.rows, self.n))
        r = 0
        for ia, pa, ib, pb in self.joints:
            if ia is not None:
                J[r, ia] = 1.0
                J[r + 1, ia + 1] = 1.0
                J[r:r + 2, ia + 2] = drot(q[ia + 2]) @ pa
            if ib is not None:
                J[r, ib] = -1.0
                J[r + 1, ib + 1] = -1.0
                J[r:r + 2, ib + 2] = -(drot(q[ib + 2]) @ pb)
            r += 2
        if self.crank_link is not None:
            J[r, self.index[self.crank_link] + 2] = 1.0
        return J


def bootstrap_candidates(m: Mechanism, theta: float, max_candidates: int = 16) -> list[Configuration]:
    """Closed-form starting guesses from the dyad plan at one crank angle:
    one per combination of dyad roots, '+' root first and earlier dyads
    varying slowest. Circles that miss are clamped to their nearest approach
    and a tangent dyad gives one root; links the plan can only hang sit at
    orientation zero for Newton to sort out.
    """
    steps = _decompose(m)
    k = sum(st.kind == "dyad" for st in steps)
    kv = min(k, 10)  # only the last kv dyads vary; max_candidates never reaches further
    bits = (np.arange(2 ** kv)[:, None] >> np.arange(kv - 1, -1, -1)) & 1
    signs = np.hstack([np.ones((2 ** kv, k - kv)), 1.0 - 2.0 * bits])
    repeated = np.zeros(len(signs), dtype=bool)

    def pick(i, base, offset, n_ok):
        repeated[(offset[0] == 0.0) & (offset[1] == 0.0) & (signs[:, i] < 0.0)] = True
        return signs[:, i]

    poses, _ = _place_steps(m, steps, np.full(len(signs), float(theta)), pick)
    return [Configuration(theta, {lid: Pose(Point2(float(x[r]), float(y[r])), float(a[r]))
                                  for lid, (x, y, a, _, _) in poses.items()})
            for r in np.flatnonzero(~repeated)[:max_candidates]]


def assemble(m: Mechanism, theta: float, guess: Configuration | None = None,
             settings: SolveSettings = DEFAULT_SETTINGS) -> Configuration:
    """Newton-Raphson on the joint-coincidence residuals at fixed crank angle.

    Returns the root continuously reachable from the guess. Step halving (at
    most 20 times per iteration) guards against overshoot.
    """
    sys = ConstraintSystem(m)
    if sys.rows != sys.n:
        raise KinematicsError(
            f"constraint system is not square ({sys.rows} equations, {sys.n} unknowns); "
            "mechanism must be single-DOF with one actuated joint",
            code="MOBILITY_NOT_ONE")
    if guess is None:
        last_error: KinematicsError | None = None
        for candidate in bootstrap_candidates(m, theta):
            try:
                return assemble(m, theta, candidate, settings)
            except (ConvergenceError, SingularJacobianError) as e:
                last_error = e
        raise last_error or ConvergenceError(f"no bootstrap candidate converged at theta={theta:.6g}")
    q = sys.q_from(guess)
    fn = np.linalg.norm(sys.residual(q, theta))
    if fn <= settings.tolerance:
        return sys.config_from(q, theta, guess.branch)
    for _ in range(settings.max_iterations):
        J = sys.jacobian(q)
        F = sys.residual(q, theta)
        try:
            with np.errstate(all="ignore"):
                dq = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as e:
            raise SingularJacobianError(f"singular constraint Jacobian at theta={theta:.6g}") from e
        if not np.all(np.isfinite(dq)):
            raise SingularJacobianError(f"ill-conditioned constraint Jacobian at theta={theta:.6g}")
        step = 1.0
        for _ in range(20):
            qn = q + step * dq
            fn_new = np.linalg.norm(sys.residual(qn, theta))
            if fn_new < fn:
                break
            step *= 0.5
        else:
            sv = np.linalg.svd(J, compute_uv=False)
            if sv[-1] <= 1e-12 * sv[0]:
                raise SingularJacobianError(f"dead-center configuration at theta={theta:.6g}")
            raise ConvergenceError(f"Newton stalled at theta={theta:.6g}, residual {fn:.3e}")
        q, fn = qn, fn_new
        if fn <= settings.tolerance:
            base = sys.index.get(sys.crank_link) if sys.crank_link else None
            if base is not None:
                q[base + 2] = theta  # hold the drive coordinate exactly
            return sys.config_from(q, theta, guess.branch)
    raise ConvergenceError(
        f"no convergence after {settings.max_iterations} iterations at theta={theta:.6g}, "
        f"residual {fn:.3e}")


def _newton_sweep_arrays(m: Mechanism, thetas: np.ndarray, settings: SolveSettings,
                         guess: Configuration | None) -> PoseArrays:
    sys = ConstraintSystem(m)
    ids = [m.ground] + sys.moving
    n = len(thetas)
    origins = np.zeros((len(ids), n, 2))
    angles = np.zeros((len(ids), n))
    current = guess
    failed_at = None
    error = None
    for k, th in enumerate(thetas):
        try:
            current = assemble(m, float(th), current, settings)
        except (NotAssemblableError, ConvergenceError, SingularJacobianError) as e:
            failed_at, error = k, e.code
            break
        for i, lid in enumerate(ids):
            p = current.pose(lid)
            origins[i, k] = (p.origin.x, p.origin.y)
            angles[i, k] = p.angle
    return PoseArrays(ids, thetas, origins, angles, failed_at, error,
                      guess.branch if guess else None, "newton")


def sweep_arrays(m: Mechanism, thetas: np.ndarray, settings: SolveSettings = DEFAULT_SETTINGS,
                 guess: Configuration | None = None, branch: Branch = Branch.OPEN) -> PoseArrays:
    """Continuation sweep over an array of crank angles, columnar output.

    A chain the dyad plan decomposes is solved in closed form at every angle
    at once. Each dyad starts on the root nearest `guess`, or without one on
    the root `bootstrap_candidates` tries first (`branch` for a four-bar),
    and follows it by continuation. Any other chain runs Newton seeded step
    by step with the previous solution.
    """
    thetas = np.asarray(thetas, dtype=float)
    steps = _decompose(m)
    if _is_dyadic(m, steps):
        return _dyad_sweep_arrays(m, steps, thetas, guess, branch)
    return _newton_sweep_arrays(m, thetas, settings, guess)


def sweep(m: Mechanism, theta_start: float, theta_end: float, steps: int,
          settings: SolveSettings = DEFAULT_SETTINGS, guess: Configuration | None = None,
          branch: Branch = Branch.OPEN) -> SweepResult:
    """Solve `steps` configurations over [theta_start, theta_end] (inclusive)
    with continuation. On failure, partial results plus the failing index."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    thetas = np.linspace(theta_start, theta_end, steps)
    pa = sweep_arrays(m, thetas, settings, guess, branch)
    return SweepResult(pa.configurations(), pa.failed_at, pa.error)


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

def velocities(m: Mechanism, c: Configuration, crank_rate: float,
               rcond_floor: float = 1e-10) -> dict[str, tuple[Point2, float]]:
    """Link velocities from the time-differentiated constraints.

    Returns link id -> (origin linear velocity, angular velocity); the crank
    angular velocity equals crank_rate by construction.
    """
    sys = ConstraintSystem(m)
    if sys.rows != sys.n:
        raise KinematicsError("velocity analysis needs a square constraint system",
                              code="MOBILITY_NOT_ONE")
    q = sys.q_from(c)
    J = sys.jacobian(q)
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= rcond_floor * sv[0]:
        raise SingularJacobianError("constraint Jacobian is singular (dead center)")
    b = np.zeros(sys.rows)
    b[-1] = crank_rate
    qdot = np.linalg.solve(J, b)
    out = {m.ground: (Point2(0.0, 0.0), 0.0)}
    for lid, base in sys.index.items():
        out[lid] = (Point2(float(qdot[base]), float(qdot[base + 1])), float(qdot[base + 2]))
    return out


def relative_joint_angle(m: Mechanism, c: Configuration, joint_id: str) -> float:
    """Orientation of link_b minus orientation of link_a at a joint."""
    j = m.joint(joint_id)
    return c.pose(j.link_b).angle - c.pose(j.link_a).angle


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


def transmission_angle_series(m: Mechanism, pa: PoseArrays, joint_id: str) -> np.ndarray:
    """Vectorized transmission_angle_at across a sweep."""
    j = m.joint(joint_id)

    def dirs(link_id, marker):
        lk = m.link(link_id)
        v = lk.marker(marker) - lk.marker("origin")
        ang = pa.angles[pa.index(link_id)]
        if v.norm() < 1e-12:
            return ang
        return ang + math.atan2(v.y, v.x)

    diff = dirs(j.link_b, j.marker_b) - dirs(j.link_a, j.marker_a)
    folded = np.abs(diff) % math.pi
    return np.where(folded > math.pi / 2, math.pi - folded, folded)
