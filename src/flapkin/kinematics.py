"""Pose solvers for planar linkages: closed-form dyad plan, Newton fallback.

A mechanism is compiled into a dyad plan: place the crank, then solve each RR
dyad (two links sharing a pin, each pinned once to a link already placed) by
circle intersection, for all crank angles and all rows of a batch at once,
each dyad keeping one of its two roots by continuation; the four-bar is the
one-dyad case. Chains the plan cannot decompose (triads) fall back to damped
Newton iteration on the stacked joint-coincidence residuals, seeded step by
step with the previous solution, and `assemble` always polishes with Newton.
Either way a sweep is a `PoseBatch`: the poses of B mechanisms that share one
topology (a marker table) at the same crank angles, one mechanism being B = 1.

A pose in a sweep is an origin and a rotation stored as its unit vector
(cos, sin). The dyad plan builds each link's rotation from the directions it
already has (pin to joint in the world, the same two markers in the link
frame), so a sweep takes no arctan2, cos or sin per link. Link angles are
derived from the rotations only when asked for (`PoseBatch.angles`); every
physical output is read off the rotations, so none depends on a whole turn
added to a link angle.

The crank coordinate theta is the world orientation of the crank link frame,
measured counter-clockwise; derived angles are unwrapped so they stay
continuous across +-pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    BranchAmbiguousError,
    ConvergenceError,
    KinematicsError,
    NotAssemblableError,
    SingularJacobianError,
)
from .geometry import IDENTITY_POSE, Point2, Pose, drot
from .mechanism import (
    FourBar,
    Joint,
    Mechanism,
    fourbar_lengths_valid,
    fourbar_mechanism,
    fourbar_sides,
)


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


def _complex(a: np.ndarray) -> np.ndarray:
    """An (..., 2) float array of (x, y) or (cos, sin) pairs, viewed as (...)
    complex numbers x + iy: rotating a point is multiplying by its rotation."""
    return a.view(np.complex128)[..., 0]


Markers = dict[tuple[str, str], tuple[float | np.ndarray, float | np.ndarray]]
"""Marker table of B mechanisms sharing one topology: (link, marker) -> (x, y)
in the link frame, each an array of shape (B, 1), or a float where all rows
agree. It broadcasts against (B, N) arrays over N crank angles."""


def marker_table(m: Mechanism) -> Markers:
    """The one-row marker table of a mechanism."""
    return {(l.id, k): (float(p.x), float(p.y)) for l in m.links for k, p in l.markers.items()}


def _point(markers: Markers, lid: str, marker: str):
    """A marker's link-frame position x + iy: complex, or (B, 1) complex."""
    x, y = markers[lid, marker]
    return x + 1j * y


def _rows(markers: Markers) -> int:
    """B of a marker table: the length of its array entries, 1 if it has none."""
    return max((len(v) for xy in markers.values() for v in xy if isinstance(v, np.ndarray)), default=1)


@dataclass
class PoseBatch:
    """Sweeps of the B mechanisms of a marker table, all at the same crank
    angles: link origins (B, L, N, 2) and link rotations (B, L, N, 2), each a
    unit vector (cos, sin). Row b closes at its first failed_at[b] samples (N if
    at every angle; past them origins are zero and rotations the identity), and
    errors[b] is its failure code or None. One mechanism is B = 1:
    `configuration(s)` read row 0.

    The rotations are the poses; `angles` is derived from them on first
    access. Marker paths, gait series and transmission angles read the
    rotations alone, so they do not depend on a whole turn added to any link
    angle (by a guess, say); only the derived angles do.
    """

    ids: list[str]
    thetas: np.ndarray
    origins: np.ndarray
    rotations: np.ndarray
    failed_at: np.ndarray
    errors: list[str | None]
    markers: Markers
    branches: list[Branch | None]
    solver: str = "dyad"  # "dyad" (closed-form plan) or "newton"
    crank: str | None = None  # the driven link, whose angle is theta
    guess: Configuration | None = None  # angles take their whole turns from it

    def index(self, link_id: str) -> int:
        return self.ids.index(link_id)

    def marker_world(self, ref: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
        """World path (x, y), each (B, N), of one marker across the sweeps."""
        i = self.index(ref[0])
        z = _complex(self.origins[:, i]) + _complex(self.rotations[:, i]) * _point(self.markers, *ref)
        return z.real, z.imag

    @cached_property
    def angles(self) -> np.ndarray:
        """(B, L, N) link orientations: the crank's is theta exactly; every
        other link's is the arctan2 of its rotation, unwrapped along the sweep
        and moved by whole turns to the nearest of its angle in `guess` at
        the first sample. Zero past failed_at."""
        angles = np.unwrap(np.angle(_complex(self.rotations)), axis=-1)
        n = len(self.thetas)
        if self.guess is not None and n:
            ref = np.array([0.0 if lid in (self.ids[0], self.crank) else self.guess.pose(lid).angle
                            for lid in self.ids])
            angles += 2.0 * math.pi * np.round((ref - angles[..., 0]) / (2.0 * math.pi))[..., None]
        if self.crank is not None:
            angles[:, self.index(self.crank)] = self.thetas
        angles[np.broadcast_to((np.arange(n) >= self.failed_at[:, None])[:, None], angles.shape)] = 0.0
        return angles

    def configuration(self, k: int) -> Configuration:
        poses = {
            lid: Pose(Point2(self.origins[0, i, k, 0], self.origins[0, i, k, 1]), float(self.angles[0, i, k]))
            for i, lid in enumerate(self.ids)
        }
        return Configuration(float(self.thetas[k]), poses, self.branches[0])

    def configurations(self) -> list[Configuration]:
        return [self.configuration(k) for k in range(self.failed_at[0])]


# ---------------------------------------------------------------------------
# Dyad plan: the crank, then RR dyads by circle intersection


@dataclass(frozen=True)
class _Step:
    """One placement of a dyad plan. A pin is (own marker, placed link, its marker).

    kind "crank": the driven link, pinned to ground. "dyad": two links sharing
    a joint (their `shared` markers), each pinned once to a placed link.
    "rigid": one link pinned to two placed links. "hang": one link pinned
    once, left at orientation zero. "free": an unreachable link, left at the
    identity.
    """

    kind: str
    links: tuple[str, ...]
    pins: tuple[tuple[str, str, str], ...] = ()
    shared: tuple[str, ...] = ()


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
            sides = [pins(lid, skip=j) for lid in (j.link_a, j.link_b)]
            if all(sides):
                return _Step("dyad", (j.link_a, j.link_b), (sides[0][0], sides[1][0]),
                             (j.marker_a, j.marker_b))

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


@dataclass(frozen=True)
class _Plan:
    """What a mechanism's topology alone fixes: the dyad plan's steps, whether
    they solve the whole chain (crank and dyads only, square system), and the
    sides of the four-bar loop it is (`fourbar_sides`), if it is one."""

    steps: tuple[_Step, ...]
    dyadic: bool
    sides: tuple[tuple[str, str, str], ...] | None


_PLANS: dict[tuple, _Plan] = {}


def _plan(m: Mechanism) -> _Plan:
    """m's `_Plan`, built once per topology (the links, and the joints with
    their markers and drive) and then reused; at most 64 are kept."""
    key = (m.ground, tuple(l.id for l in m.links),
           tuple((j.id, j.link_a, j.marker_a, j.link_b, j.marker_b, j.actuated) for j in m.joints))
    plan = _PLANS.get(key)
    if plan is None:
        steps = tuple(_decompose(m))
        dyadic = (bool(steps) and steps[0].kind == "crank"
                  and 2 * len(m.joints) + 1 == 3 * (len(m.links) - 1)
                  and all(st.kind in ("crank", "dyad") for st in steps))
        if len(_PLANS) >= 64:
            _PLANS.clear()
        plan = _PLANS[key] = _Plan(steps, dyadic, fourbar_sides(m))
    return plan


def _row(v, b: int) -> float:
    """Row b of a table entry (a float or a (B, 1) array)."""
    return float(np.ravel(v)[b if np.size(v) > 1 else 0])


def _local_length(markers: Markers, lid: str, m1: str, m2: str):
    """Per-row distance between two markers of a link: a float, or (B, 1) when
    the table has rows. Taken row by row with `math.hypot`, as the scalar
    geometry (`Point2.norm`, `as_fourbar`) takes it; numpy's hypot may differ
    from it in the last bit."""
    (x1, y1), (x2, y2) = markers[lid, m1], markers[lid, m2]
    dx, dy = x2 - x1, y2 - y1
    if isinstance(dx, float) and isinstance(dy, float):
        return math.hypot(dx, dy)
    dx, dy = np.ravel(dx).tolist(), np.ravel(dy).tolist()
    rows = max(len(dx), len(dy))  # a float entry is one value for every row
    return np.array(list(map(math.hypot, dx * (rows // len(dx)), dy * (rows // len(dy)))))[:, None]


def _unit(v, length, floor: float = 0.0):
    """Per-row v / length for a link-frame vector v (complex, 0-d or (B, 1))
    of the given length; 1, the link's x axis, where the length is 0 or below
    floor."""
    keep = (length > 0.0) & (length >= floor)
    return np.where(keep, v / np.where(keep, length, 1.0), 1.0)


def _place_steps(m: Mechanism, steps: tuple[_Step, ...], markers: Markers, thetas: np.ndarray, pick):
    """Place every link of the B mechanisms of `markers` at every crank angle
    of `thetas` at once; m supplies the topology.

    Returns the link ids (the ground, then the moving links), their origins
    and rotations, each (B, L, N, 2) as (x, y) and (cos, sin), and the (B, N)
    mask of samples at which every dyad closes. A link pinned at a placed
    point takes the rotation that turns its local direction from that pin to
    its other pin onto the world one; only the crank's comes from an angle
    (theta). Points and rotations are worked with as complex numbers x + iy
    and cos + i sin. The i-th dyad's roots are base +- offset, each given as
    (x, y); `pick(i, base, offset, n_ok)` returns its root sign per sample,
    given that each row's first n_ok[b] samples (and all earlier dyads')
    close. Circles that miss are clamped to their nearest approach.
    """
    n = len(thetas)
    rows = _rows(markers)
    ids = [m.ground, *m.moving_link_ids()]
    origins, rotations = np.empty((rows, len(ids), n, 2)), np.empty((rows, len(ids), n, 2))
    poses = {lid: (_complex(origins)[:, i], _complex(rotations)[:, i]) for i, lid in enumerate(ids)}
    ok = np.ones((rows, n), dtype=bool)

    def world(lid, marker):
        origin, rotation = poses[lid]
        return origin + rotation * _point(markers, lid, marker)

    def place(lid, marker, at, rotation):
        """Link lid at `rotation`, its marker on the world point `at`."""
        poses[lid][0][...] = at - rotation * _point(markers, lid, marker)
        poses[lid][1][...] = rotation

    def fix(lid):
        """Link lid at the identity pose, as the ground is."""
        poses[lid][0][...], poses[lid][1][...] = 0.0, 1.0

    def place_along(lid, m1, at, m2, local_length, w, length):
        """Local marker m1 on `at`, and the link-frame vector from m1 to marker
        m2 (of length local_length) turned onto the world vector w (of the
        given length); onto the x axis where w is 0, as arctan2(0, 0) = 0
        would have it."""
        local = _unit(_point(markers, lid, m2) - _point(markers, lid, m1), local_length)
        zero_w = length == 0.0
        place(lid, m1, at, (w + zero_w) * np.conj(local) / (length + zero_w))

    fix(m.ground)
    n_dyads = 0
    for st in steps:
        if st.kind == "free":
            fix(st.links[0])
            continue
        (own, other, other_marker), *more = st.pins
        p1 = world(other, other_marker)
        if st.kind == "crank":
            place(st.links[0], own, p1, np.cos(thetas) + 1j * np.sin(thetas))
        elif st.kind == "hang":
            place(st.links[0], own, p1, 1.0)
        elif st.kind == "rigid":
            own2, other2, marker2 = more[0]
            w = world(other2, marker2) - p1
            place_along(st.links[0], own, p1, own2, _local_length(markers, st.links[0], own, own2), w, np.abs(w))
        else:
            own2, other2, marker2 = more[0]
            p2 = world(other2, marker2)
            ra = _local_length(markers, st.links[0], own, st.shared[0])
            rb = _local_length(markers, st.links[1], own2, st.shared[1])
            span = p2 - p1
            d = np.abs(span)
            # Heron's factors: the circles meet where none is negative
            f1, f2, f3, f4 = ra + rb - d, d - ra + rb, d + ra - rb, d + ra + rb
            eps = 1e-12 * f4
            ok &= (f1 >= -eps) & (f2 >= -eps) & (f3 >= -eps) & (d > eps)
            d = np.where(d > 0.0, d, 1.0)
            h = np.sqrt(np.maximum(f1 * f2 * f3 * f4, 0.0)) / (2.0 * d)
            a = (ra * ra - rb * rb + d * d) / (2.0 * d)
            u = span / d
            along = a * u
            base, offset = p1 + along, 1j * (h * u)
            sign = pick(n_dyads, (base.real, base.imag), (offset.real, offset.imag),
                        np.logical_and.accumulate(ok, axis=1).sum(axis=1))
            n_dyads += 1
            # the joint from each pin: `a` along the center line p1 -> p2 and
            # sign * h across it from p1, and span less from p2
            to_joint = along + sign * offset
            hh = h * h
            place_along(st.links[0], own, p1, st.shared[0], ra, to_joint, np.sqrt(a * a + hh))
            place_along(st.links[1], own2, p2, st.shared[1], rb, to_joint - span, np.sqrt((a - d) ** 2 + hh))
    return ids, origins, rotations, ok


def _continue_roots(base, offset, n: int, s: float) -> list[float]:
    """Root signs along a sweep: start on root s, then take the root nearest the linear
    extrapolation of the joint's last two positions (at a change point, the root whose step
    is closest to the previous step). Plain floats, for the rows `_follow_roots` passes on."""
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


def _follow_roots(base, offset, n_ok: np.ndarray, s: np.ndarray) -> np.ndarray:
    """`_continue_roots` of B rows from roots s, 1.0 past n_ok. The loop's test t (same float
    ops) on each row's constant-sign path: a row it never flips keeps s; the rest run the loop."""
    b, o = np.split(np.stack(np.broadcast_arrays(*base, *offset)), 2)  # (x, y) by (B, N)
    s, k = s[:, None], np.arange(b.shape[-1])
    p = b + s * o
    v = np.zeros_like(p[..., 1:])  # the loop's last step: none before sample 1
    v[..., 1:] = np.diff(p[..., :-1])
    t = (o[..., 1:] * (p[..., :-1] + v - b[..., 1:])).sum(axis=0)  # ox * (..) + oy * (..)
    switch = np.where(s > 0.0, ~(t >= 0.0), t > 0.0) & (k[1:] < n_ok[:, None])  # NaN: root -1
    sign = np.where(k < n_ok[:, None], s, 1.0)
    for r in np.flatnonzero(switch.any(axis=1)).tolist():
        sign[r, :n_ok[r]] = _continue_roots(b[:, r], o[:, r], int(n_ok[r]), float(s[r, 0]))
    return sign


def _dyad_sweep_arrays(m: Mechanism, plan: _Plan, markers: Markers, thetas: np.ndarray,
                       guess: Configuration | None, branch: Branch) -> PoseBatch:
    """Closed-form sweeps of the mechanisms of a marker table that share m's
    dyad plan, all B rows in one pass, root continuation included."""
    n = len(thetas)
    steps, sides = plan.steps, plan.sides
    dyads = [st for st in steps if st.kind == "dyad"]
    rows = _rows(markers)
    is_fourbar = np.zeros(rows, dtype=bool) if sides is None else fourbar_lengths_valid(np.hstack(
        [np.broadcast_to(_local_length(markers, *side), (rows, 1)) for side in sides]))
    # sign of the open branch's root: the coupler-rocker triangle keeps its orientation
    open_sign = -1.0 if sides is not None and dyads[0].links[0] == sides[3][0] else 1.0
    start = np.where(is_fourbar, open_sign if branch is Branch.OPEN else -open_sign, 1.0)
    first = np.zeros(rows)  # root sign each row's first dyad starts on; 0 if none

    def start_sign(st: _Step, b: int, base, offset) -> float:
        g = guess.pose(st.links[0]).transform(m.link(st.links[0]).marker(st.shared[0]))
        bx, by, ox, oy = (float(base[0][b, 0]), float(base[1][b, 0]),
                          float(offset[0][b, 0]), float(offset[1][b, 0]))
        d_plus = math.hypot(bx + ox - g.x, by + oy - g.y)
        d_minus = math.hypot(bx - ox - g.x, by - oy - g.y)
        scale = sum(_row(_local_length(markers, lid, pin[0], mk), b)
                    for lid, pin, mk in zip(st.links, st.pins, st.shared))
        if abs(d_plus - d_minus) <= 1e-12 * scale:
            raise BranchAmbiguousError(
                f"both roots of the {st.links[0]}-{st.links[1]} dyad are equidistant from the "
                "guess (change point); pass an explicit branch")
        return 1.0 if d_plus < d_minus else -1.0

    def pick(i, base, offset, n_ok):
        s = start if guess is None else np.array(
            [start_sign(dyads[i], b, base, offset) if n_ok[b] else 1.0 for b in range(rows)])
        if i == 0:
            first[:] = np.where(n_ok > 0, s, 0.0)
        return _follow_roots(base, offset, n_ok, s)

    ids, origins, rotations, ok = _place_steps(m, steps, markers, thetas, pick)
    failed_at = np.logical_and.accumulate(ok, axis=1).sum(axis=1)  # leading closed samples
    if (failed_at < n).any():
        after = np.broadcast_to((np.arange(n) >= failed_at[:, None])[:, None], origins.shape[:3])
        origins[after] = 0.0
        rotations[after] = (1.0, 0.0)
    branches = [(branch if not s else Branch.OPEN if s == open_sign else Branch.CROSSED) if fb
                else guess.branch if guess else None for s, fb in zip(first, is_fourbar)]
    errors = [NotAssemblableError.code if f < n else None for f in failed_at.tolist()]
    return PoseBatch(ids, thetas, origins, rotations, failed_at, errors, markers, branches,
                     crank=steps[0].links[0], guess=guess)


def solve_fourbar(fb: FourBar, theta: float, branch: Branch = Branch.OPEN) -> Configuration:
    """Exact closed-form pose of the canonical four-bar mechanism at crank
    angle theta (the one-dyad plan). Raises NotAssemblableError past a dead
    center."""
    pb = sweep_arrays(fourbar_mechanism(fb), np.array([float(theta)]), branch=branch)
    if pb.errors[0]:
        raise NotAssemblableError(
            f"four-bar {fb.lengths} cannot close at crank angle {theta:.6g} rad")
    return pb.configuration(0)


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
    steps = _plan(m).steps
    k = sum(st.kind == "dyad" for st in steps)
    kv = min(k, 10)  # only the last kv dyads vary; max_candidates never reaches further
    bits = (np.arange(2 ** kv)[:, None] >> np.arange(kv - 1, -1, -1)) & 1
    signs = np.hstack([np.ones((2 ** kv, k - kv)), 1.0 - 2.0 * bits])
    repeated = np.zeros(len(signs), dtype=bool)

    def pick(i, base, offset, n_ok):
        repeated[(offset[0][0] == 0.0) & (offset[1][0] == 0.0) & (signs[:, i] < 0.0)] = True
        return signs[:, i]

    ids, origins, rotations, _ = _place_steps(m, steps, marker_table(m), np.full(len(signs), float(theta)), pick)
    angles = np.angle(_complex(rotations)[0])
    if steps and steps[0].kind == "crank":
        angles[ids.index(steps[0].links[0])] = theta
    xy, angles = origins[0].tolist(), angles.tolist()
    return [Configuration(theta, {lid: Pose(Point2(*xy[i][r]), angles[i][r]) for i, lid in enumerate(ids)})
            for r in np.flatnonzero(~repeated)[:max_candidates].tolist()]


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
    return sys.config_from(_newton(sys, sys.q_from(guess), theta, settings), theta, guess.branch)


def _newton(sys: ConstraintSystem, q: np.ndarray, theta: float, settings: SolveSettings) -> np.ndarray:
    """`assemble`'s iteration on the unknowns q of a guess; returns the root
    it converges to, the drive coordinate then held at theta exactly."""
    fn = np.linalg.norm(sys.residual(q, theta))
    if fn <= settings.tolerance:
        return q
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
            return q
    raise ConvergenceError(
        f"no convergence after {settings.max_iterations} iterations at theta={theta:.6g}, "
        f"residual {fn:.3e}")


def _newton_sweep_arrays(m: Mechanism, markers: Markers, thetas: np.ndarray, settings: SolveSettings,
                         guess: Configuration | None) -> PoseBatch:
    """Newton continuation of each row of a marker table in turn: `assemble`
    at the first crank angle, then each step seeded with the previous root."""
    rows, n = _rows(markers), len(thetas)
    ids = [m.ground, *m.moving_link_ids()]
    origins = np.zeros((rows, len(ids), n, 2))
    angles = np.zeros((rows, len(ids), n))
    failed_at = np.full(rows, n)
    errors: list[str | None] = [None] * rows
    for b in range(rows):
        mb = _row_mechanism(m, markers, b)
        sys = ConstraintSystem(mb)
        for k, theta in enumerate(thetas.tolist()):
            try:
                q = (_newton(sys, q, theta, settings) if k else
                     sys.q_from(assemble(mb, theta, guess, settings)))
            except (NotAssemblableError, ConvergenceError, SingularJacobianError) as e:
                failed_at[b], errors[b] = k, e.code
                break
            xya = q.reshape(-1, 3)
            origins[b, 1:, k], angles[b, 1:, k] = xya[:, :2], xya[:, 2]
    act = m.actuated_joint()
    return PoseBatch(ids, thetas, origins, np.stack([np.cos(angles), np.sin(angles)], axis=-1),
                     failed_at, errors, markers, [guess.branch if guess else None] * rows, "newton",
                     act.other(m.ground) if act is not None else None, guess)


def _row_mechanism(m: Mechanism, markers: Markers, b: int) -> Mechanism:
    """m with the marker coordinates of row b of a marker table."""
    return replace(m, links=tuple(
        replace(l, markers={k: Point2(*(_row(v, b) for v in markers[l.id, k])) for k in l.markers})
        for l in m.links))


def sweep_arrays(m: Mechanism, thetas: np.ndarray, settings: SolveSettings = DEFAULT_SETTINGS,
                 guess: Configuration | None = None, branch: Branch = Branch.OPEN,
                 markers: Markers | None = None) -> PoseBatch:
    """Continuation sweeps over an array of crank angles, columnar output.

    A chain the dyad plan decomposes is solved in closed form at every angle
    at once. Each dyad starts on the root nearest `guess`, or without one on
    the root `bootstrap_candidates` tries first (`branch` for a four-bar),
    and follows it by continuation. Any other chain runs Newton seeded step
    by step with the previous solution.

    With a marker table of B rows, m supplies only the topology and the B
    mechanisms are swept together: the dyad plan solves all rows in one array
    pass, Newton sweeps them one by one. Without one, m is swept alone, as
    the one-row table `marker_table(m)`.
    """
    thetas = np.asarray(thetas, dtype=float)
    markers = marker_table(m) if markers is None else markers
    plan = _plan(m)
    if plan.dyadic:
        return _dyad_sweep_arrays(m, plan, markers, thetas, guess, branch)
    return _newton_sweep_arrays(m, markers, thetas, settings, guess)


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


def transmission_angle_series(m: Mechanism, pb: PoseBatch, joint_id: str) -> np.ndarray:
    """(B, N) transmission angle series at a joint of m's topology: the angle
    between the two link directions as lines, in [0, pi/2]. A link's direction
    is its rotation applied to the per-row unit vector from its origin marker to
    the joint marker (its x axis when they coincide)."""
    j = m.joint(joint_id)

    def direction(link_id, marker):
        local = _point(pb.markers, link_id, marker) - _point(pb.markers, link_id, "origin")
        return (_complex(pb.rotations[:, pb.index(link_id)])
                * _unit(local, _local_length(pb.markers, link_id, "origin", marker), floor=1e-12))

    # the relative rotation b over a; folding its angle into [0, pi/2] takes
    # its cos and sin to their absolute values
    rel = direction(j.link_b, j.marker_b) * np.conj(direction(j.link_a, j.marker_a))
    return np.arctan2(np.abs(rel.imag), np.abs(rel.real))
