"""Pose solvers for planar linkages: closed-form dyad plan, Newton fallback.

A marker table (`Markers`) is one (B, M) complex block of link-frame marker
positions x + iy, a row per mechanism and a named column per (link, marker),
for B mechanisms that share one topology; one mechanism is B = 1. Every
reader takes the columns it needs with `Markers.take`.

A topology is compiled once into a dyad plan in index form, in the order of
`mechanism.placement`: place the crank, then solve each RR dyad (two links
sharing a pin, each pinned once to a link already placed) by circle
intersection; the four-bar is the one-dyad case. A chain whose actuated joint
is off the ground is a KinematicsError (ACTUATOR_NOT_GROUNDED) in every
solver. A dyad's root sign is its orientation, its assembly mode, which can
only change where its two roots meet (its half-chord h is 0): a sweep keeps
the sign but at samples where h may reach 0, and there takes the continuous
root. A sweep starts every dyad on the plan's own root (a four-bar on its
`branch`) and takes no guess; only `assemble` starts from one. It takes the
plan's markers from the table, and their lengths, then runs each step as a few
array operations on slots of one pose block, for all rows of the table and all
crank angles at once. Chains the plan cannot decompose (triads) fall back to
`damped_newton`, the one Newton loop (the compliance layer runs it on its KKT
conditions), on the joint-coincidence residuals, seeded step by step with the
previous solution, one row of the table at a time; `assemble` is its one-angle
case. Either way a sweep is a `PoseBatch`: the poses of the table's B
mechanisms at the same crank angles.

A pose in a sweep is an origin and a rotation stored as its unit vector
(cos, sin), built from directions the plan already has (pin to joint in the
world, the same two markers in the link frame): a sweep takes no arctan2, cos
or sin per link. Link angles are derived from the rotations only when asked
for (`PoseBatch.angles`); every physical output is read off the rotations, so
none depends on a whole turn added to a link angle. Nor does `assemble` from a
guess depend on a whole turn in theta: its crank starts at the guess's angle
plus the whole turns nearest theta.

The crank coordinate theta is the world orientation of the crank link frame,
measured counter-clockwise; derived angles are unwrapped so they stay
continuous across +-pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    KinematicsError,
    NotAssemblableError,
    SingularJacobianError,
)
from .geometry import IDENTITY_POSE, Point2, Pose
from .mechanism import (
    FourBar,
    Mechanism,
    fourbar_change_point,
    fourbar_lengths_valid,
    fourbar_mechanism,
    fourbar_sides,
    per_topology,
    placement,
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


TOLERANCE = 1e-10  # Newton's residual norm at a root, here and in the compliance layer
MAX_ITERATIONS = 50  # steps per `damped_newton` solve, for poses and equilibria alike
RCOND_FLOOR = 1e-10  # a Jacobian below this ratio of singular values is singular (`velocities`, statics)


def _complex(a: np.ndarray) -> np.ndarray:
    """An (..., 2) float array of (x, y) or (cos, sin) pairs, viewed as (...)
    complex numbers x + iy: rotating a point is multiplying by its rotation."""
    return a.view(np.complex128)[..., 0]


@dataclass(frozen=True)
class Markers:
    """Marker table of B mechanisms sharing one topology: the (B, M) block
    `points` of link-frame positions x + iy, whose column for each (link,
    marker) is `columns[link, marker]`."""

    columns: dict[tuple[str, str], int]
    points: np.ndarray

    def take(self, refs) -> np.ndarray:
        """(B, R) positions of the markers refs, a new block."""
        return self.points[:, [self.columns[ref] for ref in refs]]


def marker_table(m: Mechanism) -> Markers:
    """The one-row marker table of a mechanism."""
    refs = [(l.id, k) for l in m.links for k in l.markers]
    return Markers({ref: i for i, ref in enumerate(refs)},
                   np.array([[float(p.x) + 1j * float(p.y) for l in m.links for p in l.markers.values()]]))


def _spans(points: np.ndarray, spans: np.ndarray, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and unit vectors, each (B, K), of the link-frame vectors from column
    spans[k, 0] to column spans[k, 1] of a (B, M) point block. Lengths are taken row by row
    with `math.hypot`, as the scalar geometry (`Point2.norm`, `as_fourbar`) takes them (numpy's
    hypot may differ in the last bit); a unit vector is 1, the x axis, below floor or at 0."""
    v = points[:, spans[:, 1]] - points[:, spans[:, 0]]
    hypot = map(math.hypot, v.real.ravel().tolist(), v.imag.ravel().tolist())
    lengths = np.fromiter(hypot, float, v.size).reshape(v.shape)
    return lengths, np.divide(v, lengths, out=np.ones_like(v), where=lengths >= max(floor, math.ulp(0.0)))


@dataclass
class PoseBatch:
    """Sweeps of the B mechanisms of a marker table, all at the same crank
    angles: link origins (B, L, N, 2) and link rotations (B, L, N, 2), each a
    unit vector (cos, sin). Row b closes at its first failed_at[b] samples (N if
    at every angle; past them origins are zero and rotations the identity), and
    errors[b] is its failure code or None. One mechanism is B = 1:
    `configuration(s)` read row 0 at the samples it closes at (IndexError past them).

    The rotations are the poses: marker paths (`marker_paths`, one (B, R, N)
    block for many markers), gait series and transmission angles read them
    alone, and `angles` is derived from them on first access."""

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

    def index(self, link_id: str) -> int:
        return self.ids.index(link_id)

    def marker_paths(self, refs) -> np.ndarray:
        """(B, R, N) world paths x + iy of the markers refs across the sweeps."""
        origins, rotations = _complex(self.origins), _complex(self.rotations)
        z = np.empty((len(refs), len(origins), len(self.thetas)), dtype=complex)  # a path per block
        for path, (lid, _), p in zip(z, refs, self.markers.take(refs).T):
            i = self.index(lid)
            np.add(origins[:, i], np.multiply(rotations[:, i], p[:, None], out=path), out=path)
        return z.transpose(1, 0, 2)

    def marker_world(self, ref: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
        """World path (x, y), each (B, N), of one marker across the sweeps."""
        z = self.marker_paths([ref])[:, 0]
        return z.real, z.imag

    @cached_property
    def angles(self) -> np.ndarray:
        """(B, L, N) link orientations: the crank's is theta exactly; every
        other link's is the arctan2 of its rotation, unwrapped along the sweep.
        Zero past failed_at."""
        angles = np.unwrap(np.angle(_complex(self.rotations)), axis=-1)
        n = len(self.thetas)
        if self.crank is not None:
            angles[:, self.index(self.crank)] = self.thetas
        angles[np.broadcast_to((np.arange(n) >= self.failed_at[:, None])[:, None], angles.shape)] = 0.0
        return angles

    def configuration(self, k: int) -> Configuration:
        if not 0 <= k < self.failed_at[0]:  # row 0 has no poses past its failure
            raise IndexError(f"sample {k} is outside the {self.failed_at[0]} samples row 0 closes at")
        origins, angles = self.origins[0, :, k].tolist(), self.angles[0, :, k].tolist()
        poses = {lid: Pose(Point2(x, y), a) for lid, (x, y), a in zip(self.ids, origins, angles)}
        return Configuration(float(self.thetas[k]), poses, self.branches[0])

    def configurations(self) -> list[Configuration]:
        return [self.configuration(k) for k in range(self.failed_at[0])]


# ---------------------------------------------------------------------------
# Dyad plan: the crank, then RR dyads by circle intersection


@dataclass(frozen=True)
class _Plan:
    """A topology compiled once, for the dyad plan and Newton alike. Pose slots
    are positions in `ids`, the ground first; a sweep takes the markers `refs`
    from its marker table as the columns of one block, and `_spans` of the
    column pairs `spans`. A step is (kind, slots, pins, owns, spans): its
    links' pose slots, each pin's placed (slot, column), the column of each
    link's own pinned marker, and the span from it to the link's second pin
    (rigid) or shared joint (dyad). `dyadic`: crank and dyads solve the whole chain (a
    square system); `sides`: the spans of the four-bar loop it is, if it is
    one, whose open branch (coupler-rocker triangle keeping its orientation)
    is `open_sign`. The Newton system's q holds the (x, y, angle) of each link
    of ids[1:], `crank`'s angle at column `drive`; joint r's ends, (link,
    marker) on link a then link b, are ends[2r:2r + 2] in slots[r]. Its
    Jacobian is a constant +-1 `template` over the slots' columns (the
    ground's three first) whose angle entries, at the flat indices
    `angle_cells`, `ConstraintSystem.jacobian` fills in; `signs` are `start_block`'s dyad-root signs."""

    ids: tuple[str, ...]
    refs: tuple[tuple[str, str], ...]
    spans: np.ndarray  # (K, 2)
    steps: tuple[tuple, ...]
    dyadic: bool
    sides: list[int] | None
    open_sign: float
    crank: str | None
    drive: int | None
    ends: tuple[tuple[str, str], ...]  # (2J,)
    slots: np.ndarray  # (J, 2)
    template: np.ndarray  # (2J, 3L), and the drive row with a crank
    angle_cells: np.ndarray  # (4J,)
    signs: np.ndarray  # (2^min(D, 10), D) for D dyads


@per_topology
def _plan(m: Mechanism) -> _Plan:
    if (dup := next((lid for i, lid in enumerate(m.link_ids) if lid in m.link_ids[:i]), None)) is not None:
        raise KinematicsError(f"duplicate link id {dup!r}", code="DUPLICATE_ID")
    steps, ids = placement(m), (m.ground, *m.moving_link_ids())
    if (act := m.actuated_joint()) is not None and m.ground not in (act.link_a, act.link_b):
        raise KinematicsError(f"actuated joint {act.id!r} is not on the ground link", code="ACTUATOR_NOT_GROUNDED")
    refs: dict[tuple[str, str], int] = {}
    spans: dict[tuple[int, int], int] = {}

    def span(lid, m1, m2):
        return spans.setdefault(tuple(refs.setdefault((lid, mk), len(refs)) for mk in (m1, m2)), len(spans))

    program = tuple((kind, tuple(map(ids.index, links)),
                     tuple((ids.index(lid), refs.setdefault((lid, mk), len(refs))) for _, lid, mk in pins),
                     tuple(refs.setdefault((lid, own), len(refs)) for lid, (own, _, _) in zip(links, pins)),
                     tuple(span(lid, own, end) for lid, (own, _, _), end
                           in zip(links, pins, shared or [own for own, _, _ in pins[1:]])))
                    for kind, links, pins, shared in steps)
    loop = fourbar_sides(m)  # then the steps are the crank and one dyad, the rocker's pin on the ground
    sides = None if loop is None else [span(*side) for side in loop[0]]
    dyadic = (bool(steps) and steps[0][0] == "crank" and 2 * len(m.joints) + 1 == 3 * (len(m.links) - 1)
              and all(step[0] in ("crank", "dyad") for step in steps))
    crank = steps[0][1][0] if steps and steps[0][0] == "crank" else None
    slot = {lid: i for i, lid in enumerate(ids)}
    ends = tuple(end for j in m.joints for end in ((j.link_a, j.marker_a), (j.link_b, j.marker_b)))
    slots = np.array([slot[lid] for lid, _ in ends], dtype=np.intp).reshape(-1, 2)
    r, x, width = 2 * np.arange(len(slots))[:, None], 3 * slots, 3 * len(ids)  # joints' first rows, ends' x
    template = np.zeros((2 * len(slots) + (crank is not None), width))
    template[r, x] = (1.0, -1.0)  # the gap: link a's marker less link b's
    template[r + 1, x + 1] = (1.0, -1.0)
    if crank is not None:
        template[-1, 3 * slot[crank] + 2] = 1.0
    angle_cells = np.stack([r * width + x + 2, (r + 1) * width + x + 2], axis=-1).ravel()
    k = sum(kind == "dyad" for kind, *_ in steps)
    kv = min(k, 10)  # only the last kv dyads vary; 16 starts never reach further
    bits = (np.arange(2 ** kv)[:, None] >> np.arange(kv - 1, -1, -1)) & 1
    return _Plan(ids, tuple(refs), np.array(list(spans), dtype=np.intp).reshape(-1, 2), program, dyadic,
                 sides, -1.0 if sides and steps[1][2][0][1] == m.ground else 1.0,
                 crank, None if crank is None else 3 * slot[crank] - 1, ends, slots, template, angle_cells,
                 np.hstack([np.ones((2 ** kv, k - kv)), 1.0 - 2.0 * bits]))


def _over(z: np.ndarray, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """z / r for complex z and positive real r, into out, as z times 1/r - 0j at about half the cost of a
    75 x 128 division: numpy's (z.real + z.imag * 0, z.imag - z.real * 0) * (1/r) bit for bit, unless
    z / r underflows."""
    inv = np.full(np.shape(r), -0.0j)
    np.reciprocal(r, out=inv.real)
    return np.multiply(z, inv, out=inv if out is None else out)


def _turn(w: np.ndarray, length, unit_conj, out: np.ndarray) -> np.ndarray:
    """The rotation (into out) that turns a link-frame unit vector, given conjugated, onto the
    world vector w of the given length; onto the x axis where w is 0. No complex product here
    is taken in place: numpy takes one on a single element without fusing its multiply-add."""
    zero = length == 0.0
    return _over((w + zero) * unit_conj, length + zero, out)


def _place_steps(plan: _Plan, points: np.ndarray, lengths: np.ndarray, units: np.ndarray,
                 thetas: np.ndarray, pick):
    """Place every link of the B mechanisms whose link-frame markers are the
    (B, M) block `points` (plan.refs, taken from a marker table; `lengths` and
    `units` are `_spans` of plan.spans) at every crank angle of `thetas` at once.

    Returns the origins and rotations of the links of plan.ids, each (B, L,
    N, 2) as (x, y) and (cos, sin), and the (B,) count of each row's leading
    samples at which every dyad closes. A link pinned at a placed point takes
    the rotation that turns its local direction from that pin to its other
    pin onto the world one; only the crank's comes from an angle (theta).
    Points and rotations are complex, x + iy and cos + i sin; the ground's
    points are (B, 1) columns. The i-th dyad's roots are base +- offset, the
    offset being i h (h >= 0) times the unit vector from its first pin to its
    second; `pick(i, base, offset, hh, n_ok)` returns its root sign per sample,
    given h^2 = hh and that each row's first n_ok[b] samples (and all earlier
    dyads') close. Circles that miss are clamped to their nearest approach.
    """
    rows, n, units = len(points), len(thetas), np.conj(units)
    # one allocation: as two, glibc gave back and faulted in their pages afresh on every call
    origins, rotations = np.empty((2, rows, len(plan.ids), n, 2))
    org, rot = _complex(origins), _complex(rotations)
    org[:, 0], rot[:, 0] = 0.0, 1.0
    poses = [(0j, 1 + 0j), *((org[:, i], rot[:, i]) for i in range(1, len(plan.ids)))]
    ok, closed, n_dyads = np.ones((rows, n), dtype=bool), np.full(rows, n), 0
    for kind, slots, pins, owns, ends in plan.steps:
        at = [poses[s][0] + poses[s][1] * points[:, c:c + 1] for s, c in pins]
        turns = [rot[:, s] for s in slots]
        if kind == "crank":
            turns[0][...] = np.cos(thetas) + 1j * np.sin(thetas)
        elif kind == "hang":
            turns[0][...] = 1.0
        elif kind == "rigid":
            w = at[1] - at[0]
            _turn(w, np.abs(w), units[:, ends[0], None], turns[0])
        else:
            (p1, p2), ra, rb = at, lengths[:, ends[0], None], lengths[:, ends[1], None]
            span = p2 - p1
            d = np.abs(span)
            # Heron's factors: the circles meet where none is negative
            f1, f2, f3 = ra + rb - d, d - ra, d + ra
            f2 += rb
            f4 = f3 + rb
            f3 -= rb
            eps = 1e-12 * f4
            ok &= (np.minimum(np.minimum(f1, f2), f3) >= -eps) & (d > eps)
            d = np.where(d > 0.0, d, 1.0)
            # the roots: `a` along the center line p1 -> p2 from p1, and
            # +-h across it; h is 0 where the circles miss
            h = np.multiply(f1, f2, out=f1)
            h *= f3
            h *= f4
            del f2, f3, f4, eps
            h = np.sqrt(np.maximum(h, 0.0, out=h), out=h)
            d2 = 2.0 * d
            h /= d2
            a = d * d
            a += ra * ra - rb * rb
            a /= d2
            u = _over(span, d)
            offset = 1j * (h * u)
            along = a * u
            del u, d2  # a 75-row cost call peaks in this step: free each block once it is dead, as the peak
            # must stay under glibc's trim threshold (BENCH_21.json earlier_series; re-run fourbar_synthesis)
            hh = np.multiply(h, h, out=h)
            closed = np.where(ok.all(axis=1), n, ok.argmin(axis=1)) if n else closed  # leading closed samples
            sign = pick(n_dyads, p1 + along, offset, hh, closed)
            n_dyads += 1
            # the joint from p1, and from p2 (span less); the links' lengths
            # to it are |(a, h)| and |(a - d, h)|
            to_joint = along + sign * offset  # sign may have more columns than a dyad on the ground
            del along, offset, sign
            length_b = np.add(np.square(np.subtract(a, d, out=d), out=d), hh, out=d)
            length_a = np.add(np.multiply(a, a, out=a), hh, out=a)
            _turn(to_joint, np.sqrt(length_a, out=length_a), units[:, ends[0], None], turns[0])
            to_joint -= span
            _turn(to_joint, np.sqrt(length_b, out=length_b), units[:, ends[1], None], turns[1])
        for s, c, p, r in zip(slots, owns, at, turns):
            np.subtract(p, np.multiply(r, points[:, c:c + 1], out=org[:, s]), out=org[:, s])
    return origins, rotations, closed


def _follow_roots(base: np.ndarray, offset: np.ndarray, hh: np.ndarray, n_ok: np.ndarray,
                  s: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Root signs of B rows of complex (B, N) roots base +- offset, h^2 = hh, from roots s; 1.0
    past n_ok. A sign is the dyad's orientation, which changes only where h reaches 0 (Chase &
    Mirth 1993): a row keeps s but at each candidate k, an interior local minimum of h^2 whose
    three-point parabola reaches 0, k + 1 closing; there, at k and then k + 1, the root nearest
    the linear extrapolation of the joint's last two positions (at k = 1, its last) holds to the
    row's end. A `flat` row, a change-point four-bar, has h^2 least only where crank and ground
    line up: each minimum is a candidate, a last sample's as k = N - 2."""
    live = np.arange(hh.shape[1]) < n_ok[:, None]
    sign = np.where(live, s[:, None], 1.0)
    lo, mid, hi = hh[:, :-2], hh[:, 1:-1], hh[:, 2:]
    low = (mid <= lo) & (mid <= hi) & live[:, 2:]  # the interior minima, at samples cols + 1
    if flat.any():
        low[:, -1:] |= (hh[:, -1:] <= hh[:, -2:-1]) & live[:, -1:] & flat[:, None]  # a flat row's last sample
    rows, cols = divmod(np.flatnonzero(low), low.shape[1])  # low.nonzero(), at a fifth of its cost
    lo, mid, hi = lo[rows, cols], mid[rows, cols], hi[rows, cols]
    candidate = flat[rows] | (mid <= 0.0) | (8.0 * (lo + hi - 2.0 * mid) * mid < (hi - lo) ** 2)
    if not candidate.any():  # the usual case
        return sign
    for r, c in zip(rows[candidate].tolist(), cols[candidate].tolist()):
        for k in (c + 1, c + 2):
            last = slice(max(k - 2, 0), k)
            p = base[r, last] + sign[r, last] * offset[r, last]
            pred = p[-1] + (p[-1] - p[0])  # the last root plus its last step
            # |base + o - pred|^2 - |base - o - pred|^2 = -4 o.(pred - base)
            t = (offset[r, k] * np.conj(pred - base[r, k])).real
            if t != 0.0:
                sign[r, k:n_ok[r]] = 1.0 if t > 0.0 else -1.0
    return sign


def _dyad_sweep_arrays(plan: _Plan, markers: Markers, thetas: np.ndarray, branch: Branch) -> PoseBatch:
    """Closed-form sweeps of the mechanisms of a marker table by their dyad plan,
    all B rows in one pass: each dyad keeps its start root but where `_follow_roots` flips it."""
    points = markers.take(plan.refs)
    n, rows = len(thetas), len(points)
    lengths, units = _spans(points, plan.spans)
    loop = lengths[:, plan.sides] if plan.sides else None  # a four-bar's sides
    is_fourbar = fourbar_lengths_valid(loop) if plan.sides else np.zeros(rows, dtype=bool)
    flat = is_fourbar & fourbar_change_point(loop) if plan.sides else is_fourbar
    start = np.where(is_fourbar, plan.open_sign if branch is Branch.OPEN else -plan.open_sign, 1.0)
    origins, rotations, failed_at = _place_steps(
        plan, points, lengths, units, thetas,
        lambda i, base, offset, hh, n_ok: _follow_roots(base, offset, hh, n_ok, start, flat))
    for b in np.flatnonzero(failed_at < n).tolist():  # a row's poses past its failure
        origins[b, :, failed_at[b]:], rotations[b, :, failed_at[b]:] = 0.0, (1.0, 0.0)
    errors = [NotAssemblableError.code if f < n else None for f in failed_at.tolist()]
    return PoseBatch(list(plan.ids), thetas, origins, rotations, failed_at, errors, markers,
                     [branch if fb else None for fb in is_fourbar.tolist()], crank=plan.crank)


def solve_fourbar(fb: FourBar, theta: float, branch: Branch = Branch.OPEN) -> Configuration:
    """Exact closed-form pose of the canonical four-bar mechanism at crank
    angle theta (the one-dyad plan). Raises NotAssemblableError past a dead
    center."""
    pb = sweep_arrays(fourbar_mechanism(fb), np.array([float(theta)]), branch=branch)
    if pb.errors[0]:
        raise NotAssemblableError(f"four-bar {fb.lengths} cannot close at crank angle {theta:.6g} rad")
    return pb.configuration(0)


# ---------------------------------------------------------------------------
# General Newton solver


class ConstraintSystem:
    """Joint-coincidence constraints and the crank drive row, Phi(q, theta) = 0
    (Haug 1989, ch. 3), of one mechanism of m's topology, as its `plan`
    compiles them: rows 2r, 2r + 1 are joint r's world gap (its marker on link
    a less its marker on link b), the last the crank angle less theta. q holds
    the (x, y, angle) of each link of plan.ids[1:]. The link-frame markers are
    those of a one-row marker table, m's own by default."""

    def __init__(self, m: Mechanism, markers: Markers | None = None):
        self.plan = plan = _plan(m)
        self.markers = marker_table(m) if markers is None else markers
        self.n, self.rows = 3 * len(plan.ids) - 3, len(plan.template)
        # (J, 2): each joint's markers, x + iy; an end's d(+-R p)/d angle is R times `_turned`
        self._ends = self.markers.take(plan.ends).reshape(-1, 2)
        self._turned = self._ends * np.array([1j, -1j])

    def q_from(self, c: Configuration) -> np.ndarray:
        poses = [c.pose(lid) for lid in self.plan.ids[1:]]
        return np.array([(p.origin.x, p.origin.y, p.angle) for p in poses], dtype=float).reshape(-1)

    def config_from(self, q: np.ndarray, theta: float, branch: Branch | None = None) -> Configuration:
        ground, *moving = self.plan.ids
        poses = {ground: IDENTITY_POSE}
        for lid, (x, y, a) in zip(moving, np.reshape(q, (-1, 3)).tolist()):
            poses[lid] = Pose(Point2(x, y), a)
        return Configuration(float(theta), poses, branch)

    def _rotations(self, q: np.ndarray) -> np.ndarray:
        """(J, 2) rotations cos + i sin of the links at each joint's ends."""
        angles = np.zeros(len(self.plan.ids))
        angles[1:] = q[2::3]
        return np.exp(1j * angles)[self.plan.slots]

    def residual(self, q: np.ndarray, theta: float) -> np.ndarray:
        plan = self.plan
        origin = np.zeros(len(plan.ids), dtype=complex)
        origin.real[1:] = q[0::3]
        origin.imag[1:] = q[1::3]
        world = origin[plan.slots] + self._rotations(q) * self._ends
        out = np.empty(self.rows)
        out[:2 * len(plan.slots)] = (world[:, 0] - world[:, 1]).view(float)
        if plan.drive is not None:
            out[-1] = q[plan.drive] - theta
        return out

    def jacobian(self, q: np.ndarray) -> np.ndarray:
        J = self.plan.template.copy()
        J.reshape(-1)[self.plan.angle_cells] = (self._rotations(q) * self._turned).view(float).reshape(-1)
        return J[:, 3:]

    def angle_curvature(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """d^2(lam . Phi)/d angle^2 of each pose slot at q, the ground's
        first: joint r's rows are + R_a p_a - R_b p_b plus the origins, and
        d^2(R p)/d angle^2 = -R p. Phi is linear in the positions and its
        drive row, so these are the only nonzero second derivatives."""
        slots = self.plan.slots
        rp = self._rotations(q) * self._ends
        lr = lam[:2 * len(slots)].reshape(-1, 1, 2)
        terms = [-1.0, 1.0] * (lr[..., 0] * rp.real + lr[..., 1] * rp.imag)
        return np.bincount(slots.ravel(), terms.ravel(), len(self.plan.ids))


def damped_newton(residual, jacobian, x: np.ndarray, converged) -> tuple[np.ndarray, np.ndarray, str]:
    """Damped Newton on residual(x) = 0 from x: each step solves jacobian(x) dx = -F, halved (at most 20
    times) until the residual norm falls, for at most MAX_ITERATIONS steps; converged(F) is tested at the
    start and after every step. Returns x, its residual F and why it stopped: "converged" (x the start
    itself if it converges), "singular" (the solve raised), "ill-conditioned" (a step that is not finite),
    "stall" (no halving lowered the norm) or "iterations". A NaN residual iterates, and fails."""
    F = residual(x)
    if converged(F):
        return x, F, "converged"
    fn = np.linalg.norm(F)
    for _ in range(MAX_ITERATIONS):
        try:
            dx = np.linalg.solve(jacobian(x), -F)
        except np.linalg.LinAlgError:
            return x, F, "singular"
        if not np.isfinite(dx).all():
            return x, F, "ill-conditioned"
        for step in 0.5 ** np.arange(20):
            xn = x + step * dx
            Fn = residual(xn)
            if (fnn := np.linalg.norm(Fn)) < fn:
                break
        else:
            return x, F, "stall"
        x, F, fn = xn, Fn, fnn
        if converged(F):
            return x, F, "converged"
    return x, F, "iterations"


def _newton(sys: ConstraintSystem, q: np.ndarray, theta: float) -> tuple[np.ndarray, str | None]:
    """`damped_newton` on sys at theta from q to a residual norm of TOLERANCE (read at each call): the root,
    its drive held at theta where a step reached it (a q that already closes comes back as it is), and the
    error code (None where it converged; a stall is SINGULAR_JACOBIAN only at a Jacobian singular to 1e-12)."""
    x, _, why = damped_newton(lambda x: sys.residual(x, theta), sys.jacobian, q,
                              lambda F: np.linalg.norm(F) <= TOLERANCE)
    if why == "converged":
        if x is not q and sys.plan.drive is not None:
            x[sys.plan.drive] = theta  # hold the drive coordinate exactly
        return x, None
    if why == "stall":  # a dead center, or no descent along the step
        sv = np.linalg.svd(sys.jacobian(x), compute_uv=False)
        why = "singular" if sv[-1] <= 1e-12 * sv[0] else why
    return x, ConvergenceError.code if why in ("stall", "iterations") else SingularJacobianError.code


def start_block(sys: ConstraintSystem, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Where Newton starts on sys at one crank angle: the unknowns (C, n) of
    each start and the (C,) mask of the starts it tries, in turn. One start
    per combination of dyad-plan roots, '+' root first and earlier dyads
    varying slowest, repeats dropped, at most 16; circles that miss are clamped
    to their nearest approach, a tangent dyad gives one root, and links the
    plan can only hang sit at angle zero."""
    plan = sys.plan
    signs = plan.signs
    new = np.ones(len(signs), dtype=bool)

    def pick(i, base, offset, hh, n_ok):
        new[...] &= (offset[0] != 0.0) | (signs[:, i] > 0.0)
        return signs[:, i]

    points = sys.markers.take(plan.refs)
    thetas = np.full(len(signs), float(theta))
    origins, rotations, _ = _place_steps(plan, points, *_spans(points, plan.spans), thetas, pick)
    angles = np.angle(_complex(rotations[0]))
    if plan.crank is not None:
        angles[plan.ids.index(plan.crank)] = theta
    q = np.concatenate([origins[0, 1:], angles[1:, :, None]], axis=-1).transpose(1, 0, 2)
    return q.reshape(len(signs), -1), new & (np.cumsum(new) <= 16)


def _require_square(sys: ConstraintSystem) -> ConstraintSystem:
    if sys.rows != sys.n:
        raise KinematicsError(
            f"constraint system is not square ({sys.rows} equations, {sys.n} unknowns); "
            "mechanism must be single-DOF with one actuated joint", code="MOBILITY_NOT_ONE")
    return sys


def first_roots(sys: ConstraintSystem, theta: float) -> tuple[np.ndarray, str | None]:
    """`_newton` at theta from each `start_block` start in turn until one converges (a start that already
    closes is its own root, as the first is on a dyadic chain); where none converges, the last one's error
    code."""
    starts, tried = start_block(sys, theta)
    for start in starts[tried]:
        q, code = _newton(sys, start, theta)
        if code is None:
            break
    return q, code


def assemble(m: Mechanism, theta: float, guess: Configuration | None = None) -> Configuration:
    """`damped_newton` on the joint-coincidence residuals at fixed crank angle:
    the root continuously reachable from the guess, its crank moved by the
    whole turns nearest theta, or without one from the first `start_block`
    start that converges (`first_roots`). The one solver that reads a guess."""
    sys, theta = _require_square(ConstraintSystem(m)), float(theta)
    if guess is None:
        q, code = first_roots(sys, theta)
    else:
        q, drive = sys.q_from(guess), sys.plan.drive
        if drive is not None and (turns := round((theta - q[drive]) / (2.0 * math.pi))):
            q[drive] += 2.0 * math.pi * turns
        q, code = _newton(sys, q, theta)
    if code is not None:
        raise {e.code: e for e in (ConvergenceError, SingularJacobianError)}[code](
            f"Newton failed at theta={theta:.6g} ({code})")
    return sys.config_from(q, theta, guess.branch if guess else None)


def _newton_sweep_arrays(m: Mechanism, markers: Markers, thetas: np.ndarray) -> PoseBatch:
    """Newton continuation of each row of a marker table in turn: its root at
    the first crank angle as `assemble` finds it, then each step seeded with
    the previous root; a row stops where it fails."""
    plan, rows, n = _plan(m), len(markers.points), len(thetas)
    xya = np.zeros((rows, len(plan.ids), n, 3))
    failed_at = np.full(rows, n)
    errors: list[str | None] = [None] * rows
    for b in range(rows):
        sys = ConstraintSystem(m, Markers(markers.columns, markers.points[b:b + 1]))
        for k, theta in enumerate(thetas.tolist()):
            q, code = _newton(sys, q, theta) if k else first_roots(_require_square(sys), theta)
            if code is not None:
                failed_at[b], errors[b] = k, code
                break
            xya[b, 1:, k] = q.reshape(-1, 3)
    rotations = np.stack([np.cos(xya[..., 2]), np.sin(xya[..., 2])], axis=-1)
    return PoseBatch(list(plan.ids), thetas, xya[..., :2].copy(), rotations, failed_at, errors,
                     markers, [None] * rows, "newton", plan.crank)


def sweep_arrays(m: Mechanism, thetas: np.ndarray, *,
                 branch: Branch = Branch.OPEN, markers: Markers | None = None) -> PoseBatch:
    """Continuation sweeps over an array of crank angles, columnar output.

    A chain the dyad plan decomposes is solved in closed form at every angle at
    once. Each dyad starts on the plan's own root, the one `start_block` tries
    first (a four-bar's on `branch`), and keeps that assembly mode but where its
    roots may meet between samples (`_follow_roots`); there it takes the root
    continuous with the last two. Any other chain runs Newton from the first
    `start_block` start that converges at the first angle, then seeded step by
    step with the previous solution, to a residual norm of `TOLERANCE`. A sweep
    takes no guess; only `assemble` starts from one. With a marker table of B rows, m
    supplies only the topology and the B mechanisms are swept, by the dyad plan
    together in one array pass or by Newton one row after another; without one,
    m is swept alone, as the table `marker_table(m)`.
    """
    thetas = np.asarray(thetas, dtype=float)
    markers = marker_table(m) if markers is None else markers
    plan = _plan(m)
    if plan.dyadic:
        return _dyad_sweep_arrays(plan, markers, thetas, branch)
    return _newton_sweep_arrays(m, markers, thetas)


def velocities(m: Mechanism, c: Configuration, crank_rate: float) -> dict[str, tuple[Point2, float]]:
    """Link velocities from the time-differentiated constraints, Phi_q qdot =
    -Phi_t, whose only time term is the drive row's crank rate: link id ->
    (origin linear velocity, angular velocity), the crank's being crank_rate.
    """
    sys = _require_square(ConstraintSystem(m))
    J = sys.jacobian(sys.q_from(c))
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= RCOND_FLOOR * sv[0]:
        raise SingularJacobianError("constraint Jacobian is singular (dead center)")
    qdot = np.linalg.solve(J, np.append(np.zeros(sys.n - 1), crank_rate)).reshape(-1, 3).tolist()
    ground, *moving = sys.plan.ids
    return {ground: (Point2(0.0, 0.0), 0.0), **{lid: (Point2(x, y), w) for lid, (x, y, w) in zip(moving, qdot)}}


def transmission_angle_series(m: Mechanism, pb: PoseBatch, joint_id: str) -> np.ndarray:
    """(B, N) transmission angle series at a joint of m's topology: the angle
    between the two link directions as lines, in [0, pi/2]. A link's direction
    is its rotation applied to the per-row unit vector from its origin marker to the joint
    marker (the x axis under 1e-12 apart)."""
    j = m.joint(joint_id)
    refs = ((j.link_a, "origin"), (j.link_a, j.marker_a), (j.link_b, "origin"), (j.link_b, j.marker_b))
    units = _spans(pb.markers.take(refs), np.array([[0, 1], [2, 3]]), floor=1e-12)[1]
    rotations = _complex(pb.rotations)
    a = np.conj(rotations[:, pb.index(j.link_a)] * units[:, :1])
    # the relative rotation b over a; folding its angle into [0, pi/2] takes
    # its cos and sin to their absolute values
    rel = rotations[:, pb.index(j.link_b)] * units[:, 1:] * a
    return np.arctan2(np.abs(rel.imag), np.abs(rel.real))
