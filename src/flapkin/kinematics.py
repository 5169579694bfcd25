"""Pose solvers for planar linkages: closed-form dyad plan, Newton fallback.

A mechanism's topology is compiled once into a dyad plan in index form: place
the crank, then solve each RR dyad (two links sharing a pin, each pinned once
to a link already placed) by circle intersection; the four-bar is the one-dyad
case. A dyad's root sign is its orientation, its assembly mode, which can only
change where its two roots meet (its half-chord h is 0): a sweep keeps the
sign but at samples where h may reach 0, and there takes the continuous root.
A sweep reads the markers the plan needs into one (B, M) block of link-frame
points, and their lengths, then runs each step as a few array operations on
slots of one pose block, for all rows of a batch and all crank angles at once.
Chains the plan cannot decompose (triads) fall back to damped Newton iteration
on the joint-coincidence residuals, seeded step by step with the previous
solution and run on all rows of a batch together; `assemble` is its one-row,
one-angle case. Either way a sweep is a `PoseBatch`: the poses of B mechanisms
that share one topology (a marker table) at the same crank angles, one
mechanism being B = 1.

A pose in a sweep is an origin and a rotation stored as its unit vector
(cos, sin), built from directions the plan already has (pin to joint in the
world, the same two markers in the link frame): a sweep takes no arctan2, cos
or sin per link. Link angles are derived from the rotations only when asked
for (`PoseBatch.angles`); every physical output is read off the rotations, so
none depends on a whole turn added to a link angle. Nor does a Newton solve
from a guess depend on a whole turn in theta: its crank starts at the guess's
angle plus the whole turns nearest theta.

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
    BranchAmbiguousError,
    ConvergenceError,
    KinematicsError,
    NotAssemblableError,
    SingularJacobianError,
)
from .geometry import IDENTITY_POSE, Point2, Pose
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

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")


DEFAULT_SETTINGS = SolveSettings()
MAX_ITERATIONS = 50  # Newton steps per solve, here and in the compliance layer
RCOND_FLOOR = 1e-10  # `velocities` calls a Jacobian singular below this ratio of singular values


def _complex(a: np.ndarray) -> np.ndarray:
    """An (..., 2) float array of (x, y) or (cos, sin) pairs, viewed as (...)
    complex numbers x + iy: rotating a point is multiplying by its rotation."""
    return a.view(np.complex128)[..., 0]


# Marker table of B mechanisms sharing one topology: (link, marker) -> (x, y)
# in the link frame, each an array of shape (B, 1), or a float where all rows
# agree. A sweep reads the markers its plan needs into one (B, M) block
# (`_points`) when it starts, so a table may be edited between sweeps.
Markers = dict[tuple[str, str], tuple[float | np.ndarray, float | np.ndarray]]


def marker_table(m: Mechanism) -> Markers:
    """The one-row marker table of a mechanism."""
    return {(l.id, k): (float(p.x), float(p.y)) for l in m.links for k, p in l.markers.items()}


def _rows(markers: Markers) -> int:
    """B of a marker table: the length of its array entries, 1 if it has none."""
    return max((len(v) for xy in markers.values() for v in xy if isinstance(v, np.ndarray)), default=1)


def _points(markers: Markers, refs, rows: int) -> np.ndarray:
    """(B, R) link-frame positions x + iy of the markers refs of a table of B rows."""
    xy = [markers[ref] for ref in refs]
    block = np.empty((rows, len(xy)), dtype=complex)
    block[:] = [x + 1j * y if isinstance(x, float) and isinstance(y, float) else 0j for x, y in xy]
    for i, (x, y) in enumerate(xy):
        if not (isinstance(x, float) and isinstance(y, float)):
            block[:, i:i + 1] = x + 1j * y
    return block


def _spans(points: np.ndarray, spans: np.ndarray, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and unit vectors, each (B, K), of the link-frame vectors from column
    spans[k, 0] to column spans[k, 1] of a (B, M) point block. Lengths are taken row by row
    with `math.hypot`, as the scalar geometry (`Point2.norm`, `as_fourbar`) takes them (numpy's
    hypot may differ in the last bit); a unit vector is 1, the x axis, below floor or at 0."""
    v = points[:, spans[:, 1]] - points[:, spans[:, 0]]
    lengths = np.array(list(map(math.hypot, v.real.ravel().tolist(), v.imag.ravel().tolist()))).reshape(v.shape)
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
    guess: Configuration | None = None  # angles take their whole turns from it

    def index(self, link_id: str) -> int:
        return self.ids.index(link_id)

    def marker_paths(self, refs) -> np.ndarray:
        """(B, R, N) world paths x + iy of the markers refs across the sweeps."""
        origins, rotations = _complex(self.origins), _complex(self.rotations)
        z = np.empty((len(refs), len(origins), len(self.thetas)), dtype=complex)  # a path per block
        for path, (lid, _), p in zip(z, refs, _points(self.markers, refs, len(origins)).T):
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
        if not 0 <= k < self.failed_at[0]:  # row 0 has no poses past its failure
            raise IndexError(f"sample {k} is outside the {self.failed_at[0]} samples row 0 closes at")
        origins, angles = self.origins[0, :, k].tolist(), self.angles[0, :, k].tolist()
        poses = {lid: Pose(Point2(x, y), a) for lid, (x, y), a in zip(self.ids, origins, angles)}
        return Configuration(float(self.thetas[k]), poses, self.branches[0])

    def configurations(self) -> list[Configuration]:
        return [self.configuration(k) for k in range(self.failed_at[0])]


# ---------------------------------------------------------------------------
# Dyad plan: the crank, then RR dyads by circle intersection


def _pin(j: Joint, lid: str) -> tuple[str, str, str]:
    if j.link_a == lid:
        return j.marker_a, j.link_b, j.marker_b
    return j.marker_b, j.link_a, j.marker_a


def _decompose(m: Mechanism) -> list[tuple]:
    """Placement order from the topology alone: the crank, then repeatedly
    (1) a link pinned to two placed links ("rigid"), (2) an RR dyad, two links
    sharing a joint (their `shared` markers), each pinned once to a placed
    link ("dyad"), (3) a link hung from one placed link at orientation zero
    ("hang"); unreachable links last, at the identity ("free"). A step is
    (kind, links, pins, shared); a pin is (own marker, placed link, its marker)."""
    placed = {m.ground}
    steps = []
    act = m.actuated_joint()
    if act is not None:
        crank = act.other(m.ground)
        steps.append(("crank", (crank,), (_pin(act, crank),), ()))
        placed.add(crank)

    def pins(lid, skip=None):
        return [_pin(j, lid) for j in m.joints
                if j is not skip and lid in (j.link_a, j.link_b) and j.other(lid) in placed]

    def rigid():
        for l in m.links:
            if l.id not in placed and len(anchors := pins(l.id)) >= 2:
                return "rigid", (l.id,), tuple(anchors[:2]), ()

    def dyad():
        for j in m.joints:
            if j.link_a in placed or j.link_b in placed:
                continue
            sides = [pins(lid, skip=j) for lid in (j.link_a, j.link_b)]
            if all(sides):
                return "dyad", (j.link_a, j.link_b), (sides[0][0], sides[1][0]), (j.marker_a, j.marker_b)

    def hang():
        for j in m.joints:
            for lid in (j.link_a, j.link_b):
                if lid not in placed and j.other(lid) in placed:
                    return "hang", (lid,), (_pin(j, lid),), ()

    while len(placed) < len(m.links):
        step = rigid() or dyad() or hang()
        if step is None:
            steps.extend(("free", (l.id,), (), ()) for l in m.links if l.id not in placed)
            break
        steps.append(step)
        placed.update(step[1])
    return steps


@dataclass(frozen=True)
class _Plan:
    """A topology compiled once, for the dyad plan and Newton alike. Pose slots
    are positions in `ids`, the ground first; a sweep reads the markers `refs`
    into the columns of a `_points` block, and `_spans` of the column pairs
    `spans`. A step is (kind, slots, pins, owns, spans): its links' pose
    slots, each pin's placed (slot, column), the column of each link's own
    pinned marker, and the span from it to the link's second pin (rigid) or
    shared joint (dyad). `dyadic`: crank and dyads solve the whole chain (a
    square system); `sides`: the spans of the four-bar loop it is, if it is
    one, whose open branch (coupler-rocker triangle keeping its orientation)
    is `open_sign`. The Newton system's q holds the (x, y, angle) of each link
    of ids[1:], `crank`'s angle at column `drive`; joint r's ends, (link,
    marker) on link a then link b, are ends[2r:2r + 2] in slots[r]. Its
    Jacobian is a constant +-1 `template` over the slots' columns (the
    ground's three first) whose angle entries, at the flat indices
    `angle_cells`, `ConstraintSystem.jacobian` fills in."""

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


def _per_topology(build):
    """build(m), made once per topology (the links, and the joints with their
    markers and drive) and then reused; at most 64 are kept."""
    cache: dict[tuple, object] = {}

    def cached(m: Mechanism):
        key = (m.ground, tuple(l.id for l in m.links),
               tuple((j.id, j.link_a, j.marker_a, j.link_b, j.marker_b, j.actuated) for j in m.joints))
        if key not in cache:
            if len(cache) >= 64:
                cache.clear()
            cache[key] = build(m)
        return cache[key]

    return cached


@_per_topology
def _plan(m: Mechanism) -> _Plan:
    steps, ids = _decompose(m), (m.ground, *m.moving_link_ids())
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
    loop = fourbar_sides(m)
    sides = None if loop is None else ([span(*side) for side in loop[0]], loop[0][3][0])
    dyadic = (bool(steps) and steps[0][0] == "crank" and 2 * len(m.joints) + 1 == 3 * (len(m.links) - 1)
              and all(step[0] in ("crank", "dyad") for step in steps))
    first_dyad = next((links[0] for kind, links, _, _ in steps if kind == "dyad"), None)
    crank = steps[0][1][0] if steps and steps[0][0] == "crank" else None
    slot = {lid: i for i, lid in enumerate(ids)}  # a link not in ids is pinned at the ground's slot
    ends = tuple(end for j in m.joints for end in ((j.link_a, j.marker_a), (j.link_b, j.marker_b)))
    slots = np.array([slot.get(lid, 0) for lid, _ in ends], dtype=np.intp).reshape(-1, 2)
    r, x, width = 2 * np.arange(len(slots))[:, None], 3 * slots, 3 * len(ids)  # joints' first rows, ends' x
    template = np.zeros((2 * len(slots) + (crank is not None), width))
    template[r, x] = (1.0, -1.0)  # the gap: link a's marker less link b's
    template[r + 1, x + 1] = (1.0, -1.0)
    if crank is not None:
        template[-1, 3 * slot[crank] + 2] = 1.0
    angle_cells = np.stack([r * width + x + 2, (r + 1) * width + x + 2], axis=-1).ravel()
    return _Plan(ids, tuple(refs), np.array(list(spans), dtype=np.intp).reshape(-1, 2), program, dyadic,
                 sides and sides[0], -1.0 if sides and first_dyad == sides[1] else 1.0,
                 crank, None if crank is None else 3 * slot[crank] - 1, ends, slots, template, angle_cells)


def _turn(w: np.ndarray, length, unit_conj, out: np.ndarray) -> np.ndarray:
    """The rotation (into out) that turns a link-frame unit vector, given conjugated, onto the
    world vector w of the given length; onto the x axis where w is 0. No complex product here
    is taken in place: numpy takes one on a single element without fusing its multiply-add."""
    zero = length == 0.0
    return np.divide((w + zero) * unit_conj, length + zero, out=out)


def _place_steps(plan: _Plan, points: np.ndarray, lengths: np.ndarray, units: np.ndarray,
                 thetas: np.ndarray, pick):
    """Place every link of the B mechanisms whose link-frame markers are the
    (B, M) block `points` (`_points` of plan.refs; `lengths` and `units` are
    `_spans` of plan.spans) at every crank angle of `thetas` at once.

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
        if kind == "free":
            org[:, slots[0]], turns[0][...] = 0.0, 1.0
        elif kind == "crank":
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
            u = span / d
            offset = 1j * (h * u)
            along = a * u
            del u, d2  # a 75-row cost call peaks in this step: free each block once it is dead, as the peak
            # must stay under glibc's trim threshold (BENCH_21.json earlier_series; re-run fourbar_synthesis)
            hh = np.multiply(h, h, out=h)
            closed = np.logical_and.accumulate(ok, axis=1).sum(axis=1)
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
    low[:, -1:] |= (hh[:, -1:] <= hh[:, -2:-1]) & live[:, -1:] & flat[:, None]  # a flat row's last sample
    rows, cols = low.nonzero()
    lo, mid, hi = lo[rows, cols], mid[rows, cols], hi[rows, cols]
    candidate = flat[rows] | (mid <= 0.0) | (8.0 * (lo + hi - 2.0 * mid) * mid < (hi - lo) ** 2)
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


def _dyad_sweep_arrays(m: Mechanism, plan: _Plan, markers: Markers, thetas: np.ndarray,
                       guess: Configuration | None, branch: Branch) -> PoseBatch:
    """Closed-form sweeps of the mechanisms of a marker table that share m's dyad plan,
    all B rows in one pass: each dyad keeps its start root but where `_follow_roots` flips it."""
    n, rows = len(thetas), _rows(markers)
    points = _points(markers, plan.refs, rows)
    lengths, units = _spans(points, plan.spans)
    loop = lengths[:, plan.sides] if plan.sides else None  # a four-bar's sides; flat: s + l = p + q
    is_fourbar = fourbar_lengths_valid(loop) if plan.sides else np.zeros(rows, dtype=bool)
    flat = is_fourbar & (abs(np.sort(loop) @ (1, -1, -1, 1)) <= 1e-12 * loop.sum(1)) if plan.sides else is_fourbar
    start = np.where(is_fourbar, plan.open_sign if branch is Branch.OPEN else -plan.open_sign, 1.0)
    first = np.zeros(rows)  # root sign each row's first dyad starts on; 0 if none

    def start_sign(step: tuple, b: int, base: np.ndarray, offset: np.ndarray) -> float:
        radii, (lid, shared) = list(step[4]), plan.refs[plan.spans[step[4][0], 1]]  # link a, its joint marker
        g = guess.pose(lid).transform(m.link(lid).marker(shared))
        (bx, by), (ox, oy) = (base[b, 0].real, base[b, 0].imag), (offset[b, 0].real, offset[b, 0].imag)
        d_plus, d_minus = (math.hypot(bx + s * ox - g.x, by + s * oy - g.y) for s in (1.0, -1.0))
        if abs(d_plus - d_minus) <= 1e-12 * sum(lengths[b, radii].tolist()):
            raise BranchAmbiguousError(
                f"both roots of the {lid}-{plan.ids[step[1][1]]} dyad are equidistant from the "
                "guess (change point); pass an explicit branch")
        return 1.0 if d_plus < d_minus else -1.0

    dyads = [step for step in plan.steps if step[0] == "dyad"]

    def pick(i, base, offset, hh, n_ok):
        s = start if guess is None else np.array(
            [start_sign(dyads[i], b, base, offset) if n_ok[b] else 1.0 for b in range(rows)])
        if i == 0:
            first[:] = np.where(n_ok > 0, s, 0.0)
        return _follow_roots(base, offset, hh, n_ok, s, flat)

    origins, rotations, failed_at = _place_steps(plan, points, lengths, units, thetas, pick)
    if (failed_at < n).any():
        after = np.broadcast_to((np.arange(n) >= failed_at[:, None])[:, None], origins.shape[:3])
        origins[after] = 0.0
        rotations[after] = (1.0, 0.0)
    branches = [(branch if not s else Branch.OPEN if s == plan.open_sign else Branch.CROSSED) if fb
                else guess.branch if guess else None for s, fb in zip(first.tolist(), is_fourbar.tolist())]
    errors = [NotAssemblableError.code if f < n else None for f in failed_at.tolist()]
    return PoseBatch(list(plan.ids), thetas, origins, rotations, failed_at, errors, markers, branches,
                     crank=plan.crank, guess=guess)


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
    (Haug 1989, ch. 3), of the B mechanisms of a marker table (m's own by
    default) sharing m's topology, as its `plan` compiles them: rows 2r,
    2r + 1 are joint r's world gap (its marker on link a less its marker on
    link b), the last the crank angle less theta. q holds the (x, y, angle) of
    each link of plan.ids[1:]; `residual` and `jacobian` take a (B, n) block of
    table rows (`rows`, all by default) or one row as a 1-D q, and do the same
    arithmetic on every row."""

    def __init__(self, m: Mechanism, markers: Markers | None = None):
        self.plan = plan = _plan(m)
        self._markers = marker_table(m) if markers is None else markers
        self.n, self.rows = 3 * len(plan.ids) - 3, len(plan.template)
        rows = 1 if markers is None else _rows(markers)
        # (B, J, 2): each joint's markers, x + iy; an end's d(+-R p)/d angle is R times `_turned`
        self._points = _points(self._markers, plan.ends, rows).reshape(rows, -1, 2)
        self._turned = self._points * np.array([1j, -1j])

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
        """(B, L) rotations cos + i sin of the pose slots of a (B, n) block."""
        angles = np.zeros((len(q), len(self.plan.ids)))
        angles[:, 1:] = q[:, 2::3]
        return np.exp(1j * angles)

    def residual(self, q: np.ndarray, theta: float, rows=slice(None)) -> np.ndarray:
        plan, q2 = self.plan, np.atleast_2d(q)
        origin = np.zeros((len(q2), len(plan.ids)), dtype=complex)
        origin.real[:, 1:] = q2[:, 0::3]
        origin.imag[:, 1:] = q2[:, 1::3]
        rotations = self._rotations(q2).take(plan.slots, axis=1)
        world = origin.take(plan.slots, axis=1) + rotations * self._points[rows]
        out = np.empty((len(q2), self.rows))
        out[:, :2 * len(plan.slots)] = (world[..., 0] - world[..., 1]).view(float)
        if plan.drive is not None:
            np.subtract(q2[:, plan.drive], theta, out=out[:, -1])
        return out if q.ndim == 2 else out[0]

    def jacobian(self, q: np.ndarray, rows=slice(None)) -> np.ndarray:
        plan, q2 = self.plan, np.atleast_2d(q)
        J = np.empty((len(q2), self.rows, self.n + 3))
        J[:] = plan.template
        turned = self._rotations(q2).take(plan.slots, axis=1) * self._turned[rows]
        J.reshape(len(q2), -1)[:, plan.angle_cells] = turned.view(float).reshape(len(q2), -1)
        return J[..., 3:] if q.ndim == 2 else J[0, :, 3:]

    def angle_curvature(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """d^2(lam . Phi)/d angle^2 of each pose slot at a 1-D q, the ground's
        first: joint r's rows are + R_a p_a - R_b p_b plus the origins, and
        d^2(R p)/d angle^2 = -R p. Phi is linear in the positions and its
        drive row, so these are the only nonzero second derivatives."""
        slots = self.plan.slots
        rp = self._rotations(q[None])[0, slots] * self._points[0]
        lr = lam[:2 * len(slots)].reshape(-1, 1, 2)
        terms = [-1.0, 1.0] * (lr[..., 0] * rp.real + lr[..., 1] * rp.imag)
        return np.bincount(slots.ravel(), terms.ravel(), len(self.plan.ids))


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x of A x = b per stacked system, as solved alone; NaN where A is exactly singular."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return (np.full_like(b, np.nan) if len(A) == 1 else
                np.concatenate([_solve(A[i:i + 1], b[i:i + 1]) for i in range(len(A))]))


def _newton(sys: ConstraintSystem, q: np.ndarray, theta: float, settings: SolveSettings,
            rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton at crank angle theta on table rows `rows` of sys from
    guesses q, all together: one stacked solve per step, each row's step
    halved (at most 20 times) until its residual norm falls, and a row dropped
    where it fails. Returns the roots, the drive held at theta exactly where a
    step reached one, and each row's error code (None where it converged)."""
    def norms(F):  # bit for bit `np.linalg.norm` of each row alone
        return np.sqrt((F[:, None] @ F[..., None])[:, 0, 0])

    tol = settings.tolerance
    q = np.array(q, dtype=float)
    codes = np.full(len(q), None, dtype=object)
    F = sys.residual(q, theta, rows)
    fn = norms(F)
    live = np.flatnonzero(~(fn <= tol))  # a NaN residual iterates, and fails
    for _ in range(MAX_ITERATIONS):
        if not len(live):
            break
        J = sys.jacobian(q[live], rows[live])
        dq = _solve(J, -F[live])
        ok = np.isfinite(dq).all(axis=1)
        codes[live[~ok]] = SingularJacobianError.code
        trying, step = np.flatnonzero(ok), 1.0
        for _ in range(20):
            i = live[trying]
            qn = q[i] + step * dq[trying]
            Fn = sys.residual(qn, theta, rows[i])
            fnn = norms(Fn)
            down = fnn < fn[i]
            q[i[down]] = qn[down]
            F[i[down]] = Fn[down]
            fn[i[down]] = fnn[down]
            trying = trying[~down]
            step *= 0.5
            if not len(trying):
                break
        else:  # stalled: a dead center, or no descent along the step
            sv = np.linalg.svd(J[trying], compute_uv=False)
            codes[live[trying]] = [SingularJacobianError.code if singular else ConvergenceError.code
                                   for singular in (sv[:, -1] <= 1e-12 * sv[:, 0]).tolist()]
            ok[trying] = False
        done = ok & (fn[live] <= tol)
        if sys.plan.drive is not None:
            q[live[done], sys.plan.drive] = theta  # hold the drive coordinate exactly
        live = live[ok & ~done]
    codes[live] = ConvergenceError.code
    return q, codes


def start_block(sys: ConstraintSystem, theta: float,
                guess: Configuration | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Where Newton starts on each row of sys at one crank angle: the unknowns
    (B, C, n) of each start and the (B, C) mask of the starts a row tries, in
    turn. From `guess` alone (its crank moved by the whole turns nearest
    theta), or else one start per combination of dyad-plan roots, '+' root
    first and earlier dyads varying slowest, repeats dropped, at most 16 per
    row; circles that miss are clamped to their nearest approach, a tangent
    dyad gives one root, and links the plan can only hang sit at angle zero."""
    rows, plan = len(sys._points), sys.plan
    if guess is not None:
        q, drive = sys.q_from(guess), plan.drive
        if drive is not None and (turns := round((theta - q[drive]) / (2.0 * math.pi))):
            q[drive] += 2.0 * math.pi * turns
        return np.broadcast_to(q, (rows, 1, sys.n)), np.ones((rows, 1), dtype=bool)
    k = sum(step[0] == "dyad" for step in plan.steps)
    kv = min(k, 10)  # only the last kv dyads vary; 16 starts never reach further
    bits = (np.arange(2 ** kv)[:, None] >> np.arange(kv - 1, -1, -1)) & 1
    signs = np.hstack([np.ones((2 ** kv, k - kv)), 1.0 - 2.0 * bits])
    new = np.ones((rows, len(signs)), dtype=bool)

    def pick(i, base, offset, hh, n_ok):
        new[...] &= (offset != 0.0) | (signs[:, i] > 0.0)
        return signs[:, i]

    points = _points(sys._markers, plan.refs, rows)
    thetas = np.full(len(signs), float(theta))
    origins, rotations, _ = _place_steps(plan, points, *_spans(points, plan.spans), thetas, pick)
    angles = np.angle(_complex(rotations))
    if plan.crank is not None:
        angles[:, plan.ids.index(plan.crank)] = theta
    q = np.concatenate([origins[:, 1:], angles[:, 1:, :, None]], axis=-1).transpose(0, 2, 1, 3)
    return q.reshape(len(q), len(signs), -1), new & (np.cumsum(new, axis=1) <= 16)


def _require_square(sys: ConstraintSystem) -> ConstraintSystem:
    if sys.rows != sys.n:
        raise KinematicsError(
            f"constraint system is not square ({sys.rows} equations, {sys.n} unknowns); "
            "mechanism must be single-DOF with one actuated joint", code="MOBILITY_NOT_ONE")
    return sys


def _first_roots(sys: ConstraintSystem, theta: float, guess: Configuration | None,
                 settings: SolveSettings) -> tuple[np.ndarray, np.ndarray]:
    """`_newton` on all rows at theta as `assemble` runs it: from each row's
    `start_block` starts in turn until one converges; a row none converges on
    takes the last one's error code."""
    starts, tried = start_block(sys, theta, guess)
    rows = len(starts)
    q = np.empty((rows, sys.n))
    codes = np.full(rows, None, dtype=object)
    todo = np.arange(rows)
    for c in range(starts.shape[1]):
        now = todo[tried[todo, c]]
        if len(now):
            q[now], codes[now] = _newton(sys, starts[now, c], theta, settings, now)
        todo = todo[np.not_equal(codes[todo], None) | ~tried[todo, c]]
        if not len(todo):
            break
    return q, codes


def assemble(m: Mechanism, theta: float, guess: Configuration | None = None) -> Configuration:
    """Newton-Raphson on the joint-coincidence residuals at fixed crank angle:
    the root continuously reachable from the guess, or without one from the
    first `start_block` start that converges. Step halving (at most 20 times
    per iteration) guards against overshoot."""
    sys = _require_square(ConstraintSystem(m))
    q, (code,) = _first_roots(sys, float(theta), guess, DEFAULT_SETTINGS)
    if code is not None:
        raise {e.code: e for e in (ConvergenceError, SingularJacobianError)}[code](
            f"Newton failed at theta={theta:.6g} ({code})")
    return sys.config_from(q[0], theta, guess.branch if guess else None)


def _newton_sweep_arrays(m: Mechanism, markers: Markers, thetas: np.ndarray, settings: SolveSettings,
                         guess: Configuration | None) -> PoseBatch:
    """Newton continuation of all rows of a marker table together: each row's
    root at the first crank angle as `assemble` finds it, then each step
    seeded with the previous root; a row stops where it fails."""
    sys = ConstraintSystem(m, markers)
    rows, n = len(sys._points), len(thetas)
    q = np.zeros((rows, n, sys.n))
    failed_at = np.full(rows, n)
    errors = np.full(rows, None, dtype=object)
    live = np.arange(rows)
    for k, theta in enumerate(thetas.tolist()):
        if k:
            qk, codes = _newton(sys, q[live, k - 1], theta, settings, live)
        else:
            qk, codes = _first_roots(_require_square(sys), theta, guess, settings)
        ok = np.equal(codes, None)
        failed_at[live[~ok]] = k
        errors[live[~ok]] = codes[~ok]
        live = live[ok]
        q[live, k] = qk[ok]
        if not len(live):
            break
    ids = sys.plan.ids
    xya = np.zeros((rows, len(ids), n, 3))
    xya[:, 1:] = q.reshape(rows, n, len(ids) - 1, 3).transpose(0, 2, 1, 3)
    rotations = np.stack([np.cos(xya[..., 2]), np.sin(xya[..., 2])], axis=-1)
    return PoseBatch(list(ids), thetas, xya[..., :2].copy(), rotations, failed_at, errors.tolist(),
                     markers, [guess.branch if guess else None] * rows, "newton", sys.plan.crank, guess)


def sweep_arrays(m: Mechanism, thetas: np.ndarray, settings: SolveSettings = DEFAULT_SETTINGS,
                 guess: Configuration | None = None, branch: Branch = Branch.OPEN,
                 markers: Markers | None = None) -> PoseBatch:
    """Continuation sweeps over an array of crank angles, columnar output.

    A chain the dyad plan decomposes is solved in closed form at every angle at
    once. Each dyad starts on the root nearest `guess`, or without one on the root
    `start_block` tries first (`branch` for a four-bar), and keeps that assembly mode
    but where its roots may meet between samples (`_follow_roots`); there it takes the
    root continuous with the last two. Any other chain runs Newton seeded step by step
    with the previous solution. With a marker table of B rows, m supplies only the
    topology and the B mechanisms are swept together, by the dyad plan in one array
    pass or by Newton with one stacked solve per step; without one, m is swept alone,
    as the table `marker_table(m)`.
    """
    thetas = np.asarray(thetas, dtype=float)
    markers = marker_table(m) if markers is None else markers
    plan = _plan(m)
    if plan.dyadic:
        return _dyad_sweep_arrays(m, plan, markers, thetas, guess, branch)
    return _newton_sweep_arrays(m, markers, thetas, settings, guess)


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
    is its rotation applied to the per-row unit vector from its origin marker to
    the joint marker (its x axis when they coincide)."""
    j = m.joint(joint_id)
    refs = ((j.link_a, "origin"), (j.link_a, j.marker_a), (j.link_b, "origin"), (j.link_b, j.marker_b))
    units = _spans(_points(pb.markers, refs, len(pb.origins)), np.array([[0, 1], [2, 3]]), floor=1e-12)[1]
    rotations = _complex(pb.rotations)
    a = np.conj(rotations[:, pb.index(j.link_a)] * units[:, :1])
    # the relative rotation b over a; folding its angle into [0, pi/2] takes
    # its cos and sin to their absolute values
    rel = rotations[:, pb.index(j.link_b)] * units[:, 1:] * a
    return np.arctan2(np.abs(rel.imag), np.abs(rel.real))
