"""Mechanism data model: links, joints, topology validation, four-bar classification.

A mechanism is a graph of rigid links connected by revolute joints. Joints are
either rigid pins or compliant hinges (thin flexible segments modeled as a pin
plus a torsional spring). Exactly one joint is actuated (the crank pin) and it
must sit on the ground link. The rigid-pin skeleton must have Gruebler mobility
one so a single motor determines the whole pose. One walk of the joint graph,
`placement`, orders the links from the ground; `mobility`, `fourbar_sides` and
the kinematics' dyad plan read it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DisconnectedError, MechanismValidationError
from .geometry import Point2

if TYPE_CHECKING:
    from .compliance import HingeGeometry


@dataclass(frozen=True)
class RigidPin:
    """Ideal revolute pin."""


@dataclass(frozen=True)
class CompliantHinge:
    """Living-hinge joint: a pin with a torsional spring.

    stiffness is in newton-meters per radian, rest_angle in radians (relative
    link_b-minus-link_a orientation at which the spring is relaxed). geometry
    optionally records the flexure dimensions the stiffness was derived from.
    """

    stiffness: float
    rest_angle: float = 0.0
    geometry: "HingeGeometry | None" = None

    def __post_init__(self):
        if not (self.stiffness > 0.0 and math.isfinite(self.stiffness)):
            raise ValueError(f"hinge stiffness must be positive, got {self.stiffness}")
        if not math.isfinite(self.rest_angle):
            raise ValueError("hinge rest angle must be finite")


JointKind = RigidPin | CompliantHinge


class LinkRole(enum.Enum):
    GROUND = "ground"
    CRANK = "crank"
    COUPLER = "coupler"
    ROCKER = "rocker"
    GENERIC = "generic"


@dataclass(frozen=True)
class Link:
    """Rigid body with named attachment markers in its local frame."""

    id: str
    markers: dict[str, Point2]
    role: LinkRole = LinkRole.GENERIC

    def __post_init__(self):
        if not self.markers:
            raise ValueError(f"link {self.id!r} needs at least one marker")
        if "origin" not in self.markers:
            raise ValueError(f"link {self.id!r} is missing the required 'origin' marker")

    def marker(self, name: str) -> Point2:
        return self.markers[name]


@dataclass(frozen=True)
class Joint:
    """Revolute connection between markers on two distinct links."""

    id: str
    link_a: str
    marker_a: str
    link_b: str
    marker_b: str
    kind: JointKind = field(default_factory=RigidPin)
    actuated: bool = False

    def __post_init__(self):
        if self.link_a == self.link_b:
            raise ValueError(f"joint {self.id!r} connects link {self.link_a!r} to itself")

    def other(self, link_id: str) -> str:
        return self.link_b if link_id == self.link_a else self.link_a


MarkerRef = tuple[str, str]  # (link id, marker name)


@dataclass(frozen=True)
class Mechanism:
    links: tuple[Link, ...]
    joints: tuple[Joint, ...]
    ground: str
    wing_polygon: tuple[MarkerRef, ...] = ()
    shoulder: MarkerRef | None = None
    wingtip: MarkerRef | None = None

    def link(self, link_id: str) -> Link:
        for l in self.links:
            if l.id == link_id:
                return l
        raise KeyError(link_id)

    def joint(self, joint_id: str) -> Joint:
        for j in self.joints:
            if j.id == joint_id:
                return j
        raise KeyError(joint_id)

    @property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.links)

    def moving_link_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.links if l.id != self.ground)

    def actuated_joint(self) -> Joint | None:
        for j in self.joints:
            if j.actuated:
                return j
        return None


# ---------------------------------------------------------------------------
# The joint graph: one walk gives mobility, the four-bar loop and the dyad plan


def per_topology(build):
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


def _pin(j: Joint, lid: str) -> tuple[str, str, str]:
    if j.link_a == lid:
        return j.marker_a, j.link_b, j.marker_b
    return j.marker_b, j.link_a, j.marker_a


@per_topology
def placement(m: Mechanism) -> tuple[tuple, ...]:
    """The one walk of the joint graph: the order in which to place the links. The crank, if the
    actuated joint is on the ground, then repeatedly (1) a link pinned to two placed links ("rigid"),
    (2) an RR dyad, two links sharing a joint (their `shared` markers), each pinned once to a placed
    link ("dyad"), (3) a link hung from one placed link at orientation zero ("hang"), until the set of
    link ids is placed. A step is (kind, links, pins, shared); a pin is (own marker, placed link, its
    marker). Raises DisconnectedError where the ground is no link, or a joint names a link that is
    not one of m's, or the joints from the ground do not reach every link."""
    ids = {l.id for l in m.links}
    if m.ground not in ids:
        raise DisconnectedError(f"ground link {m.ground!r} not among links")
    if unknown := sorted({lid for j in m.joints for lid in (j.link_a, j.link_b)} - ids):
        raise DisconnectedError(f"joints name links not among links: {unknown}")
    placed, steps = {m.ground}, []
    act = m.actuated_joint()
    if act is not None and m.ground in (act.link_a, act.link_b):
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

    while placed != ids:
        step = rigid() or dyad() or hang()
        if step is None:
            raise DisconnectedError(f"links not reachable from ground: {sorted(ids - placed)}")
        steps.append(step)
        placed.update(step[1])
    return tuple(steps)


def mobility(m: Mechanism) -> int:
    """Gruebler count 3*(n_links - 1) - 2*n_joints, all joints treated as pins. Raises
    DisconnectedError, as `placement` does, where the joint graph does not reach every link."""
    placement(m)
    return 3 * (len(m.links) - 1) - 2 * len(m.joints)


# ---------------------------------------------------------------------------
# Validation


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    severity: Severity = Severity.ERROR


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not any(v.severity is Severity.ERROR for v in self.violations)

    @property
    def codes(self) -> list[str]:
        return [v.code for v in self.violations]

    def raise_first_error(self) -> None:
        """MechanismValidationError with the code and message of the first error, if there is one."""
        if first := next((v for v in self.violations if v.severity is Severity.ERROR), None):
            raise MechanismValidationError(first.message, code=first.code)

    def __iter__(self):
        return iter(self.violations)

    def __len__(self):
        return len(self.violations)


def validate_mechanism(m: Mechanism) -> ValidationReport:
    """Check every mechanism invariant and report violations (empty = valid)."""
    out: list[Violation] = []
    link_ids = [l.id for l in m.links]
    seen_link_ids = set()
    for lid in link_ids:
        if lid in seen_link_ids:
            out.append(Violation("DUPLICATE_ID", f"duplicate link id {lid!r}"))
        seen_link_ids.add(lid)
    seen_joint_ids = set()
    for j in m.joints:
        if j.id in seen_joint_ids:
            out.append(Violation("DUPLICATE_ID", f"duplicate joint id {j.id!r}"))
        seen_joint_ids.add(j.id)

    if m.ground not in seen_link_ids:
        out.append(Violation("NO_GROUND", f"ground link {m.ground!r} does not exist"))
        return ValidationReport(tuple(out))

    def check_ref(ref: MarkerRef, where: str):
        lid, mname = ref
        if lid not in seen_link_ids:
            out.append(Violation("UNKNOWN_LINK", f"{where}: unknown link {lid!r}"))
        else:
            if mname not in m.link(lid).markers:
                out.append(Violation("UNKNOWN_MARKER", f"{where}: link {lid!r} has no marker {mname!r}"))

    for j in m.joints:
        check_ref((j.link_a, j.marker_a), f"joint {j.id!r}")
        check_ref((j.link_b, j.marker_b), f"joint {j.id!r}")

    actuated = [j for j in m.joints if j.actuated]
    if len(actuated) == 0:
        out.append(Violation("NO_ACTUATOR", "no actuated joint"))
    elif len(actuated) > 1:
        out.append(Violation("MULTIPLE_ACTUATORS", f"{len(actuated)} actuated joints, expected 1"))
    for j in actuated:
        if m.ground not in (j.link_a, j.link_b):
            out.append(Violation("ACTUATOR_NOT_GROUNDED", f"actuated joint {j.id!r} is not on the ground link"))

    try:
        dof = mobility(m)
        if dof != 1:
            out.append(Violation("MOBILITY_NOT_ONE", f"Gruebler mobility is {dof}, expected 1"))
    except DisconnectedError as e:
        out.append(Violation("DISCONNECTED", str(e)))

    if len(m.wing_polygon) < 3:
        out.append(Violation("BAD_WING_POLYGON", f"wing polygon has {len(m.wing_polygon)} vertices, need >= 3"))
    for ref in m.wing_polygon:
        check_ref(ref, "wing polygon")
    if m.shoulder is not None:
        check_ref(m.shoulder, "shoulder")
    if m.wingtip is not None:
        check_ref(m.wingtip, "wingtip")

    fb = as_fourbar(m)
    if fb is not None and grashof_classify(fb.fourbar) is FourBarClass.CHANGE_POINT:
        out.append(Violation("CHANGE_POINT", "four-bar loop is a change-point linkage (branch ambiguity)",
                             Severity.WARNING))

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# Four-bar abstraction


@dataclass(frozen=True)
class FourBar:
    """Pure four-bar dimensions: ground g, crank a, coupler b, rocker c.

    coupler_point is expressed in the coupler frame whose x axis runs from the
    crank pin toward the rocker pin.
    """

    g: float
    a: float
    b: float
    c: float
    coupler_point: Point2 = Point2(0.0, 0.0)

    def __post_init__(self):
        if not fourbar_lengths_valid(self.lengths):
            raise ValueError("four-bar lengths must be positive and finite, the longest bar "
                             f"shorter than the sum of the other three; got {self.lengths}")

    @property
    def lengths(self) -> tuple[float, float, float, float]:
        return (self.g, self.a, self.b, self.c)


class FourBarClass(enum.Enum):
    CRANK_ROCKER = "crank-rocker"
    DOUBLE_CRANK = "double-crank"
    DOUBLE_ROCKER = "double-rocker"
    CHANGE_POINT = "change-point"
    NON_GRASHOF = "non-grashof"


def grashof_classify(fb: FourBar) -> FourBarClass:
    """Classify by the Grashof inequality s+l vs p+q and the shortest bar.

    The crank-rocker class is reported whenever the shortest bar is a side
    link (crank or rocker position); the short side link is the one that can
    fully rotate.
    """
    lengths = fb.lengths
    if fourbar_change_point(lengths):
        return FourBarClass.CHANGE_POINT
    s, l = min(lengths), max(lengths)
    if s + l > sum(lengths) - s - l:
        return FourBarClass.NON_GRASHOF
    return {0: FourBarClass.DOUBLE_CRANK, 2: FourBarClass.DOUBLE_ROCKER}.get(lengths.index(s),
                                                                            FourBarClass.CRANK_ROCKER)


def fourbar_mechanism(fb: FourBar) -> Mechanism:
    """Build the canonical mechanism for a four-bar: ground along +x from the
    crank pivot, links named ground/crank/coupler/rocker, tip markers at the
    far pin of each bar, coupler point marker "cp"."""
    ground = Link("ground", {"origin": Point2(0, 0), "tip": Point2(fb.g, 0)}, LinkRole.GROUND)
    crank = Link("crank", {"origin": Point2(0, 0), "tip": Point2(fb.a, 0)}, LinkRole.CRANK)
    coupler = Link("coupler", {"origin": Point2(0, 0), "tip": Point2(fb.b, 0), "cp": fb.coupler_point},
                   LinkRole.COUPLER)
    rocker = Link("rocker", {"origin": Point2(0, 0), "tip": Point2(fb.c, 0)}, LinkRole.ROCKER)
    joints = (
        Joint("j_crank", "ground", "origin", "crank", "origin", actuated=True),
        Joint("j_a", "crank", "tip", "coupler", "origin"),
        Joint("j_b", "coupler", "tip", "rocker", "tip"),
        Joint("j_ground_rocker", "ground", "tip", "rocker", "origin"),
    )
    return Mechanism(
        links=(ground, crank, coupler, rocker),
        joints=joints,
        ground="ground",
        wing_polygon=(("ground", "origin"), ("ground", "tip"), ("coupler", "cp")),
        shoulder=("ground", "origin"),
        wingtip=("coupler", "cp"),
    )


@dataclass(frozen=True)
class FourBarView:
    """A four-bar loop recognized inside a Mechanism."""

    fourbar: FourBar
    follower_joint: str    # coupler-rocker pin (transmission joint)


def fourbar_sides(m: Mechanism) -> tuple[tuple[tuple[str, str, str], ...], str] | None:
    """The ground, crank, coupler and rocker sides, each (link, marker, marker),
    and the coupler-rocker joint of a mechanism that is exactly one four-bar
    loop, by topology alone; else None. Four links on four joints are that loop
    where their `placement` is the crank, then one dyad pinned to the crank (the
    coupler) and to the ground (the rocker). A side's length is the distance
    between its two markers; the ground side runs from the crank pivot, the
    crank and rocker sides from their ground pins and the coupler side from
    the crank."""
    if len(m.links) != 4 or len(m.joints) != 4:
        return None
    try:
        steps = placement(m)
    except DisconnectedError:
        return None
    if [step[0] for step in steps] != ["crank", "dyad"]:
        return None
    (_, (crank,), ((crank_own, _, pivot),), _), (_, links, pins, shared) = steps
    if {at for _, at, _ in pins} != {crank, m.ground}:
        return None
    (coupler, (coupler_own, _, crank_tip), coupler_end), (rocker, (rocker_own, _, ground_tip), rocker_end) = sorted(
        zip(links, pins, shared), key=lambda end: end[1][1] == m.ground)
    follower = next(j.id for j in m.joints if {j.link_a, j.link_b} == {coupler, rocker})
    return ((m.ground, pivot, ground_tip), (crank, crank_own, crank_tip), (coupler, coupler_own, coupler_end),
            (rocker, rocker_own, rocker_end)), follower


def fourbar_lengths_valid(lengths) -> np.ndarray:
    """Whether side lengths (g, a, b, c) along the last axis make a `FourBar`: all
    positive and finite, the longest shorter than the in-order sum of the rest."""
    lengths = np.asarray(lengths, dtype=float)
    longest, g, a, b, c = lengths.max(axis=-1), *(lengths[..., i] for i in range(4))
    with np.errstate(invalid="ignore"):
        return (lengths.min(axis=-1) > 0.0) & np.isfinite(longest) & (longest < g + a + b + c - longest)


def fourbar_change_point(lengths) -> np.ndarray:
    """Whether side lengths along the last axis make a change-point four-bar: s + l = p + q within
    1e-12 of the perimeter (s and l the shortest and longest side, p and q the other two)."""
    lengths = np.asarray(lengths, dtype=float)
    return abs(np.sort(lengths) @ (1, -1, -1, 1)) <= 1e-12 * lengths.sum(axis=-1)


def as_fourbar(m: Mechanism) -> FourBarView | None:
    """Recognize a mechanism that is exactly one four-bar loop, else None."""
    loop = fourbar_sides(m)
    if loop is None:
        return None
    sides, follower = loop
    lengths = tuple((m.link(lid).marker(m2) - m.link(lid).marker(m1)).norm() for lid, m1, m2 in sides)
    if not fourbar_lengths_valid(lengths):
        return None
    return FourBarView(FourBar(*lengths), follower)


def scale_mechanism(m: Mechanism, factor: float) -> Mechanism:
    """Uniformly scale every marker coordinate (for scale-equivariance checks)."""
    links = tuple(
        replace(l, markers={k: Point2(p.x * factor, p.y * factor) for k, p in l.markers.items()})
        for l in m.links
    )
    return replace(m, links=links)
