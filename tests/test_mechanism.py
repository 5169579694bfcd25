"""Mechanism data model, mobility, validation and Grashof classification."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flapkin.errors import DisconnectedError
from flapkin.geometry import Point2
from flapkin.mechanism import (
    CompliantHinge,
    FourBar,
    FourBarClass,
    Joint,
    Link,
    LinkRole,
    Mechanism,
    as_fourbar,
    fourbar_change_point,
    fourbar_mechanism,
    fourbar_sides,
    grashof_classify,
    mobility,
    scale_mechanism,
    validate_mechanism,
)


def five_link_five_pin() -> Mechanism:
    links = [Link("ground", {"origin": Point2(0, 0), "a": Point2(4, 0)}, LinkRole.GROUND)]
    for i in range(4):
        links.append(Link(f"l{i}", {"origin": Point2(0, 0), "tip": Point2(1, 0)}))
    joints = (
        Joint("j0", "ground", "origin", "l0", "origin", actuated=True),
        Joint("j1", "l0", "tip", "l1", "origin"),
        Joint("j2", "l1", "tip", "l2", "origin"),
        Joint("j3", "l2", "tip", "l3", "origin"),
        Joint("j4", "l3", "tip", "ground", "a"),
    )
    return Mechanism(tuple(links), joints, "ground")


class TestMobility:
    def test_fourbar_is_one(self, fb_mech):
        assert mobility(fb_mech) == 1

    def test_watt_sixbar_is_one(self, armwing):
        # 6 links, 7 pins: 3*5 - 2*7 = 1
        assert len(armwing.links) == 6 and len(armwing.joints) == 7
        assert mobility(armwing) == 1

    def test_five_link_five_pin_is_two(self):
        assert mobility(five_link_five_pin()) == 2

    def test_disconnected_raises(self, fb_mech):
        floater = Link("floater", {"origin": Point2(9, 9)})
        m = Mechanism(fb_mech.links + (floater,), fb_mech.joints, fb_mech.ground)
        with pytest.raises(DisconnectedError):
            mobility(m)


MARKERS = {"origin": Point2(0, 0), "tip": Point2(1, 0), "mid": Point2(0.5, 0.5)}
END = st.sampled_from(sorted(MARKERS))


@st.composite
def joint_graphs(draw) -> Mechanism:
    """4 to 6 links l0, l1, ..., one of them the ground, on 3 to 8 joints with random markers, at most
    one of them actuated: any pairs of links, or else a loop through four of them in a random order."""
    n = draw(st.integers(4, 6))
    if draw(st.booleans()):
        ends = st.tuples(st.integers(0, n - 1), END)
        pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0][0] != e[1][0]), min_size=3, max_size=8))
    else:
        loop = draw(st.permutations(range(n)))[:4]
        pairs = draw(st.permutations([((a, draw(END)), (b, draw(END)))[::draw(st.sampled_from((1, -1)))]
                                      for a, b in zip(loop, loop[1:] + loop[:1])]))
    drive = draw(st.none() | st.integers(0, len(pairs) - 1))
    joints = tuple(Joint(f"j{k}", f"l{a}", ma, f"l{b}", mb, actuated=k == drive)
                   for k, ((a, ma), (b, mb)) in enumerate(pairs))
    return Mechanism(tuple(Link(f"l{i}", MARKERS) for i in range(n)), joints, f"l{draw(st.integers(0, n - 1))}")


def bfs_reached(m: Mechanism) -> set[str]:
    """The links a breadth-first search of the joints reaches from the ground."""
    reached, queue = {m.ground}, [m.ground]
    for lid in queue:
        for j in m.joints:
            if lid in (j.link_a, j.link_b) and j.other(lid) not in reached:
                reached.add(j.other(lid))
                queue.append(j.other(lid))
    return reached


def loop_walk(m: Mechanism):
    """The four-bar sides and follower joint by a walk of the loop ground -> crank -> coupler -> rocker ->
    ground from the actuated joint, where every one of four links has two of four joints; else None."""
    adj, joint = {l.id: [j for j in m.joints if l.id in (j.link_a, j.link_b)] for l in m.links}, m.actuated_joint()
    if (len(m.links) != 4 or len(m.joints) != 4 or [len(js) for js in adj.values()] != [2] * 4
            or joint is None or m.ground not in (joint.link_a, joint.link_b)):
        return None
    walk = [(m.ground, joint)]
    while (lid := joint.other(walk[-1][0])) != m.ground:
        joint = next(j for j in adj[lid] if j is not joint)
        walk.append((lid, joint))
    if len(walk) != 4:
        return None
    (ground, j_crank), (crank, j_a), (coupler, j_b), (rocker, j_g) = walk

    def marker(j: Joint, lid: str) -> str:
        return j.marker_a if j.link_a == lid else j.marker_b

    return tuple((lid, marker(j1, lid), marker(j2, lid))
                 for lid, j1, j2 in ((ground, j_crank, j_g), (crank, j_crank, j_a),
                                     (coupler, j_a, j_b), (rocker, j_g, j_b))), j_b.id


class TestOneWalk:
    """`placement`, the one walk of the joint graph, against reference definitions of what it answers."""

    @settings(max_examples=300, deadline=None)
    @given(joint_graphs())
    def test_mobility_and_the_fourbar_loop_match_the_references(self, m):
        unreached = sorted({l.id for l in m.links} - bfs_reached(m))
        if unreached:
            with pytest.raises(DisconnectedError) as e:
                mobility(m)
            assert str(e.value) == f"links not reachable from ground: {unreached}"
        else:
            assert mobility(m) == 3 * (len(m.links) - 1) - 2 * len(m.joints)
        assert fourbar_sides(m) == loop_walk(m)

    def test_the_references_see_a_fourbar_loop(self, fb_mech):
        assert loop_walk(fb_mech) == fourbar_sides(fb_mech) is not None
        assert bfs_reached(fb_mech) == {"ground", "crank", "coupler", "rocker"}

    def test_a_missing_ground_is_disconnected(self, fb_mech):
        with pytest.raises(DisconnectedError, match=r"^ground link 'nope' not among links$"):
            mobility(replace(fb_mech, ground="nope"))
        assert fourbar_sides(replace(fb_mech, ground="nope")) is None

    def test_a_duplicate_link_id_is_not_disconnected(self, fb_mech):
        m = replace(fb_mech, links=(*fb_mech.links, fb_mech.link("rocker")))
        assert mobility(m) == 4
        assert validate_mechanism(m).codes == ["DUPLICATE_ID", "MOBILITY_NOT_ONE"]


class TestValidation:
    def test_well_formed_fourbar_empty_report(self, fb_mech):
        report = validate_mechanism(fb_mech)
        assert report.ok
        assert len(report) == 0

    def test_two_actuated_joints(self, fb_mech):
        joints = tuple(
            j if j.id != "j_ground_rocker" else Joint(j.id, j.link_a, j.marker_a,
                                                      j.link_b, j.marker_b, j.kind, True)
            for j in fb_mech.joints)
        m = Mechanism(fb_mech.links, joints, fb_mech.ground,
                      fb_mech.wing_polygon, fb_mech.shoulder, fb_mech.wingtip)
        assert "MULTIPLE_ACTUATORS" in validate_mechanism(m).codes

    def test_mobility_two_flagged(self):
        assert "MOBILITY_NOT_ONE" in validate_mechanism(five_link_five_pin()).codes

    def test_idempotent(self, armwing):
        r1 = validate_mechanism(armwing)
        r2 = validate_mechanism(armwing)
        assert r1.codes == r2.codes and r1.ok == r2.ok

    def test_valid_mechanism_has_mobility_one(self, armwing, fb_mech):
        for m in (armwing, fb_mech):
            assert validate_mechanism(m).ok
            assert mobility(m) == 1


class TestGrashof:
    def test_crank_rocker(self):
        assert grashof_classify(FourBar(6, 2, 5, 5)) is FourBarClass.CRANK_ROCKER

    def test_parallelogram_change_point(self):
        assert grashof_classify(FourBar(4, 2, 4, 2)) is FourBarClass.CHANGE_POINT

    def test_non_grashof(self):
        # s+l = 2+6 = 8 > p+q = 3+4 = 7
        assert grashof_classify(FourBar(6, 3, 2, 4)) is FourBarClass.NON_GRASHOF

    def test_ground_shortest_double_crank(self):
        assert grashof_classify(FourBar(2, 5, 4, 6)) is FourBarClass.DOUBLE_CRANK

    def test_coupler_shortest_double_rocker(self):
        assert grashof_classify(FourBar(5, 4, 2, 6)) is FourBarClass.DOUBLE_ROCKER

    def test_change_point_rule_along_the_last_axis(self):
        # s + l = p + q within 1e-12 of the perimeter, for a block of four-bars
        # and for `grashof_classify`: 2e-13 off is a change point, 2e-11 off is not
        lengths = np.array([[4, 2, 4, 2], [6, 2, 5, 5], [4, 2, 4, 2 + 2e-13], [4, 2, 4, 2 + 2e-11]])
        want = [True, False, True, False]
        assert fourbar_change_point(lengths).tolist() == want
        assert [grashof_classify(FourBar(*row)) is FourBarClass.CHANGE_POINT for row in lengths.tolist()] == want

    @settings(max_examples=50, deadline=None)
    @given(lengths=st.tuples(*[st.floats(1.0, 10.0) for _ in range(4)]),
           lam=st.floats(1e-3, 1e3))
    def test_scaling_invariance(self, lengths, lam):
        g, a, b, c = lengths
        if max(lengths) >= sum(lengths) - max(lengths):
            return
        fb = FourBar(g, a, b, c)
        scaled = FourBar(lam * g, lam * a, lam * b, lam * c)
        assert grashof_classify(fb) is grashof_classify(scaled)


class TestFourBarType:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            FourBar(6, -2, 5, 5)

    def test_rejects_non_assemblable(self):
        # longest bar not shorter than the sum of the other three
        with pytest.raises(ValueError):
            FourBar(10, 1, 2, 3)

    def test_lengths_property(self, fb_example):
        assert fb_example.lengths == (6.0, 2.0, 5.0, 5.0)


class TestRecognizer:
    def test_canonical_fourbar_recognized(self, fb_mech, fb_example):
        view = as_fourbar(fb_mech)
        assert view is not None
        assert view.fourbar.lengths == pytest.approx(fb_example.lengths)
        assert view.follower_joint == "j_b"

    def test_sixbar_not_recognized(self, armwing):
        assert as_fourbar(armwing) is None

    @pytest.mark.parametrize("relabel", [
        lambda js: js,
        lambda js: js[::-1],
        lambda js: tuple(replace(j, link_a=j.link_b, marker_a=j.marker_b, link_b=j.link_a, marker_b=j.marker_a)
                         for j in js),
    ], ids=["as-declared", "joints-in-another-order", "link-a-b-swapped"])
    def test_relabelled_fourbar_recognized(self, fb_mech, relabel):
        m = replace(fb_mech, joints=relabel(fb_mech.joints))
        # the ground side runs from the crank pivot, the coupler's from the crank pin
        # and the crank's and rocker's from their ground pins: origin to tip on each
        assert fourbar_sides(m) == (tuple((lid, "origin", "tip") for lid in ("ground", "crank", "coupler", "rocker")),
                                    "j_b")
        assert as_fourbar(m).fourbar.lengths == as_fourbar(fb_mech).fourbar.lengths
        assert as_fourbar(m).follower_joint == "j_b"

    @pytest.mark.parametrize("joints", [
        # ground-crank and coupler-rocker double joints: two 2-cycles
        (Joint("j0", "ground", "origin", "crank", "origin", actuated=True),
         Joint("j1", "ground", "tip", "crank", "tip"),
         Joint("j2", "coupler", "origin", "rocker", "origin"),
         Joint("j3", "coupler", "tip", "rocker", "tip")),
        # the loop of the canonical four-bar, driven at the crank-coupler pin
        (Joint("j_crank", "ground", "origin", "crank", "origin"),
         Joint("j_a", "crank", "tip", "coupler", "origin", actuated=True),
         Joint("j_b", "coupler", "tip", "rocker", "tip"),
         Joint("j_ground_rocker", "ground", "tip", "rocker", "origin")),
        # a ground-crank-coupler triangle with the rocker hung from the coupler
        (Joint("j0", "ground", "origin", "crank", "origin", actuated=True),
         Joint("j1", "crank", "tip", "coupler", "origin"),
         Joint("j2", "coupler", "cp", "rocker", "origin"),
         Joint("j3", "coupler", "tip", "ground", "tip")),
        # the canonical four-bar plus a fifth pin
        (*fourbar_mechanism(FourBar(6.0, 2.0, 5.0, 5.0)).joints, Joint("j5", "crank", "tip", "rocker", "tip")),
    ], ids=["double-joints", "actuator-off-ground", "triangle-plus-one", "five-joints"])
    def test_not_one_fourbar_loop(self, fb_mech, joints):
        m = replace(fb_mech, joints=joints)
        assert fourbar_sides(m) is None
        assert as_fourbar(m) is None


class TestScaleMechanism:
    def test_markers_scaled(self, fb_mech):
        m2 = scale_mechanism(fb_mech, 3.0)
        for l1, l2 in zip(fb_mech.links, m2.links):
            for name, p in l1.markers.items():
                q = l2.markers[name]
                assert q.x == pytest.approx(3.0 * p.x, abs=1e-15)
                assert q.y == pytest.approx(3.0 * p.y, abs=1e-15)


class TestJointTypes:
    def test_compliant_hinge_needs_positive_stiffness(self):
        with pytest.raises(ValueError):
            CompliantHinge(stiffness=-1.0)

    def test_self_joint_rejected(self):
        with pytest.raises(ValueError):
            Joint("j", "a", "origin", "a", "origin")

    def test_link_requires_origin_marker(self):
        with pytest.raises(ValueError):
            Link("l", {"tip": Point2(1, 0)})

    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
