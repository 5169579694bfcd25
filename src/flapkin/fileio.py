"""Serialization: mechanism JSON (version 1), trajectory CSV, SVG frames.

The mechanism document is deliberately small and hand-authorable:

    {"version": 1,
     "links":  [{"id": ..., "role": ..., "markers": {"origin": [x, y], ...}}],
     "joints": [{"id": ..., "link_a": ..., "marker_a": ..., "link_b": ...,
                 "marker_b": ..., "actuated": false,
                 "stiffness_nm_per_rad": ..., "rest_angle_rad": ...}],
     "ground": ..., "wing_polygon": [[link, marker], ...],
     "shoulder": [link, marker], "wingtip": [link, marker],
     "hinges": [{"joint": ..., "width_m": ..., "thickness_m": ...,
                 "length_m": ..., "modulus_pa": ..., "rest_angle_rad": ...}]}

A joint becomes a compliant hinge either through an entry in "hinges"
(stiffness derived from the flexure dimensions) or through an explicit
"stiffness_nm_per_rad". All numbers are SI; angles are radians.
"""
from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .compliance import HingeGeometry, hinge_stiffness
from .errors import MechanismValidationError, ParseError, SchemaError
from .gait import GaitTrajectory, polygon_area
from .geometry import Point2
from .mechanism import (
    CompliantHinge,
    Joint,
    Link,
    LinkRole,
    Mechanism,
    RigidPin,
    validate_mechanism,
)

SCHEMA_VERSION = 1
_TOP_KEYS = {"version", "links", "joints", "ground", "wing_polygon", "shoulder", "wingtip", "hinges"}
_LINK_KEYS = {"id", "role", "markers"}
_JOINT_KEYS = {"id", "link_a", "marker_a", "link_b", "marker_b", "actuated",
               "stiffness_nm_per_rad", "rest_angle_rad"}
_HINGE_KEYS = {"joint", "width_m", "thickness_m", "length_m", "modulus_pa", "rest_angle_rad"}


def _require(cond: bool, msg: str, *args):
    """SchemaError(msg.format(*args)) unless cond: the message is formatted only on failure."""
    if not cond:
        raise SchemaError(msg.format(*args))


def _marker_ref(value: Any, where: str) -> tuple[str, str]:
    _require(isinstance(value, (list, tuple)) and len(value) == 2
             and all(isinstance(v, str) for v in value), "{}: expected [link, marker]", where)
    return (value[0], value[1])


def parse_mechanism(data: bytes | str, validate: bool = True) -> Mechanism:
    """Parse and validate a mechanism document.

    Raises ParseError (malformed JSON, with line/column), SchemaError
    (unknown key or wrong type/version), or MechanismValidationError (a
    structural invariant fails; the message carries the violation code).
    With validate=False the structural gate is skipped so callers can
    inspect the full validation report themselves.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, "unknown top-level keys: {}", sorted(unknown))
    _require(doc.get("version") == SCHEMA_VERSION,
             "unsupported version {!r}, expected {}", doc.get("version"), SCHEMA_VERSION)
    for key in ("links", "joints", "ground"):
        _require(key in doc, "missing required key {!r}", key)

    links = []
    _require(isinstance(doc["links"], list), "'links' must be a list")
    for entry in doc["links"]:
        _require(isinstance(entry, dict), "link entries must be objects")
        unknown = set(entry) - _LINK_KEYS
        _require(not unknown, "link: unknown keys {}", sorted(unknown))
        _require(isinstance(entry.get("id"), str), "link 'id' must be a string")
        markers = entry.get("markers")
        _require(isinstance(markers, dict) and markers, "link {!r}: 'markers' must be a non-empty object", entry["id"])
        parsed_markers = {}
        for name, xy in markers.items():
            _require(isinstance(xy, (list, tuple)) and len(xy) == 2
                     and all(isinstance(v, (int, float)) for v in xy),
                     "link {!r} marker {!r}: expected [x, y]", entry["id"], name)
            try:
                parsed_markers[name] = Point2(float(xy[0]), float(xy[1]))
            except ValueError as e:
                raise SchemaError(f"link {entry['id']!r} marker {name!r}: {e}") from e
        role = entry.get("role", "generic")
        try:
            role = LinkRole(role)
        except ValueError:
            raise SchemaError(f"link {entry['id']!r}: unknown role {role!r}")
        try:
            links.append(Link(entry["id"], parsed_markers, role))
        except ValueError as e:
            raise SchemaError(f"link {entry['id']!r}: {e}") from e

    hinge_specs: dict[str, tuple[CompliantHinge | None, dict]] = {}
    hinges_doc = doc.get("hinges", [])
    _require(isinstance(hinges_doc, list), "'hinges' must be a list")
    for entry in hinges_doc:
        _require(isinstance(entry, dict), "hinge entries must be objects")
        unknown = set(entry) - _HINGE_KEYS
        _require(not unknown, "hinge: unknown keys {}", sorted(unknown))
        _require(isinstance(entry.get("joint"), str), "hinge 'joint' must be a string")
        for k in ("width_m", "thickness_m", "length_m", "modulus_pa"):
            _require(isinstance(entry.get(k), (int, float)), "hinge {!r}: missing numeric {!r}", entry["joint"], k)
        try:
            geom = HingeGeometry(float(entry["width_m"]), float(entry["thickness_m"]),
                                 float(entry["length_m"]), float(entry["modulus_pa"]))
        except ValueError as e:
            raise SchemaError(f"hinge {entry['joint']!r}: {e}") from e
        rest = float(entry.get("rest_angle_rad", 0.0))
        hinge_specs[entry["joint"]] = (CompliantHinge(hinge_stiffness(geom), rest, geom), entry)

    joints = []
    _require(isinstance(doc["joints"], list), "'joints' must be a list")
    for entry in doc["joints"]:
        _require(isinstance(entry, dict), "joint entries must be objects")
        unknown = set(entry) - _JOINT_KEYS
        _require(not unknown, "joint: unknown keys {}", sorted(unknown))
        for k in ("id", "link_a", "marker_a", "link_b", "marker_b"):
            _require(isinstance(entry.get(k), str), "joint: {!r} must be a string", k)
        actuated = entry.get("actuated", False)
        _require(isinstance(actuated, bool), "joint {!r}: 'actuated' must be a boolean", entry["id"])
        kind = RigidPin()
        if entry["id"] in hinge_specs:
            _require("stiffness_nm_per_rad" not in entry,
                     "joint {!r}: give stiffness either inline or via 'hinges', not both", entry["id"])
            kind = hinge_specs.pop(entry["id"])[0]
        elif "stiffness_nm_per_rad" in entry:
            _require(isinstance(entry["stiffness_nm_per_rad"], (int, float)),
                     "joint {!r}: stiffness must be numeric", entry["id"])
            try:
                kind = CompliantHinge(float(entry["stiffness_nm_per_rad"]),
                                      float(entry.get("rest_angle_rad", 0.0)))
            except ValueError as e:
                raise SchemaError(f"joint {entry['id']!r}: {e}") from e
        try:
            joints.append(Joint(entry["id"], entry["link_a"], entry["marker_a"],
                                entry["link_b"], entry["marker_b"], kind, actuated))
        except ValueError as e:
            raise SchemaError(f"joint {entry['id']!r}: {e}") from e
    _require(not hinge_specs, "hinges reference unknown joints: {}", sorted(hinge_specs))

    _require(isinstance(doc["ground"], str), "'ground' must be a link id string")
    polygon = tuple(_marker_ref(r, "wing_polygon") for r in doc.get("wing_polygon", []))
    shoulder = _marker_ref(doc["shoulder"], "shoulder") if "shoulder" in doc else None
    wingtip = _marker_ref(doc["wingtip"], "wingtip") if "wingtip" in doc else None

    m = Mechanism(tuple(links), tuple(joints), doc["ground"], polygon, shoulder, wingtip)
    if validate:
        report = validate_mechanism(m)
        if not report.ok:
            first = next(v for v in report if v.severity.value == "error")
            raise MechanismValidationError(first.message, code=first.code)
    return m


def mechanism_to_doc(m: Mechanism) -> dict:
    doc: dict[str, Any] = {"version": SCHEMA_VERSION}
    doc["links"] = [
        {"id": l.id, "role": l.role.value,
         "markers": {k: [p.x, p.y] for k, p in l.markers.items()}}
        for l in m.links
    ]
    joints = []
    hinges = []
    for j in m.joints:
        entry: dict[str, Any] = {"id": j.id, "link_a": j.link_a, "marker_a": j.marker_a,
                                 "link_b": j.link_b, "marker_b": j.marker_b}
        if j.actuated:
            entry["actuated"] = True
        if isinstance(j.kind, CompliantHinge):
            if j.kind.geometry is not None:
                g = j.kind.geometry
                hinges.append({"joint": j.id, "width_m": g.width, "thickness_m": g.thickness,
                               "length_m": g.length, "modulus_pa": g.elastic_modulus,
                               "rest_angle_rad": j.kind.rest_angle})
            else:
                entry["stiffness_nm_per_rad"] = j.kind.stiffness
                entry["rest_angle_rad"] = j.kind.rest_angle
        joints.append(entry)
    doc["joints"] = joints
    doc["ground"] = m.ground
    doc["wing_polygon"] = [list(r) for r in m.wing_polygon]
    if m.shoulder is not None:
        doc["shoulder"] = list(m.shoulder)
    if m.wingtip is not None:
        doc["wingtip"] = list(m.wingtip)
    if hinges:
        doc["hinges"] = hinges
    return doc


def serialize_mechanism(m: Mechanism) -> str:
    return json.dumps(mechanism_to_doc(m), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Trajectory CSV

TRAJECTORY_HEADER = "t_s,crank_rad,plunge_rad,extension,area_m2,wingtip_x_m,wingtip_y_m"


def _num(x: float) -> str:
    return f"{x:.12g}"


def _csv(header: str, columns) -> str:
    """CSV of equal-length columns: the header, then one row per sample, each
    cell with 12 significant digits as `_num` writes it, all by one `%` over
    the row template repeated once per row; LF endings."""
    table = np.column_stack(columns)  # row-major, as the cells follow in the text
    row = "\n" + ",".join(["%.12g"] * len(columns))
    return header + (row * len(table)) % tuple(table.ravel().tolist()) + "\n"


def trajectory_csv(gt: GaitTrajectory) -> str:
    """Render a gait as CSV: fixed header, 12 significant digits, LF endings."""
    return _csv(TRAJECTORY_HEADER, (gt.t, gt.crank, gt.plunge, gt.extension, gt.area,
                                    gt.wingtip[:, 0], gt.wingtip[:, 1]))


AERO_HEADER = "t_s,vertical_force_n,horizontal_force_n"


def aero_csv(report) -> str:
    return _csv(AERO_HEADER, (report.t, report.vertical_force, report.horizontal_force))


# ---------------------------------------------------------------------------
# SVG frames


def render_svg(gt: GaitTrajectory, m: Mechanism, frames: int) -> list[str]:
    """One SVG document per frame: links as segments, joints as circles
    (filled when compliant), the wing polygon shaded. The viewBox is the
    global bounding box of all frames plus a 5% margin, fixed across frames.
    """
    if gt.poses is None:
        raise ValueError("gait carries no sweep to render (GaitTrajectory.poses is None)")
    if frames < 1 or frames > gt.samples:
        raise ValueError(f"frames must be in [1, {gt.samples}]")
    idx = np.linspace(0, gt.samples - 1, frames).astype(int)
    # per link, its joint markers in joint declaration order (a lone marker
    # draws as a short stub at the origin so the link is visible)
    link_refs = {}
    for l in m.links:
        refs = [(l.id, j.marker_a if j.link_a == l.id else j.marker_b)
                for j in m.joints if l.id in (j.link_a, j.link_b)]
        link_refs[l.id] = refs if len(refs) >= 2 else [(l.id, "origin")]
    joints = [((j.link_a, j.marker_a), isinstance(j.kind, CompliantHinge)) for j in m.joints]
    drawn = list(dict.fromkeys([*(ref for refs in link_refs.values() for ref in refs),
                                *(ref for ref, _ in joints), *m.wing_polygon]))
    z = gt.poses.marker_paths(drawn)[0][:, idx]  # (R, frames): every marker drawn, at every frame
    col = {ref: i for i, ref in enumerate(drawn)}
    poly = [col[ref] for ref in m.wing_polygon]
    areas = polygon_area(z.real[poly], z.imag[poly]) if len(poly) >= 3 else np.zeros(frames)

    x0, x1, y0, y1 = z.real.min(), z.real.max(), z.imag.min(), z.imag.max()
    w, h = max(x1 - x0, 1e-9), max(y1 - y0, 1e-9)
    mx, my = 0.05 * w, 0.05 * h
    view_box = f"{_num(x0 - mx)} {_num(-(y1 + my))} {_num(w + 2 * mx)} {_num(h + 2 * my)}"
    stroke = _num(0.01 * max(w, h))
    r_pin = _num(0.015 * max(w, h))

    docs = []
    for x, y, area in zip(z.real.T.tolist(), z.imag.T.tolist(), areas):
        xy = [f"{_num(a)},{_num(b)}" for a, b in zip(x, y)]  # each marker's vertex text
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view_box}">',
            f'<g transform="scale(1,-1)" stroke="#222" stroke-width="{stroke}" '
            'stroke-linecap="round" fill="none">',
        ]
        if area >= 1e-12:
            pts_attr = " ".join(xy[c] for c in poly)
            parts.append(f'<polygon points="{pts_attr}" fill="#9ecae1" fill-opacity="0.5" stroke="none"/>')
        for refs in link_refs.values():
            if len(refs) >= 2:
                attr = " ".join(xy[col[ref]] for ref in refs)
                parts.append(f'<polyline points="{attr}"/>')
        for ref, compliant in joints:
            fill = "#222" if compliant else "#fff"
            parts.append(f'<circle cx="{_num(x[col[ref]])}" cy="{_num(y[col[ref]])}" r="{r_pin}" fill="{fill}"/>')
        parts.append("</g></svg>")
        docs.append("\n".join(parts) + "\n")
    return docs

