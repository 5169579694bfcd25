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

A joint becomes a compliant hinge either through an entry in "hinges" (stiffness
derived from the flexure dimensions) or through an explicit "stiffness_nm_per_rad",
which a joint's "rest_angle_rad" needs. Numbers are SI, angles radians. Every number here,
in a design space or in a gait spec must be a JSON int or float with a finite float value (`read_number`).
"""
from __future__ import annotations

import json
import math
import reprlib
from typing import Any

import numpy as np

from .compliance import HingeGeometry, hinge_stiffness
from .errors import ParseError, SchemaError
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
_PIN = RigidPin()  # frozen, so every rigid joint may share it
_TOP_KEYS = {"version", "links", "joints", "ground", "wing_polygon", "shoulder", "wingtip", "hinges"}
_LINK_KEYS = {"id", "role", "markers"}
_JOINT_REFS = ("id", "link_a", "marker_a", "link_b", "marker_b")  # Joint's first five fields
_INLINE_HINGE = ("stiffness_nm_per_rad", "rest_angle_rad")  # CompliantHinge's first two fields
_JOINT_KEYS = {*_JOINT_REFS, "actuated", *_INLINE_HINGE}
_HINGE_DIMS = ("width_m", "thickness_m", "length_m", "modulus_pa")  # HingeGeometry's fields
_HINGE_KEYS = {"joint", *_HINGE_DIMS, "rest_angle_rad"}


def _require(cond: bool, msg: str, *args):
    """SchemaError(msg.format(*args)) unless cond: the message is formatted only on failure."""
    if not cond:
        raise SchemaError(msg.format(*args))


def read_number(value: Any, where: str, *args) -> float:
    """A number field of an input document as a float: a JSON int or float whose float value is
    finite. Anything else is a SchemaError at where.format(*args), formatted only on failure."""
    try:
        if type(value) is not bool and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number; an int beyond the float range
        pass
    raise SchemaError(f"{where.format(*args)}: expected a finite number, got {reprlib.repr(value)}")


def _build(where: str, ident: str, make):
    """make(), which builds a mechanism part; a value that it rejects (ValueError)
    or that overflows is a SchemaError at where.format(ident)."""
    try:
        return make()
    except (ValueError, OverflowError) as e:
        raise SchemaError(f"{where.format(ident)}: {e}") from e


def _entries(doc: dict, key: str, kind: str, keys: set[str], strings: tuple[str, ...]):
    """The entries of the list doc[key] (if any), each an object of `keys` with a string at each of `strings`."""
    _require(isinstance(doc.get(key, []), list), "{!r} must be a list", key)
    for entry in doc.get(key, []):
        _require(isinstance(entry, dict), "{} entries must be objects", kind)
        if not keys.issuperset(entry):
            raise SchemaError(f"{kind}: unknown keys {sorted(entry.keys() - keys)}")
        for k in strings:
            if not isinstance(entry.get(k), str):
                raise SchemaError(f"{kind}: {k!r} must be a string")
        yield entry


def _marker_ref(value: Any, where: str) -> tuple[str, str]:
    _require(isinstance(value, (list, tuple)) and len(value) == 2
             and all(isinstance(v, str) for v in value), "{}: expected [link, marker]", where)
    return (value[0], value[1])


def decode_document(data: bytes | str, where: str = "") -> Any:
    """The JSON document of an input file's bytes (UTF-8) or text. What `json.loads` cannot decode (bytes that
    are not UTF-8, malformed JSON, an integer literal past the digit limit, nesting too deep) is a ParseError,
    its message prefixed by `where`."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ParseError(f"{where}malformed JSON: {e}") from e


def parse_mechanism(data: bytes | str, validate: bool = True) -> Mechanism:
    """Parse and validate a mechanism document: `mechanism_from_doc` of `decode_document(data)`."""
    return mechanism_from_doc(decode_document(data), validate)


def mechanism_from_doc(doc: Any, validate: bool = True) -> Mechanism:
    """The mechanism of a decoded document, the inverse of `mechanism_to_doc`.
    Raises SchemaError (an unknown key, a wrong type or version, a number that
    `read_number` rejects) or MechanismValidationError (a structural invariant
    fails; its message carries the code). validate=False skips that gate."""
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = doc.keys() - _TOP_KEYS
    _require(not unknown, "unknown top-level keys: {}", sorted(unknown))
    _require(read_number(doc.get("version"), "'version'") == SCHEMA_VERSION,
             "unsupported version {!r}, expected {}", doc.get("version"), SCHEMA_VERSION)
    for key in ("links", "joints", "ground"):
        _require(key in doc, "missing required key {!r}", key)

    links = []
    for entry in _entries(doc, "links", "link", _LINK_KEYS, ("id",)):
        lid, markers = entry["id"], entry.get("markers")
        _require(isinstance(markers, dict) and markers, "link {!r}: 'markers' must be a non-empty object", lid)
        points = {}
        for name, xy in markers.items():
            _require(isinstance(xy, (list, tuple)) and len(xy) == 2,
                     "link {!r} marker {!r}: expected [x, y]", lid, name)
            points[name] = Point2(read_number(xy[0], "link {!r} marker {!r}", lid, name),
                                  read_number(xy[1], "link {!r} marker {!r}", lid, name))
        links.append(_build("link {!r}", lid, lambda: Link(lid, points, LinkRole(entry.get("role", "generic")))))

    hinge_specs: dict[str, CompliantHinge] = {}
    for entry in _entries(doc, "hinges", "hinge", _HINGE_KEYS, ("joint",)):
        jid = entry["joint"]
        dims = [read_number(entry.get(k), "hinge {!r} {!r}", jid, k) for k in _HINGE_DIMS]
        rest = read_number(entry.get("rest_angle_rad", 0.0), "hinge {!r} 'rest_angle_rad'", jid)
        geom = _build("hinge {!r}", jid, lambda: HingeGeometry(*dims))
        hinge_specs[jid] = _build("hinge {!r}", jid, lambda: CompliantHinge(hinge_stiffness(geom), rest, geom))

    joints = []
    for entry in _entries(doc, "joints", "joint", _JOINT_KEYS, _JOINT_REFS):
        jid, actuated = entry["id"], entry.get("actuated", False)
        _require(isinstance(actuated, bool), "joint {!r}: 'actuated' must be a boolean", jid)
        kind = hinge_specs.pop(jid, _PIN)
        if inline := [read_number(entry[k], "joint {!r} {!r}", jid, k) for k in _INLINE_HINGE if k in entry]:
            _require("stiffness_nm_per_rad" in entry,
                     "joint {!r}: 'rest_angle_rad' needs an inline 'stiffness_nm_per_rad'", jid)
            _require(isinstance(kind, RigidPin),
                     "joint {!r}: give stiffness either inline or via 'hinges', not both", jid)
            kind = _build("joint {!r}", jid, lambda: CompliantHinge(*inline))
        joints.append(_build("joint {!r}", jid, lambda: Joint(*map(entry.get, _JOINT_REFS), kind, actuated)))
    _require(not hinge_specs, "hinges reference unknown joints: {}", sorted(hinge_specs))

    _require(isinstance(doc["ground"], str), "'ground' must be a link id string")
    polygon = tuple(_marker_ref(r, "wing_polygon") for r in doc.get("wing_polygon", []))
    shoulder, wingtip = (_marker_ref(doc[key], key) if key in doc else None for key in ("shoulder", "wingtip"))

    m = Mechanism(tuple(links), tuple(joints), doc["ground"], polygon, shoulder, wingtip)
    if validate:
        validate_mechanism(m).raise_first_error()
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

