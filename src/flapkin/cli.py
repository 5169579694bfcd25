"""Command-line surface.

Subcommands: validate, sweep, gait, synthesize, aero, animate. Exit codes:
0 success (and feasible, for synthesize), 1 domain error, 2 usage error,
3 I/O error. Domain errors print one line to stderr with a greppable prefix,
e.g. "E_FORMAT VALIDATION_ERROR: ...".
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .aero import AeroConfig, quasi_steady_forces
from .errors import FlapkinError, SchemaError
from .fileio import (aero_csv, decode_document, mechanism_from_doc, read_number, render_svg, serialize_mechanism,
                     trajectory_csv)
from .gait import MIN_SAMPLES, gait_metrics, generate_gait, min_transmission_angle
from .kinematics import TOLERANCE
from .mechanism import Mechanism, validate_mechanism
from .synthesis import BOUNDS, DesignSpace, GaitSpec, Parameter, synthesize


_MAX_SAMPLES = 2 ** 16  # crank angles per sweep; far more than any gait needs
_JSON_KINDS = {list: "a list", dict: "an object", str: "a string"}  # for `_typed`

# (option, test, requirement) for each option value a command would reject only
# after reading its input files, or not at all (a sample count that allocates
# gigabytes); `main` checks them in this order before any command runs and
# skips the options a command lacks
_OPTION_CHECKS = (
    *((opt, lambda v: v <= _MAX_SAMPLES, f"<= {_MAX_SAMPLES}") for opt in ("samples", "steps", "frames")),
    *((opt, lambda v: v >= MIN_SAMPLES, f">= {MIN_SAMPLES}") for opt in ("samples", "steps")),
    ("frames", lambda v: v >= 1, ">= 1"),
    ("seed", lambda v: v >= 0, ">= 0"),
    ("period", lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("tol", lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("freestream", math.isfinite, "finite"),
    ("density", lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("span", lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("strips", lambda v: v >= 4, ">= 4"),
)


def _read_mechanism(path: str, validate: bool = True) -> Mechanism:
    return _load_doc(path, lambda doc: mechanism_from_doc(doc, validate))


def cmd_validate(args) -> int:
    m = _read_mechanism(args.mechanism, validate=False)
    report = validate_mechanism(m)
    for v in report:
        print(f"{v.severity.value.upper()} {v.code}: {v.message}")
    if report.ok:
        print("OK")
        return 0
    return 1


def cmd_sweep(args) -> int:
    m = _read_mechanism(args.mechanism)
    gt = generate_gait(m, args.period, args.steps, args.tol)
    sys.stdout.write(trajectory_csv(gt))
    return 0


def cmd_gait(args) -> int:
    m = _read_mechanism(args.mechanism)
    if unknown := sorted(set(args.transmission_joint) - {j.id for j in m.joints}):
        raise ValueError(f"--transmission-joint {unknown[0]!r}: no such joint in {args.mechanism}")
    gt = generate_gait(m, args.period, args.samples, args.tol)
    text = ""
    if args.metrics or args.metrics_out:
        mu = min_transmission_angle(m, gt.poses, args.transmission_joint) if args.transmission_joint else None
        mts = gait_metrics(gt, mu)
        doc = {
            "plunge_amplitude_rad": mts.plunge_amplitude,
            "extension_range": list(mts.extension_range),
            "area_ratio_up_down": mts.area_ratio_up_down,
            "phase_lag_rad": mts.phase_lag,
            "min_transmission_angle_rad": mts.min_transmission_angle,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.metrics_out:  # before the CSV, so a path that cannot be written leaves stdout empty
        Path(args.metrics_out).write_text(text)
    sys.stdout.write(trajectory_csv(gt))
    if not args.metrics_out:
        sys.stderr.write(text)
    return 0


def _load_doc(path: str, build):
    """build(doc) for the JSON document at path. A file `decode_document` cannot
    decode is a ParseError; a missing, mistyped or out-of-range field a SchemaError."""
    doc = decode_document(Path(path).read_bytes(), f"{path}: ")
    try:
        return build(doc)
    except KeyError as e:
        raise SchemaError(f"{path}: missing field {e}") from e
    except (SchemaError, TypeError, AttributeError, ValueError) as e:
        raise SchemaError(f"{path}: {e}") from e


def _typed(value, kind: type, where: str, keys: tuple[str, ...] = ()):
    """value if it is the JSON kind (list, dict or str) with no key but keys, if given; else a SchemaError."""
    if not isinstance(value, kind):
        raise SchemaError(f"{where} must be {_JSON_KINDS[kind]}, got {reprlib.repr(value)}")
    if keys and (unknown := sorted(value.keys() - set(keys))):
        raise SchemaError(f"unknown keys {unknown}; {where} takes {', '.join(keys)}")
    return value


def _load_spec(path: str) -> GaitSpec:
    """The gait spec at path. It needs `plunge_amplitude_rad` and `extension_range`; a graded bound's key
    (`BOUNDS`) or `weights` it omits takes GaitSpec's default, and any other key is a SchemaError."""
    optional = (*((key, field, read_number) for _, field, key, *_ in BOUNDS),
                ("weights", "weights", lambda w, at: {k: read_number(v, "weight {!r}", k)
                                                      for k, v in _typed(w, dict, at).items()}))
    keys = ("plunge_amplitude_rad", "extension_range", *(key for key, _, _ in optional))

    def build(doc) -> GaitSpec:
        doc = _typed(doc, dict, "a gait spec", keys)
        ends = _typed(doc["extension_range"], list, "'extension_range'")
        return GaitSpec(read_number(doc["plunge_amplitude_rad"], "'plunge_amplitude_rad'"),
                        tuple(read_number(v, "'extension_range'") for v in ends),
                        **{field: convert(doc[key], repr(key)) for key, field, convert in optional if key in doc})
    return _load_doc(path, build)


def _load_space(path: str) -> DesignSpace:
    """The design space at path; a key it does not take, at the top or in a parameter, is a SchemaError."""
    def parameter(p) -> Parameter:
        p = _typed(p, dict, "a parameter", ("name", "lower", "upper"))
        name = _typed(p["name"], str, "a parameter's 'name'")
        return Parameter(name, *(read_number(p[k], "parameter {!r} {!r}", name, k) for k in ("lower", "upper")))

    def build(doc) -> DesignSpace:
        doc = _typed(doc, dict, "a design space", ("template", "parameters", "transmission_joints"))
        return DesignSpace(mechanism_from_doc(doc["template"]),
                           tuple(map(parameter, _typed(doc["parameters"], list, "'parameters'"))),
                           tuple(_typed(j, str, "a transmission joint")
                                 for j in _typed(doc.get("transmission_joints", []), list, "'transmission_joints'")))
    return _load_doc(path, build)


def cmd_synthesize(args) -> int:
    space = _load_space(args.space)
    spec = _load_spec(args.spec)
    result = synthesize(space, spec, args.budget, args.seed)
    Path(args.out).write_text(serialize_mechanism(result.mechanism))
    summary = {
        "cost": result.cost,
        "feasible": result.feasible,
        "evaluations": result.evaluations,
        "seed": result.seed,
        "parameters": {p.name: float(v) for p, v in zip(space.parameters, result.parameters)},
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if result.feasible else 1


def cmd_aero(args) -> int:
    try:
        chord = tuple(float(c) for c in args.chord.split(","))
    except ValueError:
        raise ValueError(f"--chord must be comma-separated numbers, got {args.chord!r}") from None
    if len(chord) < 2 or not all(0.0 <= c < math.inf for c in chord):
        raise ValueError(f"--chord must be at least 2 nonnegative finite numbers, got {args.chord!r}")
    m = _read_mechanism(args.mechanism)
    gt = generate_gait(m, args.period, args.samples, args.tol)
    span = args.span
    if span is None:
        # reach at full extension
        tip = gt.wingtip
        d = tip - np.array([[0.0, 0.0]])
        span = float(np.hypot(d[:, 0], d[:, 1]).max())
    cfg = AeroConfig(freestream=args.freestream, span=span, air_density=args.density,
                     strip_count=args.strips, chord_profile=chord)
    report = quasi_steady_forces(gt, cfg)
    sys.stdout.write(aero_csv(report))
    sys.stderr.write(
        f"net_vertical_impulse_ns {report.vertical_impulse:.12g}\n"
        f"net_horizontal_impulse_ns {report.horizontal_impulse:.12g}\n")
    return 0


def cmd_animate(args) -> int:
    m = _read_mechanism(args.mechanism)
    samples = max(args.frames, MIN_SAMPLES)
    gt = generate_gait(m, args.period, samples, args.tol)
    docs = render_svg(gt, m, args.frames)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, doc in enumerate(docs):
        (out_dir / f"frame_{i:04d}.svg").write_text(doc)
    print(f"wrote {len(docs)} frames to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flapkin",
                                 description="Planar armwing linkage kinematics, gait and synthesis toolkit")
    ap.add_argument("--version", action="version", version=f"flapkin {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=TOLERANCE,
                       help="Newton tolerance, meters; read only by chains the dyad plan cannot decompose (triads)")

    p = sub.add_parser("validate", help="validate a mechanism file")
    p.add_argument("mechanism")

    p = sub.add_parser("sweep", help="sweep one crank revolution, CSV to stdout")
    p.add_argument("mechanism")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--period", type=float, default=1.0, help="seconds per revolution for the t column")
    add_common(p)

    p = sub.add_parser("gait", help="generate a wingbeat gait, CSV to stdout")
    p.add_argument("mechanism")
    p.add_argument("--period", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--metrics", action="store_true", help="print metrics JSON to stderr")
    p.add_argument("--metrics-out", help="write metrics JSON to a file")
    p.add_argument("--transmission-joint", action="append", default=[],
                   help="joint id to track for the transmission-angle metric (repeatable)")
    add_common(p)

    p = sub.add_parser("synthesize", help="fit link dimensions to a gait spec")
    p.add_argument("space", help="design space JSON (template + parameters)")
    p.add_argument("spec", help="gait spec JSON")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output mechanism JSON")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")

    p = sub.add_parser("aero", help="quasi-steady force history, CSV to stdout")
    p.add_argument("mechanism")
    p.add_argument("--period", type=float, required=True)
    p.add_argument("--freestream", type=float, required=True, help="m/s")
    p.add_argument("--density", type=float, default=1.225, help="kg/m^3")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--strips", type=int, default=32)
    p.add_argument("--span", type=float, default=None, help="reach at full extension, m (default: from gait)")
    p.add_argument("--chord", default="0.08,0.075,0.06,0.03", help="root-to-tip chord samples, m")
    add_common(p)

    p = sub.add_parser("animate", help="render SVG frames of the wingbeat")
    p.add_argument("mechanism")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--period", type=float, default=1.0)
    p.add_argument("--out-dir", required=True)
    add_common(p)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call, then reused. Parsing
    leaves it as it was, so every call parses as a fresh parser would."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called repeatedly in one process."""
    ap = _parser()
    args = ap.parse_args(argv)
    for opt, ok, need in _OPTION_CHECKS:
        if (value := getattr(args, opt, None)) is not None and not ok(value):
            ap.error(f"--{opt} must be {need}, got {value}")
    # looked up by name at call time, so a replaced `cmd_*` is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except FlapkinError as e:
        sys.stderr.write(f"{e.family} {e.code}: {e}\n")
        return 1
    except ValueError as e:  # an argument the library rejects
        ap.error(str(e))  # exits 2
    except OSError as e:
        sys.stderr.write(f"E_IO {e.__class__.__name__}: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
