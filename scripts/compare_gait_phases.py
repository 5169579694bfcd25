#!/usr/bin/env python3
"""Rank area-modulation phasings of the shipped armwing gait by net lift.

Generates the armwing wingbeat, then rebuilds it with the membrane area
series rotated relative to the plunge (in-phase, as-built, anti-phase) and
runs the quasi-steady strip model on each variant. Prints a small table;
the as-built gait should land between the two synthetic extremes.

Usage: python scripts/compare_gait_phases.py [--period S] [--freestream U]
"""
from __future__ import annotations

import argparse
import dataclasses

from flapkin.aero import AeroConfig, compare_gaits, default_span
from flapkin.designs import two_stage_armwing
from flapkin.gait import generate_gait, stroke_phases


def area_variant(gt, mod_sign: float):
    """Replace the area series with a sign-modulated one of equal mean."""
    mean = float(gt.area.mean())
    sign = stroke_phases(gt.plunge)
    area = mean * (1.0 - 0.3 * mod_sign * sign)
    return dataclasses.replace(gt, area=area)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--period", type=float, default=0.1)
    ap.add_argument("--samples", type=int, default=256)
    ap.add_argument("--freestream", type=float, default=3.0)
    args = ap.parse_args()

    m = two_stage_armwing()
    gt = generate_gait(m, args.period, args.samples)
    span = default_span(gt)
    cfg = AeroConfig(freestream=args.freestream, span=span,
                     chord_profile=(0.08, 0.075, 0.06, 0.03))

    labels = {0: "in-phase (down big)", 1: "as built", 2: "anti-phase (up big)"}
    gaits = [area_variant(gt, +1.0), gt, area_variant(gt, -1.0)]
    print(f"period {args.period} s, freestream {args.freestream} m/s, span {span:.3f} m")
    for r in compare_gaits(gaits, cfg):
        print(f"  #{r.rank + 1} {labels[r.input_index]:22s} "
              f"vertical impulse {r.report.vertical_impulse:+.4e} N*s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
