#!/usr/bin/env python3
"""Search the two-stage armwing geometry for the shipped example.

Random sampling around a hand-found nominal followed by a Nelder-Mead polish,
scoring margins against the gait requirements: retract-on-upstroke with a
clear extension range, reduced upstroke area, healthy transmission angles,
and a retraction phase faster than 60% of the wingbeat. The winner is frozen
into src/flapkin/data/armwing.json.

Usage: python scripts/design_armwing.py [--samples N] [--seed S] [--write]
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from flapkin.designs import ARMWING_TRANSMISSION_JOINTS, ArmwingParams, armwing_mechanism
from flapkin.errors import FlapkinError, GaitError
from flapkin.fileio import serialize_mechanism
from flapkin.gait import (
    gait_from_pose_arrays,
    gait_metrics,
    generate_gait,
    retraction_time,
    stroke_phases,
)
from flapkin.geometry import Point2
from flapkin.kinematics import sweep_arrays, transmission_angle_series
from flapkin.mechanism import validate_mechanism

NOMINAL = np.array([0.02, 0.0, 0.06, 0.05, 0.12, 0.067, 0.10, 0.0, 0.05, 0.03, 0.02, 0.13])
LOWER = np.array([0.012, -0.02, 0.04, 0.03, 0.10, 0.050, 0.06, -0.03, 0.03, 0.015, -0.03, 0.10])
UPPER = np.array([0.030, 0.02, 0.08, 0.07, 0.14, 0.090, 0.13, 0.03, 0.08, 0.050, 0.03, 0.16])

# margins beyond the acceptance thresholds (width 0.15, ratio 0.9, 30 deg, 0.06 s)
TARGET_WIDTH = 0.20
TARGET_RATIO = 0.84
TARGET_MU = math.radians(33.0)
TARGET_RETRACT = 0.050


def params_from(x: np.ndarray) -> ArmwingParams:
    return ArmwingParams(
        crank_r=x[0], shoulder=Point2(x[1], x[2]), drive_pin=x[3], humerus_len=x[4],
        coupler1_len=x[5], cpin=Point2(x[6], x[7]), coupler2_len=x[8],
        dpin=Point2(x[9], x[10]), forearm_len=x[11], trail=Point2(-0.02, 0.02),
    )


def score(x: np.ndarray, samples: int = 128) -> float:
    try:
        m = armwing_mechanism(params_from(x))
    except ValueError:
        return 1e6
    if not validate_mechanism(m).ok:
        return 1e6
    thetas = 2 * math.pi * np.arange(samples) / samples
    try:
        pb = sweep_arrays(m, thetas)
    except (FlapkinError, np.linalg.LinAlgError):
        return 1e6
    if pb.errors[0]:
        return 1e5 * (2.0 - int(pb.failed_at[0]) / samples)
    try:
        gt = gait_from_pose_arrays(m, pb, 0.1, np.arange(samples) * (0.1 / samples))
        mu = np.minimum.reduce([transmission_angle_series(m, pb, j)
                                for j in ARMWING_TRANSMISSION_JOINTS])
        mts = gait_metrics(gt, mu)
    except GaitError:
        return 1e5
    width = mts.extension_range[1] - mts.extension_range[0]
    loss = 0.0
    loss += max(0.0, TARGET_WIDTH - width) ** 2 * 100
    loss += max(0.0, mts.area_ratio_up_down - TARGET_RATIO) ** 2 * 100
    loss += max(0.0, TARGET_MU - mts.min_transmission_angle) ** 2 * 100
    loss += max(0.0, retraction_time(gt) - TARGET_RETRACT) ** 2 * 1e4
    # extension minimum must land in the upstroke
    if stroke_phases(gt.plunge)[int(np.argmin(gt.extension))] < 0:
        loss += 10.0
    # keep the flap itself meaningful
    loss += max(0.0, 0.5 - mts.plunge_amplitude) ** 2 * 10
    return loss


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    best_x, best = NOMINAL.copy(), score(NOMINAL)
    print(f"nominal loss: {best:.6g}")
    for _ in range(args.samples):
        x = np.clip(NOMINAL + rng.normal(scale=0.15, size=len(NOMINAL)) * (UPPER - LOWER),
                    LOWER, UPPER)
        s = score(x)
        if s < best:
            best_x, best = x, s
            print(f"  improved: {best:.6g}")
    res = minimize(lambda x: score(np.clip(x, LOWER, UPPER)), best_x,
                   method="Nelder-Mead", options={"maxfev": 2000, "xatol": 1e-6, "fatol": 1e-10})
    if score(np.clip(res.x, LOWER, UPPER)) < best:
        best_x = np.clip(res.x, LOWER, UPPER)
        best = score(best_x)
    print(f"final loss: {best:.6g}")
    print("x =", repr(best_x))

    m = armwing_mechanism(params_from(best_x))
    gt = generate_gait(m, 0.1, 256)
    mu = np.minimum.reduce([transmission_angle_series(m, gt.poses, j)
                            for j in ARMWING_TRANSMISSION_JOINTS])
    mts = gait_metrics(gt, mu)
    print("metrics:", mts)
    print("ext width:", mts.extension_range[1] - mts.extension_range[0])
    print("mu_min deg:", math.degrees(mts.min_transmission_angle))
    print("retraction s:", retraction_time(gt))
    if args.write:
        out = Path(__file__).resolve().parents[1] / "src" / "flapkin" / "data" / "armwing.json"
        out.write_text(serialize_mechanism(m))
        print("wrote", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
