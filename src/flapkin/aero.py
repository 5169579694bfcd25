"""Quasi-steady strip-theory scoring of a wingbeat.

Blade-element strips along the shoulder-to-wingtip line, each treated as a
steady thin airfoil at its instantaneous relative wind: dL = 0.5*rho*|W|^2 *
c(r) * Cl(alpha) * dr, lift perpendicular to the relative wind, drag omitted.
Cl = 2*pi*alpha clamped to +-cl_max (crude stall, sign-correct). The chordline
is assumed parallel to the freestream axis (the mechanism articulates plunge
and extension only, no pitching).

Sign conventions: the body flies toward +x at the freestream speed, so the
freestream in the body frame is (-U, 0); alpha is positive when a strip moves
downward, producing positive (upward) lift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AeroError, PeriodMismatchError
from .gait import GaitTrajectory, check_samples


@dataclass(frozen=True)
class AeroConfig:
    freestream: float
    span: float = 1.0                     # reach at extension ratio 1, meters
    air_density: float = 1.225
    strip_count: int = 32
    chord_profile: tuple[float, ...] = (0.1, 0.1, 0.1, 0.1)  # root -> tip, meters
    lift_slope: float = 2.0 * math.pi
    cl_max: float = 1.2

    def __post_init__(self):
        for name in ("freestream", "lift_slope", "cl_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.air_density < math.inf:
            raise ValueError("air density must be positive and finite")
        if self.strip_count < 4:
            raise ValueError("strip count must be >= 4")
        if not 0.0 < self.span < math.inf:
            raise ValueError("span must be positive and finite")
        if not all(0.0 <= c < math.inf for c in self.chord_profile) or len(self.chord_profile) < 2:
            raise ValueError("chord profile needs >= 2 nonnegative finite entries")


@dataclass(frozen=True)
class StripKinematics:
    """Per-sample, per-strip motion state. Arrays are (samples, strips)."""

    stations: np.ndarray       # strip centers as fractions of the reach, (strips,)
    positions: np.ndarray      # (N, S, 2) world strip centers, shoulder at origin
    velocities: np.ndarray     # (N, S, 2) strip velocities
    rel_wind: np.ndarray       # (N, S, 2) air velocity relative to the strip
    alpha: np.ndarray          # (N, S) effective angle of attack, rad
    speed: np.ndarray          # (N, S) |rel_wind|


@dataclass(frozen=True)
class AeroReport:
    period: float
    t: np.ndarray
    vertical_force: np.ndarray
    horizontal_force: np.ndarray
    vertical_impulse: float
    horizontal_impulse: float


def periodic_impulse(force: np.ndarray, dt: float) -> float:
    """Trapezoidal integral of a periodic series over one period (= dt * sum)."""
    return float(force.sum() * dt)


def strip_kinematics(gt: GaitTrajectory, cfg: AeroConfig) -> StripKinematics:
    """Blade-element decomposition of the gait.

    Strip centers sit at fractions (s + 0.5)/S of the instantaneous reach
    extension * span along the plunge ray (shoulder fixed at the origin);
    velocities come from periodic central differences of the strip positions.
    """
    check_samples(gt.samples)
    frac = (np.arange(cfg.strip_count) + 0.5) / cfg.strip_count
    r = gt.extension[:, None] * cfg.span * frac[None, :]          # (N, S)
    direction = np.stack([np.cos(gt.plunge), np.sin(gt.plunge)], axis=-1)  # (N, 2)
    pos = r[:, :, None] * direction[:, None, :]                   # (N, S, 2)
    dt = gt.dt
    vel = (np.roll(pos, -1, axis=0) - np.roll(pos, 1, axis=0)) / (2.0 * dt)
    wind = np.empty_like(vel)
    wind[..., 0] = -cfg.freestream - vel[..., 0]
    wind[..., 1] = -vel[..., 1]
    alpha = np.arctan2(wind[..., 1], -wind[..., 0])
    speed = np.hypot(wind[..., 0], wind[..., 1])
    return StripKinematics(frac, pos, vel, wind, alpha, speed)


def _chord_at(cfg: AeroConfig, frac: np.ndarray) -> np.ndarray:
    prof = np.asarray(cfg.chord_profile, dtype=float)
    xs = np.linspace(0.0, 1.0, len(prof))
    return np.interp(frac, xs, prof)


def quasi_steady_forces(gt: GaitTrajectory, cfg: AeroConfig) -> AeroReport:
    """Total per-sample lift forces and their per-cycle impulses.

    Chords are rescaled each sample so the instantaneous planform area
    (sum of chord * strip width) matches the gait's membrane area, which is
    how area modulation feeds the force model.
    """
    sk = strip_kinematics(gt, cfg)
    chord = _chord_at(cfg, sk.stations)[None, :]                   # (1, S)
    reach = gt.extension * cfg.span                                # (N,)
    dr = (reach / cfg.strip_count)[:, None]                        # (N, 1)
    planform = (chord * dr).sum(axis=1)                            # (N,)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(planform > 0.0, gt.area / np.where(planform > 0, planform, 1.0), 0.0)
    cl = np.clip(cfg.lift_slope * sk.alpha, -cfg.cl_max, cfg.cl_max)
    magnitude = 0.5 * cfg.air_density * sk.speed * cl * chord * scale[:, None] * dr
    # lift is perpendicular to the relative wind: unit (W_y, -W_x)/|W|
    fx = (magnitude * sk.rel_wind[..., 1]).sum(axis=1)
    fy = (magnitude * -sk.rel_wind[..., 0]).sum(axis=1)
    dt = gt.dt
    return AeroReport(gt.period, gt.t, fy, fx,
                      periodic_impulse(fy, dt), periodic_impulse(fx, dt))


@dataclass(frozen=True)
class RankedGait:
    rank: int
    input_index: int
    report: AeroReport


def compare_gaits(gaits: list[GaitTrajectory], cfg: AeroConfig) -> list[RankedGait]:
    """Rank gaits by net vertical impulse, descending. Ties break toward the
    lower |horizontal impulse|, then input order. All periods must match."""
    if len(gaits) < 2:
        raise AeroError("need at least two gaits to compare", code="TOO_FEW_GAITS")
    p0 = gaits[0].period
    for g in gaits[1:]:
        if not math.isclose(g.period, p0, rel_tol=1e-12, abs_tol=0.0):
            raise PeriodMismatchError(f"gait periods differ: {g.period} vs {p0}")
    reports = [quasi_steady_forces(g, cfg) for g in gaits]
    order = sorted(range(len(gaits)),
                   key=lambda i: (-reports[i].vertical_impulse,
                                  abs(reports[i].horizontal_impulse), i))
    return [RankedGait(rank, i, reports[i]) for rank, i in enumerate(order)]
