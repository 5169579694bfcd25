"""Wingbeat gait generation and phase metrics.

One wingbeat is one full crank revolution at constant rate 2*pi/period. The
gait is the time series of plunge angle (shoulder-to-wingtip ray above the
ground axis, unwrapped), extension ratio (reach normalized by the sweep
maximum), and membrane area (shoelace over the wing polygon markers), all
read off row 0 of the one-mechanism `PoseBatch` the revolution is swept into.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    GaitError,
    NoStrokeReversalError,
    ZeroReachError,
)
from .kinematics import (
    Branch,
    Configuration,
    DEFAULT_SETTINGS,
    PoseBatch,
    SolveSettings,
    sweep_arrays,
)
from .mechanism import Mechanism


@dataclass(frozen=True)
class GaitTrajectory:
    """Sampled wingbeat, columnar. Samples are endpoint-exclusive: t_k = k*T/N,
    crank_k = theta0 + 2*pi*k/N, so the series is periodic."""

    period: float
    t: np.ndarray
    crank: np.ndarray
    plunge: np.ndarray
    extension: np.ndarray
    area: np.ndarray
    wingtip: np.ndarray  # (N, 2)
    poses: PoseBatch | None = None  # the one-row sweep the gait was extracted from

    @property
    def samples(self) -> int:
        return len(self.t)

    @property
    def dt(self) -> float:
        return self.period / self.samples


@dataclass(frozen=True)
class GaitMetrics:
    plunge_amplitude: float
    extension_range: tuple[float, float]
    area_ratio_up_down: float
    phase_lag: float
    min_transmission_angle: float | None = None


def polygon_area(points: np.ndarray) -> float:
    """Unsigned shoelace area of a polygon given as an (V, 2) array."""
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def wingbeat_series(m: Mechanism, pb: PoseBatch):
    """Wingtip path, plunge, extension and membrane area of the sweeps in pb.

    Each distinct marker path of m's wingtip, shoulder and wing polygon is
    taken from pb once. Returns (tip, plunge, extension, area, min reach, max
    reach): tip is (x, y), each (B, N), the series are (B, N), and the reach
    extremes keep the sample axis as size one: a wingbeat needs a positive
    maximum and a minimum of at least 1e-12.
    """
    paths = {ref: pb.marker_world(ref) for ref in dict.fromkeys((m.wingtip, m.shoulder, *m.wing_polygon))}
    tip, shoulder = paths[m.wingtip], paths[m.shoulder]
    dx, dy = tip[0] - shoulder[0], tip[1] - shoulder[1]
    reach = np.hypot(dx, dy)
    lo, hi = reach.min(axis=-1, keepdims=True), reach.max(axis=-1, keepdims=True)
    plunge = np.unwrap(np.arctan2(dy, dx), axis=-1)
    x, y = [paths[ref][0] for ref in m.wing_polygon], [paths[ref][1] for ref in m.wing_polygon]

    def cross(a, b):  # sum of a_v * b_(v+1) over the vertices, in vertex order
        return sum(a[v] * b[(v + 1) % len(a)] for v in range(len(a)))

    area = 0.5 * np.abs(cross(x, y) - cross(y, x))
    with np.errstate(divide="ignore", invalid="ignore"):
        return tip, plunge, reach / hi, area, lo, hi


def gait_from_pose_arrays(m: Mechanism, pb: PoseBatch, period: float,
                          t: np.ndarray) -> GaitTrajectory:
    """Gait series of row 0 of a sweep that closes there, sampled at times t."""
    tip, plunge, extension, area, lo, hi = wingbeat_series(m, pb)
    if hi[0] <= 0.0:
        raise ZeroReachError("maximum reach over the sweep is zero")
    if lo[0] < 1e-12:
        raise DegenerateGeometryError("shoulder and wingtip coincide during the sweep")
    return GaitTrajectory(period, t, pb.thetas, plunge[0], extension[0], area[0],
                          np.stack(tip, axis=-1)[0], pb)


def generate_gait(m: Mechanism, period: float, samples: int,
                  settings: SolveSettings = DEFAULT_SETTINGS,
                  guess: Configuration | None = None,
                  branch: Branch = Branch.OPEN,
                  theta0: float = 0.0) -> GaitTrajectory:
    """Sweep one crank revolution at constant rate and extract gait series.

    Raises on sweep failure (the mechanism must assemble over the whole
    revolution to have a wingbeat).
    """
    if samples < 8:
        raise ValueError("samples must be >= 8")
    if not (period > 0.0 and math.isfinite(period)):
        raise ValueError("period must be positive and finite")
    if m.shoulder is None or m.wingtip is None or len(m.wing_polygon) < 3:
        raise GaitError("mechanism must declare shoulder, wingtip and wing polygon",
                        code="DEGENERATE")
    t = np.arange(samples) * (period / samples)
    thetas = theta0 + 2.0 * math.pi * np.arange(samples) / samples
    pb = sweep_arrays(m, thetas, settings, guess, branch)
    if error := pb.errors[0]:
        raise GaitError(
            f"sweep failed at step {pb.failed_at[0]} ({error}); "
            "mechanism does not complete a wingbeat", code=error)
    return gait_from_pose_arrays(m, pb, period, t)


def stroke_phases(plunge: np.ndarray) -> np.ndarray:
    """Per-sample stroke sign: +1 upstroke (plunge increasing), -1 downstroke.

    Uses periodic central differences with single-sample flickers removed by a
    3-sample majority filter. Works along the last axis.
    """
    p = np.concatenate([plunge[..., -1:], plunge, plunge[..., :1]], axis=-1)  # wrapped one sample each way
    sign = np.where(p[..., 2:] - p[..., :-2] >= 0.0, 1, -1)
    s = np.concatenate([sign[..., -1:], sign, sign[..., :1]], axis=-1)
    prev_s, sign, next_s = s[..., :-2], s[..., 1:-1], s[..., 2:]
    return np.where((sign != prev_s) & (sign != next_s), prev_s, sign)


def gait_metrics(gt: GaitTrajectory, transmission: np.ndarray | None = None) -> GaitMetrics:
    """Phase metrics of a sampled wingbeat.

    area_ratio_up_down is mean membrane area over the upstroke divided by the
    mean over the downstroke; phase_lag is the crank angle from mid-upstroke
    to the extension minimum, wrapped to (-pi, pi].
    """
    if gt.samples < 8:
        raise ValueError("need >= 8 samples for metrics")
    plunge = gt.plunge
    amp = 0.5 * float(plunge.max() - plunge.min())
    sign = stroke_phases(plunge)
    up = sign > 0
    down = ~up
    if up.all() or down.all():
        raise NoStrokeReversalError("plunge is monotone over the wingbeat; not a flapping gait")
    ratio = float(gt.area[up].mean() / gt.area[down].mean())

    ext_min_idx = int(np.argmin(gt.extension))
    # mid-upstroke: middle sample of the longest contiguous upstroke run
    # (the series is periodic, so scan doubled indices)
    runs = _contiguous_runs(up)
    start, length = max(runs, key=lambda r: r[1])
    mid_idx = (start + length // 2) % gt.samples
    lag = gt.crank[ext_min_idx] - gt.crank[mid_idx]
    lag = (lag + math.pi) % (2.0 * math.pi) - math.pi
    mu_min = float(np.min(transmission)) if transmission is not None else None
    return GaitMetrics(amp, (float(gt.extension.min()), float(gt.extension.max())),
                       ratio, float(lag), mu_min)


def _contiguous_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, length) of every True run in a periodic boolean series, in
    order of start; a run that wraps past the end starts before it."""
    n = len(mask)
    if mask.all():
        return [(0, n)]
    step = np.diff(mask.astype(np.int8), prepend=mask[-1])
    starts, stops = np.flatnonzero(step == 1), np.flatnonzero(step == -1)  # stop: first False after a run
    if len(stops) and stops[0] < starts[0]:  # the last run wraps past the end
        stops = np.roll(stops, -1)
    return list(zip(starts.tolist(), ((stops - starts) % n).tolist()))


def retraction_time(gt: GaitTrajectory, tol: float = 1e-12) -> float:
    """Duration of the longest contiguous phase with extension decreasing."""
    d_ext = np.roll(gt.extension, -1) - gt.extension
    retracting = d_ext < -tol
    runs = _contiguous_runs(retracting)
    if not runs:
        return 0.0
    return max(length for _, length in runs) * gt.dt
