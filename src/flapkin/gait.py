"""Wingbeat gait generation and the wingbeat rules.

One wingbeat is one full crank revolution at constant rate 2*pi/period. The
gait is the time series of plunge angle (shoulder-to-wingtip ray above the
ground axis, unwrapped), extension ratio (reach normalized by the sweep
maximum), and membrane area (`polygon_area`, the shoelace over the wing
polygon markers).

Each wingbeat rule is defined here once, along the last axis of (B, N) series:
one gait and a synthesis population are measured by the same code. The
longest periodic run of a (B, N) mask (`longest_runs`) places mid-upstroke
for the phase lag and gives `retraction_time`, its one-row case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateGeometryError, GaitError, NoStrokeReversalError, ZeroReachError
from .kinematics import PoseBatch, sweep_arrays, transmission_angle_series
from .mechanism import Mechanism

MIN_SAMPLES = 8  # fewest crank angles a wingbeat is sampled at
RETRACTING = 1e-12  # least drop in extension per sample that counts as retracting


@dataclass(frozen=True)
class GaitTrajectory:
    """Sampled wingbeat, columnar. Samples are endpoint-exclusive: t_k = k*T/N,
    crank_k = 2*pi*k/N, so the series is periodic."""

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


def polygon_area(x, y):
    """Unsigned shoelace area of the polygon with vertices (x[v], y[v]), in
    vertex order. The entries are floats or arrays of one shape (a vertex's
    coordinate in each of many polygons), and the area has their shape."""
    def cross(a, b):  # sum of a_v * b_(v+1) over the vertices, in vertex order, from the first
        return sum((a[v] * b[(v + 1) % len(a)] for v in range(1, len(a))), a[0] * b[1 % len(a)])

    return 0.5 * np.abs(cross(x, y) - cross(y, x))


def check_samples(samples: int) -> None:
    """The wingbeat's sample minimum: ValueError below MIN_SAMPLES."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"need >= {MIN_SAMPLES} samples for a wingbeat")


@lru_cache(maxsize=8)
def crank_angles(samples: int) -> np.ndarray:
    """The wingbeat's `samples` crank angles 2 pi k / samples, as a read-only view."""
    return np.broadcast_to(2.0 * math.pi * np.arange(samples) / samples, (samples,))


def require_wingbeat(m: Mechanism) -> None:
    """GaitError DEGENERATE unless m declares shoulder, wingtip and a wing polygon of >= 3 markers."""
    if m.shoulder is None or m.wingtip is None or len(m.wing_polygon) < 3:
        raise GaitError("mechanism must declare shoulder, wingtip and wing polygon", code="DEGENERATE")


def wingbeat_series(m: Mechanism, pb: PoseBatch):
    """Wingtip path, plunge, extension and membrane area of the sweeps in pb.

    The paths of m's wing polygon, wingtip and shoulder markers are taken
    from pb in one block. Returns (tip, plunge, extension, area, zero_reach,
    coincident): tip is (x, y), each (B, N), the series are (B, N), and the
    reach rule's (B,) masks flag a maximum reach that is not positive and a
    minimum below 1e-12 (shoulder on the wingtip); a wingbeat has neither.
    The plunge is unwrapped as `np.unwrap` does it, which only rows with a
    step of pi or more need; on the others it adds zeros.
    """
    refs = list(dict.fromkeys((*m.wing_polygon, m.wingtip, m.shoulder)))
    z = pb.marker_paths(refs)
    tip = z[:, refs.index(m.wingtip)]
    arm = tip - z[:, refs.index(m.shoulder)]
    reach = np.abs(arm)
    lo, hi = reach.min(axis=-1), reach.max(axis=-1)
    plunge = np.arctan2(arm.imag, arm.real)
    turns = (~(np.abs(plunge[:, 1:] - plunge[:, :-1]) < math.pi).all(axis=-1)).nonzero()[0]
    plunge[:, 1:] += 0.0  # np.unwrap's zero corrections: they turn -0.0 into 0.0
    if len(turns):
        plunge[turns] = np.unwrap(plunge[turns], axis=-1)
    x, y = ([part[:, refs.index(ref)] for ref in m.wing_polygon] for part in (z.real, z.imag))
    area = polygon_area(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (tip.real, tip.imag), plunge, reach / hi[:, None], area, hi <= 0.0, lo < 1e-12


def gait_from_pose_arrays(m: Mechanism, pb: PoseBatch, period: float,
                          t: np.ndarray) -> GaitTrajectory:
    """Gait series of row 0 of a sweep that closes there, sampled at times t."""
    tip, plunge, extension, area, zero_reach, coincident = wingbeat_series(m, pb)
    if zero_reach[0]:
        raise ZeroReachError("maximum reach over the sweep is zero")
    if coincident[0]:
        raise DegenerateGeometryError("shoulder and wingtip coincide during the sweep")
    return GaitTrajectory(period, t, pb.thetas, plunge[0], extension[0], area[0],
                          np.stack(tip, axis=-1)[0], pb)


def generate_gait(m: Mechanism, period: float, samples: int) -> GaitTrajectory:
    """Sweep one crank revolution from theta = 0 at constant rate and extract gait series.

    Raises on sweep failure (the mechanism must assemble over the whole
    revolution to have a wingbeat).
    """
    check_samples(samples)
    if not (period > 0.0 and math.isfinite(period)):
        raise ValueError("period must be positive and finite")
    require_wingbeat(m)
    t = np.arange(samples) * (period / samples)
    pb = sweep_arrays(m, crank_angles(samples))
    if error := pb.errors[0]:
        raise GaitError(
            f"sweep failed at step {pb.failed_at[0]} ({error}); "
            "mechanism does not complete a wingbeat", code=error)
    return gait_from_pose_arrays(m, pb, period, t)


def stroke_phases(plunge: np.ndarray) -> np.ndarray:
    """Per-sample stroke sign: +1 upstroke (plunge increasing), -1 downstroke.

    Uses periodic central differences with single-sample flickers removed by a
    3-sample majority filter. Works along the last axis. The plunge is
    unwrapped, so the wrapped neighbours are shifted by the series' net whole
    turns: a wing that turns a whole revolution is all upstroke (or all
    downstroke), and a flapping wing, with no net turn, is shifted by 0.0.
    """
    turn = 2.0 * math.pi * np.round((plunge[..., -1:] - plunge[..., :1]) / (2.0 * math.pi))
    # wrapped one sample each way
    p = np.concatenate([plunge[..., -1:] - turn, plunge, plunge[..., :1] + turn], axis=-1)
    up = p[..., 2:] - p[..., :-2] >= 0.0
    s = np.concatenate([up[..., -1:], up, up[..., :1]], axis=-1)
    # a sample unlike both its neighbours takes theirs
    return np.where(np.where(s[..., :-2] == s[..., 2:], s[..., :-2], up), 1, -1)


def _area_ratio(area: np.ndarray, up: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mean up over mean down area of the (B, N) series on the masked rows, 0.0
    elsewhere. The rows are ordered by up count k and their up and down samples
    laid out row after row, each in sample order; rows with equal k then sum
    their k and N - k samples row-pairwise, as `area[b][up[b]].mean()` does (a
    masked sum does not)."""
    ratio = np.zeros(len(area))
    counts = up.sum(axis=-1)
    order = rows.nonzero()[0]
    order = order[np.argsort(counts[order], kind="stable")]
    a, u, k, n = area[order], up[order], counts[order], area.shape[-1]
    ks, sums = k.tolist(), np.empty((2, len(order)))
    starts = [i for i in range(len(ks)) if not i or ks[i] != ks[i - 1]]  # each group's first row
    for side, samples in enumerate((a[u], a[~u])):
        at = 0  # where the group's samples start
        for i, j in zip(starts, starts[1:] + [len(ks)]):
            width = n - ks[i] if side else ks[i]
            np.add.reduce(samples[at:at + (j - i) * width].reshape(j - i, width), axis=-1, out=sums[side, i:j])
            at += (j - i) * width
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[order] = (sums[0] / k) / (sums[1] / (n - k))
    return ratio


def stroke_metrics(plunge: np.ndarray, extension: np.ndarray, area: np.ndarray,
                   rows: np.ndarray | None = None):
    """(plunge amplitude, extension min, extension max, up, reverses, area ratio) of (B, N)
    gait series: up (B, N) marks upstroke samples, reverses (B,) rows with both strokes; the
    area ratio (mean up / mean down area) is 0.0 except on the rows that reverse among `rows`."""
    up = stroke_phases(plunge) > 0
    reverses = up.any(axis=-1) & ~up.all(axis=-1)
    return (0.5 * (plunge.max(axis=-1) - plunge.min(axis=-1)), extension.min(axis=-1),
            extension.max(axis=-1), up, reverses,
            _area_ratio(area, up, reverses if rows is None else rows & reverses))


def min_transmission_angle(m: Mechanism, pb: PoseBatch, joints) -> np.ndarray:
    """(B,) smallest transmission angle of each sweep in pb, over its samples and the joint ids given."""
    return np.minimum.reduce([transmission_angle_series(m, pb, jid).min(axis=-1) for jid in joints])


def gait_metrics(gt: GaitTrajectory, transmission: np.ndarray | None = None) -> GaitMetrics:
    """Phase metrics of a sampled wingbeat: the one-row `stroke_metrics`, the
    phase lag, and the smallest of the given transmission angles.

    area_ratio_up_down is mean membrane area over the upstroke divided by the
    mean over the downstroke; phase_lag is the crank angle from mid-upstroke
    to the extension minimum, wrapped to [-pi, pi).
    """
    check_samples(gt.samples)
    amp, ext_min, ext_max, up, reverses, ratio = stroke_metrics(gt.plunge[None], gt.extension[None], gt.area[None])
    if not reverses[0]:
        raise NoStrokeReversalError("plunge is monotone over the wingbeat; not a flapping gait")
    ext_min_idx = int(gt.extension.argmin())
    # mid-upstroke: middle sample of the longest contiguous upstroke run
    start, length = longest_runs(up)
    mid_idx = (start[0] + length[0] // 2) % gt.samples
    lag = gt.crank[ext_min_idx] - gt.crank[mid_idx]
    lag = (lag + math.pi) % (2.0 * math.pi) - math.pi
    mu_min = float(np.min(transmission)) if transmission is not None else None
    return GaitMetrics(float(amp[0]), (float(ext_min[0]), float(ext_max[0])), float(ratio[0]), float(lag), mu_min)


def longest_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, length), each (B,), of the longest True run of each periodic row
    of a (B, N) boolean mask. Ties go to the earliest start; a run that wraps
    past the end starts before it; a row with no True run has length 0 (and
    start 0), and an all-True row gives (0, N)."""
    n = mask.shape[-1]
    k, twice = np.arange(2 * n), np.concatenate((mask, mask), axis=-1)
    # over two periods, the length of the True run ending at each sample
    ends = np.minimum(k - np.maximum.accumulate(np.where(twice, -1, k), axis=-1), n)
    length = ends.max(axis=-1)
    return np.where(ends == length[:, None], (k - ends + 1) % n, n).min(axis=-1), length


def retraction_time(gt: GaitTrajectory) -> float:
    """Duration of the longest contiguous phase with extension decreasing."""
    d_ext = np.roll(gt.extension, -1) - gt.extension
    retracting = d_ext < -RETRACTING
    return int(longest_runs(retracting[None])[1][0]) * gt.dt
