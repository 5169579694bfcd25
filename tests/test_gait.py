"""Wingbeat gait generation, polygon areas, stroke metrics and timing."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flapkin.designs import ARMWING_TRANSMISSION_JOINTS
from flapkin.errors import GaitError, NoStrokeReversalError
from flapkin.gait import (
    GaitTrajectory,
    _area_ratio,
    gait_metrics,
    generate_gait,
    longest_runs,
    min_transmission_angle,
    polygon_area,
    retraction_time,
    stroke_phases,
)
from flapkin.geometry import Point2, Pose
from flapkin.kinematics import Branch, Configuration, sweep_arrays
from flapkin.mechanism import Link, LinkRole, Mechanism, fourbar_mechanism

from conftest import make_plunge_gait, marker_world, parallelogram_wing, plunge_angle, reference_metrics, wing_area


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area([0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]) == 1.0

    def test_triangle(self):
        assert polygon_area([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]) == 0.5

    def test_collinear_zero(self):
        assert polygon_area([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 0.0

    def test_wing_area_matches_fan_triangulation(self, armwing):
        thetas = np.linspace(0, 2 * math.pi, 24)
        pa = sweep_arrays(armwing, thetas)
        for k in range(0, 24, 4):
            c = pa.configuration(k)
            a = wing_area(armwing, c)
            pts = [marker_world(armwing, c, lid, mk).as_array()
                   for lid, mk in armwing.wing_polygon]
            tri = 0.0
            for i in range(1, len(pts) - 1):
                u, v = pts[i] - pts[0], pts[i + 1] - pts[0]
                tri += 0.5 * (u[0] * v[1] - u[1] * v[0])
            tri = abs(tri)
            assert a == pytest.approx(tri, rel=1e-12, abs=1e-18)


class TestPlunge:
    def _static(self, tip: Point2) -> tuple[Mechanism, Configuration]:
        ground = Link("ground", {"origin": Point2(0, 0), "s": Point2(0, 0), "w": tip},
                      LinkRole.GROUND)
        m = Mechanism((ground,), (), "ground", shoulder=("ground", "s"),
                      wingtip=("ground", "w"))
        c = Configuration(0.0, {"ground": Pose(Point2(0, 0), 0.0)}, Branch.OPEN)
        return m, c

    def test_tip_above_shoulder(self):
        m, c = self._static(Point2(0.0, 1.0))
        assert plunge_angle(m, c) == pytest.approx(math.pi / 2)

    def test_tip_along_x(self):
        m, c = self._static(Point2(1.0, 0.0))
        assert plunge_angle(m, c) == 0.0

    def test_tip_below_negative(self):
        m, c = self._static(Point2(0.5, -0.5))
        assert plunge_angle(m, c) < 0.0


class TestGenerateGait:
    def test_parallelogram_plunge_tracks_crank(self):
        gt = generate_gait(parallelogram_wing(), 1.0, 64)
        assert np.allclose(gt.plunge, gt.crank, atol=1e-9)
        assert np.allclose(gt.extension, 1.0, atol=1e-12)

    def test_sample_spacing(self, armwing):
        gt = generate_gait(armwing, 0.1, 100)
        assert gt.dt == pytest.approx(1e-3)
        assert np.allclose(np.diff(gt.t), 1e-3)
        assert gt.t[0] == 0.0 and gt.t[-1] < 0.1

    def test_crank_spans_one_revolution(self, armwing):
        gt = generate_gait(armwing, 1.0, 64)
        assert gt.crank[0] == 0.0
        assert gt.crank[-1] == pytest.approx(2 * math.pi * 63 / 64)

    def test_extension_bounds_and_normalization(self, armwing):
        gt = generate_gait(armwing, 1.0, 128)
        assert gt.extension.min() >= 0.0
        assert gt.extension.max() == 1.0

    def test_area_nonnegative(self, armwing):
        gt = generate_gait(armwing, 1.0, 64)
        assert (gt.area >= 0.0).all()

    def test_missing_wing_declaration_raises(self, fb_example):
        m = fourbar_mechanism(fb_example)
        m = dataclasses.replace(m, shoulder=None)
        with pytest.raises(GaitError):
            generate_gait(m, 1.0, 32)

    def test_extension_min_during_upstroke(self, armwing):
        gt = generate_gait(armwing, 1.0, 256)
        sign = stroke_phases(gt.plunge)
        assert sign[int(np.argmin(gt.extension))] > 0


class TestMetrics:
    def test_period_invariance(self, armwing):
        a = gait_metrics(generate_gait(armwing, 0.1, 128))
        b = gait_metrics(generate_gait(armwing, 1.0, 128))
        assert a.plunge_amplitude == b.plunge_amplitude
        assert a.extension_range == b.extension_range
        assert a.area_ratio_up_down == b.area_ratio_up_down
        assert a.phase_lag == b.phase_lag

    def test_sample_count_convergence(self, armwing):
        a = gait_metrics(generate_gait(armwing, 1.0, 256))
        b = gait_metrics(generate_gait(armwing, 1.0, 512))
        assert a.plunge_amplitude == pytest.approx(b.plunge_amplitude, rel=0.01)
        assert a.extension_range[0] == pytest.approx(b.extension_range[0], rel=0.01)
        assert a.extension_range[1] == pytest.approx(b.extension_range[1], rel=0.01)
        assert a.area_ratio_up_down == pytest.approx(b.area_ratio_up_down, rel=0.01)

    def test_constant_area_ratio_one(self):
        gt = make_plunge_gait(samples=128, amplitude=0.4, mod_depth=0.0)
        assert gait_metrics(gt).area_ratio_up_down == pytest.approx(1.0, abs=1e-12)

    def test_sign_modulated_area_ratio(self):
        samples = 128
        k = np.arange(samples)
        phase = 2 * math.pi * k / samples
        # half-sample shift keeps the plunge rate nonzero at every sample
        plunge = 0.5 * np.sin(phase + math.pi / samples)
        rate_sign = np.where(np.cos(phase + math.pi / samples) >= 0.0, 1.0, -1.0)
        area = 0.02 * (1.0 - 0.3 * rate_sign)   # smaller area on the upstroke
        gt = GaitTrajectory(1.0, k / samples, phase.copy(), plunge,
                            np.ones(samples), area,
                            np.stack([np.cos(plunge), np.sin(plunge)], axis=-1))
        assert gait_metrics(gt).area_ratio_up_down == pytest.approx(0.7 / 1.3, rel=1e-9)

    def test_no_stroke_reversal(self):
        samples = 64
        k = np.arange(samples)
        gt = GaitTrajectory(1.0, k / samples, 2 * math.pi * k / samples,
                            np.full(samples, 0.2), np.ones(samples),
                            np.full(samples, 0.01), np.ones((samples, 2)))
        with pytest.raises(NoStrokeReversalError):
            gait_metrics(gt)

    @pytest.mark.parametrize("samples", [64, 128])
    def test_whole_turn_is_no_stroke_reversal(self, samples):
        # the parallelogram's plunge turns one revolution: upstroke at the seam too
        gt = generate_gait(parallelogram_wing(), 1.0, samples)
        assert (stroke_phases(gt.plunge) == 1).all()
        with pytest.raises(NoStrokeReversalError):
            gait_metrics(gt)
        with pytest.raises(NoStrokeReversalError):
            reference_metrics(gt)

    def test_crank_rocker_amplitude_half_rocker_swing(self, fb_example):
        m = fourbar_mechanism(fb_example)
        m = dataclasses.replace(m, shoulder=("ground", "tip"), wingtip=("rocker", "tip"))
        gt = generate_gait(m, 1.0, 512)
        thetas = gt.crank
        pa = sweep_arrays(m, thetas)
        rocker = pa.angles[0, pa.index("rocker")]
        half_swing = 0.5 * (rocker.max() - rocker.min())
        assert gait_metrics(gt).plunge_amplitude == pytest.approx(half_swing, rel=1e-6)


def metric_bits(mts) -> list[str]:
    """Every float of a GaitMetrics, as its exact hex form."""
    lo, hi = mts.extension_range
    return [float.hex(v) if v is not None else "None" for v in (
        mts.plunge_amplitude, lo, hi, mts.area_ratio_up_down, mts.phase_lag, mts.min_transmission_angle)]


class TestStrokeMetrics:
    @pytest.mark.parametrize("samples", [64, 128, 256, 512])
    def test_armwing_metrics_match_scalar_reference(self, armwing, samples):
        gt = generate_gait(armwing, 0.1, samples)
        mu = min_transmission_angle(armwing, gt.poses, ARMWING_TRANSMISSION_JOINTS)
        assert metric_bits(gait_metrics(gt)) == metric_bits(reference_metrics(gt))
        assert metric_bits(gait_metrics(gt, mu)) == metric_bits(reference_metrics(gt, mu))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(8, 300), st.floats(0.0, 2.0), st.floats(0.0, 0.9), st.sampled_from([1.0, -1.0]),
           st.floats(1e-4, 1.0))
    def test_plunge_gait_metrics_match_scalar_reference(self, samples, amplitude, depth, sign, area0):
        gt = make_plunge_gait(samples=samples, amplitude=amplitude, mod_depth=depth, mod_sign=sign, area0=area0)
        try:
            want = metric_bits(reference_metrics(gt))
        except NoStrokeReversalError:
            with pytest.raises(NoStrokeReversalError):
                gait_metrics(gt)
        else:
            assert metric_bits(gait_metrics(gt)) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.lists(st.tuples(st.integers(0, 300), st.booleans()), min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_area_ratio_equals_per_row_means(self, n, rows, seed):
        # up counts below 8, at 8 and above 8 on either side of the stroke,
        # and past 128, where numpy's pairwise summation splits a sum; rows
        # sharing a count, and rows left out; magnitudes vary so that the
        # summation order shows in the last bits
        rng = np.random.default_rng(seed)
        area = rng.standard_normal((len(rows), n)) * 10.0 ** rng.uniform(-3, 3, (len(rows), 1)) + 1.0
        up = np.zeros((len(rows), n), dtype=bool)
        for b, (k, _) in enumerate(rows):
            up[b, rng.permutation(n)[:min(k, n)]] = True
        use = np.array([u for _, u in rows]) & up.any(axis=-1) & ~up.all(axis=-1)
        want = np.zeros(len(rows))
        for b in np.flatnonzero(use):  # the per-row loop the grouped reduction replaces
            want[b] = area[b][up[b]].mean() / area[b][~up[b]].mean()
        assert np.array_equal(_area_ratio(area, up, use), want)


class TestStrokePhases:
    def test_flicker_filter(self):
        plunge = np.sin(2 * math.pi * np.arange(64) / 64)
        plunge[10] += 1e-12  # too small to flip the central difference
        sign = stroke_phases(plunge)
        assert set(np.unique(sign)) <= {-1, 1}
        flips = int((sign != np.roll(sign, 1)).sum())
        assert flips == 2


def loop_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, length) of every True run in a periodic boolean series, found
    by walking the series twice over."""
    n = len(mask)
    if mask.all():
        return [(0, n)]
    doubled = np.concatenate([mask, mask])
    runs = []
    i = 0
    while i < n:
        if doubled[i] and not doubled[i - 1 if i > 0 else n - 1]:
            j = i
            while j < 2 * n and doubled[j]:
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


class TestLongestRuns:
    @staticmethod
    def oracle(row: np.ndarray) -> tuple[int, int]:
        """The first longest of `loop_runs`, (0, 0) when there is none."""
        return max(loop_runs(row), key=lambda r: r[1], default=(0, 0))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda b: st.integers(1, 64).flatmap(
        lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=b, max_size=b))))
    def test_matches_loop(self, rows):
        mask = np.array(rows)
        start, length = longest_runs(mask)
        for row, s, n in zip(mask, start.tolist(), length.tolist()):
            want = self.oracle(row)
            assert n == want[1] and (n == 0 or s == want[0])

    @pytest.mark.parametrize("bits, run", [
        ([True] * 5, (0, 5)),
        ([False] * 5, (0, 0)),
        ([True, False, False, True, True], (3, 3)),          # wraps past the end
        ([True, True, False, True, False, True], (5, 3)),    # the wrapping run is the longest
        ([True, False, True, True, False, True], (2, 2)),    # a tie with the wrapping run: earliest start
    ], ids=["all", "none", "wraps", "wraps-longest", "tie"])
    def test_edge_cases(self, bits, run):
        mask = np.array([bits])
        assert tuple(int(v[0]) for v in longest_runs(mask)) == run == self.oracle(mask[0])


class TestRetraction:
    def test_known_run_length(self):
        samples = 100
        down = np.linspace(1.0, 0.5, 26)        # 25 strictly decreasing steps
        up = np.linspace(0.5, 1.0, 76)[1:]      # back up to 1.0
        ext = np.concatenate([down, up])
        k = np.arange(samples)
        gt = GaitTrajectory(0.1, k * 1e-3, 2 * math.pi * k / samples,
                            0.3 * np.sin(2 * math.pi * k / samples), ext,
                            np.full(samples, 0.01), np.ones((samples, 2)))
        assert retraction_time(gt) == pytest.approx(25 * gt.dt)

    def test_constant_extension_zero(self):
        gt = make_plunge_gait(samples=64)
        assert retraction_time(gt) == 0.0
