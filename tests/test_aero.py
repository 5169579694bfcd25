"""Quasi-steady strip aerodynamics: signs, linearity, convergence, ranking."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flapkin.aero import (
    AeroConfig,
    compare_gaits,
    periodic_impulse,
    quasi_steady_forces,
    strip_kinematics,
)
from flapkin.errors import AeroError, PeriodMismatchError

from conftest import make_plunge_gait

CFG = AeroConfig(freestream=3.0, span=1.0, strip_count=32,
                 chord_profile=(0.1, 0.09, 0.07, 0.04))


class TestStripKinematics:
    def test_static_gait_zero_velocity(self):
        gt = make_plunge_gait(samples=32, amplitude=0.0)
        sk = strip_kinematics(gt, AeroConfig(freestream=0.0))
        assert np.abs(sk.velocities).max() == 0.0
        assert np.abs(sk.rel_wind).max() == 0.0

    def test_static_gait_freestream_only(self):
        gt = make_plunge_gait(samples=32, amplitude=0.0)
        sk = strip_kinematics(gt, CFG)
        assert np.allclose(sk.rel_wind[..., 0], -3.0)
        assert np.allclose(sk.rel_wind[..., 1], 0.0)
        assert np.allclose(sk.alpha, 0.0)

    def test_tip_strip_fastest_for_rigid_rotation(self):
        gt = make_plunge_gait(samples=64, amplitude=0.4)
        sk = strip_kinematics(gt, AeroConfig(freestream=0.0))
        speed = np.hypot(sk.velocities[..., 0], sk.velocities[..., 1])
        # v = omega * r: strictly increasing root to tip at every sample
        assert (np.diff(speed, axis=1) > -1e-15).all()
        assert (speed[:, -1] >= speed[:, 0]).all()

    def test_strip_stations_cover_reach(self):
        gt = make_plunge_gait(samples=32)
        sk = strip_kinematics(gt, CFG)
        assert len(sk.stations) == 32
        assert 0.0 < sk.stations[0] < sk.stations[-1] < 1.0


class TestForces:
    def test_zero_everything_zero_forces(self):
        gt = make_plunge_gait(samples=32, amplitude=0.0)
        rep = quasi_steady_forces(gt, AeroConfig(freestream=0.0))
        assert np.abs(rep.vertical_force).max() == 0.0
        assert rep.vertical_impulse == 0.0 and rep.horizontal_impulse == 0.0

    def test_constant_area_cancels(self):
        gt = make_plunge_gait(samples=256, amplitude=0.5, mod_depth=0.0)
        rep = quasi_steady_forces(gt, CFG)
        peak = np.abs(rep.vertical_force).max() * gt.dt
        assert abs(rep.vertical_impulse) <= 1e-10 * peak

    def test_in_phase_positive_anti_phase_negative(self):
        gt_in = make_plunge_gait(samples=256, amplitude=0.5, mod_depth=0.3, mod_sign=1.0)
        gt_anti = make_plunge_gait(samples=256, amplitude=0.5, mod_depth=0.3, mod_sign=-1.0)
        rep_in = quasi_steady_forces(gt_in, CFG)
        rep_anti = quasi_steady_forces(gt_anti, CFG)
        assert rep_in.vertical_impulse > 0.0
        assert rep_anti.vertical_impulse < 0.0
        assert abs(rep_in.vertical_impulse) == pytest.approx(
            abs(rep_anti.vertical_impulse), rel=0.01)

    def test_density_linearity(self):
        gt = make_plunge_gait(samples=64, amplitude=0.5, mod_depth=0.3)
        r1 = quasi_steady_forces(gt, CFG)
        r2 = quasi_steady_forces(gt, dataclasses.replace(CFG, air_density=2 * CFG.air_density))
        assert r2.vertical_impulse == pytest.approx(2 * r1.vertical_impulse, rel=1e-14)
        assert r2.horizontal_impulse == pytest.approx(2 * r1.horizontal_impulse, rel=1e-14)

    def test_strip_count_convergence(self):
        gt = make_plunge_gait(samples=128, amplitude=0.5, mod_depth=0.3)
        r32 = quasi_steady_forces(gt, dataclasses.replace(CFG, strip_count=32))
        r64 = quasi_steady_forces(gt, dataclasses.replace(CFG, strip_count=64))
        assert r32.vertical_impulse == pytest.approx(r64.vertical_impulse, rel=0.01)

    def test_report_self_consistency(self):
        gt = make_plunge_gait(samples=64, amplitude=0.5, mod_depth=0.2)
        rep = quasi_steady_forces(gt, CFG)
        assert rep.vertical_impulse == periodic_impulse(rep.vertical_force, gt.dt)
        assert rep.horizontal_impulse == periodic_impulse(rep.horizontal_force, gt.dt)

    @settings(max_examples=30, deadline=None)
    @given(amplitude=st.floats(0.1, 1.0), depth=st.floats(0.01, 0.5),
           freestream=st.floats(0.5, 5.0))
    def test_sign_prediction_property(self, amplitude, depth, freestream):
        gt = make_plunge_gait(samples=96, amplitude=amplitude, mod_depth=depth)
        cfg = dataclasses.replace(CFG, freestream=freestream, strip_count=16)
        assert quasi_steady_forces(gt, cfg).vertical_impulse > 0.0


class TestCompareGaits:
    def _three(self):
        return [
            make_plunge_gait(samples=128, amplitude=0.5, mod_depth=0.3, mod_sign=1.0),
            make_plunge_gait(samples=128, amplitude=0.5, mod_depth=0.0),
            make_plunge_gait(samples=128, amplitude=0.5, mod_depth=0.3, mod_sign=-1.0),
        ]

    def test_ranking_exact(self):
        ranked = compare_gaits(self._three(), CFG)
        assert [r.input_index for r in ranked] == [0, 1, 2]
        assert [r.rank for r in ranked] == sorted(r.rank for r in ranked)

    def test_tie_broken_by_input_order(self):
        g = make_plunge_gait(samples=64, amplitude=0.4)
        ranked = compare_gaits([g, g], CFG)
        assert [r.input_index for r in ranked] == [0, 1]

    def test_period_mismatch(self):
        a = make_plunge_gait(period=1.0, samples=64)
        b = make_plunge_gait(period=0.5, samples=64)
        with pytest.raises(PeriodMismatchError):
            compare_gaits([a, b], CFG)

    def test_single_gait_rejected(self):
        with pytest.raises(AeroError):
            compare_gaits([make_plunge_gait(samples=64)], CFG)

    def test_forces_out_of_the_float_range_are_an_error(self):
        with pytest.raises(AeroError) as e:
            compare_gaits(self._three(), dataclasses.replace(CFG, span=1e308))
        assert e.value.code == "NON_FINITE"


class TestConfig:
    def test_bad_density(self):
        with pytest.raises(ValueError):
            AeroConfig(freestream=1.0, air_density=0.0)

    def test_bad_strip_count(self):
        with pytest.raises(ValueError):
            AeroConfig(freestream=1.0, strip_count=3)

    def test_bad_chord_profile(self):
        with pytest.raises(ValueError):
            AeroConfig(freestream=1.0, chord_profile=(0.1,))

    @pytest.mark.parametrize("field", ["freestream", "air_density", "span", "lift_slope", "cl_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, field, value):
        with pytest.raises(ValueError):
            AeroConfig(**{"freestream": 1.0, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_chord(self, value):
        with pytest.raises(ValueError):
            AeroConfig(freestream=1.0, chord_profile=(0.1, value, 0.1))
