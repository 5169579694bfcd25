"""File formats, serialization round-trips, SVG rendering and the CLI."""
from __future__ import annotations

import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from flapkin.errors import MechanismValidationError, ParseError, SchemaError
from flapkin.fileio import (
    AERO_HEADER,
    TRAJECTORY_HEADER,
    aero_csv,
    mechanism_to_doc,
    parse_mechanism,
    render_svg,
    serialize_mechanism,
    trajectory_csv,
)
from flapkin.gait import generate_gait
from flapkin.kinematics import marker_world, sweep_arrays

from conftest import make_plunge_gait, run_cli


def shipped_bytes() -> bytes:
    return (resources.files("flapkin.data") / "armwing.json").read_bytes()


@pytest.fixture
def shipped_path(tmp_path) -> Path:
    p = tmp_path / "armwing.json"
    p.write_bytes(shipped_bytes())
    return p


class TestMechanismFile:
    def test_shipped_example_parses_to_two_stage_chain(self):
        m = parse_mechanism(shipped_bytes())
        assert len(m.links) == 6 and len(m.joints) == 7

    def test_round_trip_semantic_fixed_point(self):
        m1 = parse_mechanism(shipped_bytes())
        m2 = parse_mechanism(serialize_mechanism(m1))
        assert mechanism_to_doc(m1) == mechanism_to_doc(m2)

    def test_shipped_file_is_serialization_fixed_point(self):
        raw = shipped_bytes().decode()
        assert serialize_mechanism(parse_mechanism(raw)) == raw

    def test_version_two_rejected(self):
        doc = json.loads(shipped_bytes())
        doc["version"] = 2
        with pytest.raises(SchemaError):
            parse_mechanism(json.dumps(doc))

    def test_unknown_top_level_key_rejected(self):
        doc = json.loads(shipped_bytes())
        doc["color"] = "black"
        with pytest.raises(SchemaError):
            parse_mechanism(json.dumps(doc))

    def test_malformed_json_parse_error(self):
        with pytest.raises(ParseError) as e:
            parse_mechanism(b'{"version": 1,,}')
        assert "line" in str(e.value)

    def test_mobility_violation_forwarded(self):
        doc = json.loads(shipped_bytes())
        doc["joints"] = doc["joints"][:-1]
        with pytest.raises(MechanismValidationError) as e:
            parse_mechanism(json.dumps(doc))
        assert e.value.code == "MOBILITY_NOT_ONE"

    def test_validate_false_skips_gate(self):
        doc = json.loads(shipped_bytes())
        doc["joints"] = doc["joints"][:-1]
        m = parse_mechanism(json.dumps(doc), validate=False)
        assert len(m.joints) == 6


class TestTrajectoryCsv:
    def test_header_and_shape(self, armwing):
        gt = generate_gait(armwing, 1.0, 32)
        text = trajectory_csv(gt)
        lines = text.split("\n")
        assert lines[0] == TRAJECTORY_HEADER
        assert lines[-1] == ""
        assert len(lines) == 34  # header + 32 rows + trailing newline
        t = np.array([float(l.split(",")[0]) for l in lines[1:-1]])
        assert (np.diff(t) > 0).all()

    def test_lf_endings_and_determinism(self, armwing):
        gt = generate_gait(armwing, 1.0, 32)
        a, b = trajectory_csv(gt), trajectory_csv(gt)
        assert a == b and "\r" not in a

    def test_aero_csv_header(self):
        from flapkin.aero import AeroConfig, quasi_steady_forces

        rep = quasi_steady_forces(make_plunge_gait(samples=32), AeroConfig(freestream=2.0))
        assert aero_csv(rep).split("\n")[0] == AERO_HEADER


class TestRenderSvg:
    def test_viewbox_fixed_across_frames(self, armwing):
        gt = generate_gait(armwing, 1.0, 32)
        docs = render_svg(gt, armwing, 8)
        boxes = {re.search(r'viewBox="([^"]+)"', d).group(1) for d in docs}
        assert len(docs) == 8 and len(boxes) == 1

    def test_single_frame_joint_positions(self, armwing):
        gt = generate_gait(armwing, 1.0, 32)
        (doc,) = render_svg(gt, armwing, 1)
        pa = sweep_arrays(armwing, gt.crank[:1])
        c = pa.configuration(0)
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', doc)
        assert len(circles) == len(armwing.joints)
        for (cx, cy), j in zip(circles, armwing.joints):
            p = marker_world(armwing, c, j.link_a, j.marker_a)
            assert float(cx) == pytest.approx(p.x, abs=1e-9)
            assert float(cy) == pytest.approx(p.y, abs=1e-9)

    def test_degenerate_polygon_omitted(self, armwing):
        import dataclasses

        collinear = (("ground", "origin"), ("ground", "shoulder"), ("ground", "origin"))
        m = dataclasses.replace(armwing, wing_polygon=collinear)
        gt = generate_gait(armwing, 1.0, 32)
        (doc,) = render_svg(gt, m, 1)
        assert "<polygon" not in doc

    def test_too_many_frames_rejected(self, armwing):
        gt = generate_gait(armwing, 1.0, 16)
        with pytest.raises(ValueError):
            render_svg(gt, armwing, 17)


class TestCli:
    def test_validate_ok(self, shipped_path):
        code, out, _ = run_cli(["validate", str(shipped_path)])
        assert code == 0 and "OK" in out

    def test_validate_reports_violation(self, tmp_path):
        doc = json.loads(shipped_bytes())
        doc["joints"] = doc["joints"][:-1]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run_cli(["validate", str(p)])
        assert code == 1 and "MOBILITY_NOT_ONE" in out

    def test_sweep_csv(self, shipped_path):
        code, out, _ = run_cli(["sweep", str(shipped_path), "--steps", "16"])
        assert code == 0
        assert out.split("\n")[0] == TRAJECTORY_HEADER
        assert len(out.split("\n")) == 18

    def test_sweep_single_step_usage_error(self, shipped_path):
        code, _, err = run_cli(["sweep", str(shipped_path), "--steps", "1"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["aero", "--period", "0.1", "--freestream", "3", "--strips", "2"],
        ["aero", "--period", "0.1", "--freestream", "3", "--chord", "a,b"],
        ["aero", "--period", "0.1", "--freestream", "3", "--samples", "4"],
        ["gait", "--period", "-1", "--samples", "16"],
        ["gait", "--period", "0.1", "--samples", "16", "--tol", "0"],
        ["sweep", "--steps", "3"],
        ["animate", "--frames", "0", "--out-dir", "frames"],
    ], ids=["aero --strips 2", "aero --chord a,b", "aero --samples 4", "gait --period -1",
            "gait --tol 0", "sweep --steps 3", "animate --frames 0"])
    def test_rejected_argument_usage_error(self, shipped_path, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli([argv[0], str(shipped_path), *argv[1:]])
        assert code == 2
        assert "Traceback" not in err

    def test_gait_metrics_json(self, shipped_path):
        code, out, err = run_cli(["gait", str(shipped_path), "--period", "0.1",
                                  "--samples", "64", "--metrics",
                                  "--transmission-joint", "j_b",
                                  "--transmission-joint", "j_d"])
        assert code == 0
        doc = json.loads(err)
        assert doc["extension_range"][1] == pytest.approx(1.0)
        assert doc["min_transmission_angle_rad"] > math.radians(30)

    def test_gait_metrics_sweep_once(self, shipped_path, monkeypatch):
        import flapkin.kinematics

        calls, solve = [], flapkin.kinematics._dyad_sweep_arrays

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(flapkin.kinematics, "_dyad_sweep_arrays", counted)
        code, _, err = run_cli(["gait", str(shipped_path), "--period", "0.1", "--samples", "64",
                                "--metrics", "--transmission-joint", "j_b"])
        assert code == 0 and json.loads(err)["min_transmission_angle_rad"] > 0.0
        assert len(calls) == 1

    def test_aero_outputs(self, shipped_path):
        code, out, err = run_cli(["aero", str(shipped_path), "--period", "0.1",
                                  "--freestream", "3", "--samples", "64"])
        assert code == 0
        assert out.split("\n")[0] == AERO_HEADER
        assert "net_vertical_impulse_ns" in err

    def test_animate_writes_frames(self, shipped_path, tmp_path):
        out_dir = tmp_path / "anim"
        code, out, _ = run_cli(["animate", str(shipped_path), "--frames", "4",
                                "--out-dir", str(out_dir)])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            f"frame_{i:04d}.svg" for i in range(4)]

    def test_missing_file_io_error(self):
        code, _, err = run_cli(["validate", "/nonexistent/mech.json"])
        assert code == 3 and err.startswith("E_IO")

    def test_domain_error_prefix(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"version": 1,,}')
        code, _, err = run_cli(["validate", str(p)])
        assert code == 1
        assert err.startswith("E_FORMAT PARSE_ERROR")

    def test_synthesize_deterministic_output(self, tmp_path):
        from flapkin.gait import gait_metrics
        from flapkin.geometry import Point2
        from flapkin.mechanism import FourBar, fourbar_mechanism

        template = fourbar_mechanism(FourBar(6, 2, 5, 5, coupler_point=Point2(2.5, 1.5)))
        mts = gait_metrics(generate_gait(template, 1.0, 128))
        space_doc = {
            "template": mechanism_to_doc(template),
            "parameters": [
                {"name": "link.crank.marker.tip.x", "lower": 1.6, "upper": 2.4},
                {"name": "link.coupler.marker.cp.y", "lower": 1.2, "upper": 1.8},
            ],
            "transmission_joints": ["j_b"],
        }
        spec_doc = {
            "plunge_amplitude_rad": mts.plunge_amplitude,
            "extension_range": list(mts.extension_range),
            "area_ratio_max": 1.05 * mts.area_ratio_up_down,
            "min_transmission_angle_rad": 0.1,
        }
        space_p = tmp_path / "space.json"
        spec_p = tmp_path / "spec.json"
        space_p.write_text(json.dumps(space_doc))
        spec_p.write_text(json.dumps(spec_doc))
        outs = []
        for out_name in ("a.json", "b.json"):
            out_p = tmp_path / out_name
            code, out, _ = run_cli(["synthesize", str(space_p), str(spec_p),
                                    "--budget", "60", "--seed", "5",
                                    "--out", str(out_p)])
            assert code == 0
            outs.append((out_p.read_bytes(), out))
        assert outs[0] == outs[1]
