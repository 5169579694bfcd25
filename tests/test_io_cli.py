"""File formats, serialization round-trips, SVG rendering and the CLI."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flapkin
from flapkin.aero import AeroConfig, AeroReport, quasi_steady_forces
from flapkin.cli import _load_spec
from flapkin.errors import MechanismValidationError, ParseError, SchemaError
from flapkin.fileio import (
    AERO_HEADER,
    TRAJECTORY_HEADER,
    _num,
    aero_csv,
    mechanism_to_doc,
    parse_mechanism,
    render_svg,
    serialize_mechanism,
    trajectory_csv,
)
from flapkin.gait import GaitTrajectory, gait_metrics, generate_gait
from flapkin.geometry import Point2
from flapkin.kinematics import sweep_arrays
from flapkin.mechanism import FourBar, fourbar_mechanism
from flapkin.synthesis import GaitSpec

from conftest import make_plunge_gait, marker_world, run_cli


DATA = Path(flapkin.__file__).parent / "data"


def shipped_bytes() -> bytes:
    return (resources.files("flapkin.data") / "armwing.json").read_bytes()


def package_env() -> dict[str, str]:
    """The environment with the imported flapkin package first on PYTHONPATH,
    so a child process runs the code under test from any working directory."""
    package_root = str(Path(flapkin.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return env


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
        rep = quasi_steady_forces(make_plunge_gait(samples=32), AeroConfig(freestream=2.0))
        assert aero_csv(rep).split("\n")[0] == AERO_HEADER

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL)),
                             min_size=10, max_size=10), max_size=12))
    def test_writers_match_per_cell_formatter(self, rows):
        """One `%` over the whole table's `.tolist()` values writes what `_num` writes cell by cell."""
        cells = np.array(rows + [self.SPECIAL], dtype=float)
        gt = GaitTrajectory(1.0, *cells.T[:5], cells[:, 5:7])
        rep = AeroReport(1.0, *cells.T[7:10], 0.0, 0.0)
        for text, header, table in ((trajectory_csv(gt), TRAJECTORY_HEADER, cells[:, :7]),
                                    (aero_csv(rep), AERO_HEADER, cells[:, 7:10])):
            assert text == "\n".join([header, *(",".join(map(_num, row)) for row in table)]) + "\n"


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

    def test_vertices_are_the_marker_paths(self, armwing):
        gt = generate_gait(armwing, 1.0, 32)
        docs = render_svg(gt, armwing, 5)
        link_refs = [[(l.id, j.marker_a if j.link_a == l.id else j.marker_b)
                      for j in armwing.joints if l.id in (j.link_a, j.link_b)] for l in armwing.links]
        for doc, k in zip(docs, np.linspace(0, gt.samples - 1, 5).astype(int)):
            def points(refs):  # each marker's path at this frame's sample, as the SVG writes it
                return " ".join(f"{x[0, k]:.12g},{y[0, k]:.12g}" for x, y in map(gt.poses.marker_world, refs))

            assert re.findall(r'<polygon points="([^"]+)"', doc) == [points(armwing.wing_polygon)]
            assert re.findall(r'<polyline points="([^"]+)"', doc) == [points(r) for r in link_refs if len(r) >= 2]

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

    def test_gait_without_sweep_rejected(self, armwing):
        with pytest.raises(ValueError, match="no sweep"):
            render_svg(make_plunge_gait(), armwing, 4)


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

    def test_import_leaves_scipy_out(self):
        # scipy is a test dependency only: the package and its CLI run on numpy
        r = subprocess.run([sys.executable, "-c", "import sys, flapkin, flapkin.cli; print('scipy' in sys.modules)"],
                           capture_output=True, text=True, env=package_env())
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_sweep_csv(self, shipped_path):
        code, out, _ = run_cli(["sweep", str(shipped_path), "--steps", "16"])
        assert code == 0
        assert out.split("\n")[0] == TRAJECTORY_HEADER
        assert len(out.split("\n")) == 18

    def test_sweep_single_step_usage_error(self, shipped_path):
        code, _, err = run_cli(["sweep", str(shipped_path), "--steps", "1"])
        assert code == 2

    def test_sweep_steps_error_names_option(self, shipped_path):
        code, _, err = run_cli(["sweep", str(shipped_path), "--steps", "3"])
        assert code == 2
        assert err.splitlines()[-1] == "flapkin: error: --steps must be >= 8, got 3"

    @pytest.mark.parametrize("command, opt, args", [
        ("gait", "--samples", ["--period", "0.1"]),
        ("aero", "--samples", ["--period", "0.1", "--freestream", "3"]),
        ("sweep", "--steps", []),
        ("animate", "--frames", ["--out-dir", "frames"]),
    ], ids=["gait", "aero", "sweep", "animate"])
    def test_sample_count_above_the_ceiling_is_a_usage_error(self, shipped_path, tmp_path, monkeypatch,
                                                             command, opt, args):
        # rejected before the sweep allocates its arrays (8.9 GiB for 1e8 samples)
        monkeypatch.chdir(tmp_path)
        for value in (65537, 100000000):
            code, out, err = run_cli([command, str(shipped_path), *args, opt, str(value)])
            assert code == 2 and out == "" and "Traceback" not in err
            assert [line for line in err.splitlines() if "error" in line] == \
                [f"flapkin: error: {opt} must be <= 65536, got {value}"]
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("argv", [
        ["aero", "--period", "0.1", "--freestream", "3", "--strips", "2"],
        ["aero", "--period", "0.1", "--freestream", "3", "--chord", "a,b"],
        ["aero", "--period", "0.1", "--freestream", "3", "--samples", "4"],
        ["aero", "--period", "0.1", "--freestream", "nan", "--samples", "16"],
        ["aero", "--period", "0.1", "--freestream", "inf", "--samples", "16"],
        ["aero", "--period", "0.1", "--freestream", "3", "--density", "nan", "--samples", "16"],
        ["aero", "--period", "0.1", "--freestream", "3", "--span", "inf", "--samples", "16"],
        ["gait", "--period", "-1", "--samples", "16"],
        ["gait", "--period", "nan", "--samples", "16"],
        ["gait", "--period", "inf", "--samples", "16"],
        ["gait", "--period", "0.1", "--samples", "16", "--tol", "0"],
        ["gait", "--period", "0.1", "--samples", "16", "--metrics", "--transmission-joint", "nope"],
        ["sweep", "--steps", "3"],
        ["animate", "--frames", "0", "--out-dir", "frames"],
    ], ids=["aero --strips 2", "aero --chord a,b", "aero --samples 4", "aero --freestream nan",
            "aero --freestream inf", "aero --density nan", "aero --span inf", "gait --period -1",
            "gait --period nan", "gait --period inf", "gait --tol 0", "gait --transmission-joint nope",
            "sweep --steps 3", "animate --frames 0"])
    def test_rejected_argument_usage_error(self, shipped_path, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli([argv[0], str(shipped_path), *argv[1:]])
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["animate", "{mechanism}", "--frames", "0", "--out-dir", "frames"], "--frames must be >= 1, got 0"),
        (["synthesize", "{space}", "{spec}", "--budget", "200", "--seed", "-1", "--out", "out.json"],
         "--seed must be >= 0, got -1"),
        (["aero", "{mechanism}", "--period", "0.1", "--freestream", "3", "--chord", "abc"],
         "--chord must be comma-separated numbers, got 'abc'"),
        # {missing} names no file: each of these is a usage error before the mechanism is read
        (["aero", "{missing}", "--period", "0.1", "--freestream", "3", "--strips", "2"],
         "--strips must be >= 4, got 2"),
        (["aero", "{missing}", "--period", "0.1", "--freestream", "3", "--chord", "0.1"],
         "--chord must be at least 2 nonnegative finite numbers, got '0.1'"),
        (["aero", "{missing}", "--period", "0.1", "--freestream", "3", "--chord", "nan,1"],
         "--chord must be at least 2 nonnegative finite numbers, got 'nan,1'"),
        (["aero", "{missing}", "--period", "0.1", "--freestream", "nan"], "--freestream must be finite, got nan"),
        (["aero", "{missing}", "--period", "0.1", "--freestream", "3", "--density", "0"],
         "--density must be positive and finite, got 0.0"),
        (["aero", "{missing}", "--period", "0.1", "--freestream", "3", "--span", "-1"],
         "--span must be positive and finite, got -1.0"),
        (["aero", "{missing}", "--period", "0", "--freestream", "3"], "--period must be positive and finite, got 0.0"),
        (["gait", "{missing}", "--period", "-1", "--samples", "16"], "--period must be positive and finite, got -1.0"),
        (["sweep", "{missing}", "--steps", "16", "--period", "inf"], "--period must be positive and finite, got inf"),
        (["animate", "{missing}", "--frames", "2", "--out-dir", "frames", "--period", "nan"],
         "--period must be positive and finite, got nan"),
        (["gait", "{missing}", "--period", "0.1", "--samples", "4"], "--samples must be >= 8, got 4"),
        (["aero", "{missing}", "--period", "0.1", "--freestream", "3", "--samples", "7"],
         "--samples must be >= 8, got 7"),
        (["sweep", "{missing}", "--steps", "3"], "--steps must be >= 8, got 3"),
        (["gait", "{missing}", "--period", "0.1", "--samples", "16", "--tol", "0"], "--tol must be positive and finite, got 0.0"),
        (["sweep", "{missing}", "--steps", "16", "--tol", "0"], "--tol must be positive and finite, got 0.0"),
        (["aero", "{missing}", "--period", "0.1", "--freestream", "3", "--tol", "0"], "--tol must be positive and finite, got 0.0"),
        (["animate", "{missing}", "--frames", "2", "--out-dir", "frames", "--tol", "0"],
         "--tol must be positive and finite, got 0.0"),
        (["gait", "{missing}", "--period", "0.1", "--samples", "16", "--tol", "inf"],
         "--tol must be positive and finite, got inf"),
    ], ids=["animate --frames 0", "synthesize --seed -1", "aero --chord abc", "aero --strips 2",
            "aero --chord 0.1", "aero --chord nan,1", "aero --freestream nan", "aero --density 0",
            "aero --span -1", "aero --period 0", "gait --period -1", "sweep --period inf",
            "animate --period nan", "gait --samples 4", "aero --samples 7", "sweep --steps 3",
            "gait --tol 0", "sweep --tol 0", "aero --tol 0", "animate --tol 0", "gait --tol inf"])
    def test_usage_error_names_the_option(self, shipped_path, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        data = resources.files("flapkin.data")
        paths = {"mechanism": str(shipped_path), "space": str(data / "armwing_space.json"),
                 "spec": str(data / "armwing_spec.json"), "missing": str(tmp_path / "missing.json")}
        code, out, err = run_cli([a.format(**paths) for a in argv])
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [f"flapkin: error: {message}"]
        assert list(tmp_path.iterdir()) == [shipped_path]

    def test_repeated_calls_match_fresh_processes(self, shipped_path, tmp_path):
        # main reuses one parser per process: no call may see another's options
        gait = ["gait", str(shipped_path), "--period", "0.1", "--samples", "32", "--metrics"]
        aero = ["aero", str(shipped_path), "--period", "0.1", "--freestream", "3", "--samples", "32"]
        calls = [
            [*gait, "--transmission-joint", "j_b", "--transmission-joint", "j_d"],
            gait,
            ["gait", str(shipped_path), "--period", "0.1", "--samples", "4"],
            ["validate", str(shipped_path)],
            ["--version"],
            [*aero, "--strips", "8", "--chord", "0.05,0.02"],
            aero,
        ]
        in_process = [run_cli(argv) for argv in calls]
        assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0, 0, 0]
        assert json.loads(in_process[0][2])["min_transmission_angle_rad"] is not None
        assert json.loads(in_process[1][2])["min_transmission_angle_rad"] is None
        assert in_process[5][1] != in_process[6][1]
        for argv, expected in zip(calls, in_process):
            r = subprocess.run([sys.executable, "-m", "flapkin.cli", *argv],
                               capture_output=True, text=True, env=package_env(), cwd=tmp_path)
            assert (r.returncode, r.stdout, r.stderr) == expected, argv

    def test_replaced_command_is_called(self, shipped_path, monkeypatch):
        # commands are looked up by name on each call, after the parser is built
        run_cli(["validate", str(shipped_path)])
        seen = []
        monkeypatch.setattr("flapkin.cli.cmd_validate", lambda args: seen.append(args.mechanism) or 0)
        assert run_cli(["validate", str(shipped_path)]) == (0, "", "")
        assert seen == [str(shipped_path)]

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

    @pytest.mark.xfail(strict=True, reason="the default span is the wingtip's largest distance from the "
                                           "world origin (0.0522 m on the shipped armwing), not from the "
                                           "shoulder (0.1004 m)")
    def test_aero_default_span_is_the_reach_from_the_shoulder(self, shipped_path, armwing):
        # AeroConfig.span is the reach at extension ratio 1: shoulder to wingtip
        pb = generate_gait(armwing, 0.1, 64).poses
        (tx, ty), (sx, sy) = pb.marker_world(armwing.wingtip), pb.marker_world(armwing.shoulder)
        span = float(np.hypot(tx - sx, ty - sy).max())
        argv = ["aero", str(shipped_path), "--period", "0.1", "--freestream", "3", "--samples", "64"]
        assert run_cli(argv) == run_cli([*argv, "--span", repr(span)])

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

    @pytest.mark.parametrize("broken, error", [("space", "SCHEMA_ERROR"), ("spec", "SCHEMA_ERROR"),
                                               ("parameter", "SCHEMA_ERROR"), ("json", "PARSE_ERROR"),
                                               ("extension_range", "SCHEMA_ERROR"),
                                               ("bounds", "SCHEMA_ERROR"), ("weights", "SCHEMA_ERROR"),
                                               ("plunge_amplitude_rad", "SCHEMA_ERROR"),
                                               ("area_ratio_max", "SCHEMA_ERROR"),
                                               ("min_transmission_angle_rad", "SCHEMA_ERROR"),
                                               ("weight key", "SCHEMA_ERROR")])
    def test_synthesize_format_error(self, tmp_path, broken, error):
        space_doc = {
            "template": mechanism_to_doc(fourbar_mechanism(FourBar(6, 2, 5, 5))),
            "parameters": [{"name": "link.crank.marker.tip.x", "lower": 1.6, "upper": 2.4}],
        }
        spec_doc = {"plunge_amplitude_rad": 0.3, "extension_range": [0.5, 1.0]}
        if broken == "space":
            space_doc = {}
        elif broken == "spec":
            spec_doc = {}
        elif broken == "parameter":
            del space_doc["parameters"][0]["lower"]
        elif broken == "extension_range":  # GaitSpec rejects it
            spec_doc["extension_range"] = [0.9, 0.5]
        elif broken == "bounds":  # Parameter rejects lower > upper
            space_doc["parameters"][0]["lower"] = 3.0
        elif broken in ("weights", "plunge_amplitude_rad", "area_ratio_max", "min_transmission_angle_rad"):
            spec_doc[broken] = {"plunge_amplitude": math.nan} if broken == "weights" else math.nan
        elif broken == "weight key":  # the spec file's key, not a weight's
            spec_doc["weights"] = {"plunge_amplitude_rad": 1.0}
        space_p, spec_p = tmp_path / "space.json", tmp_path / "spec.json"
        space_p.write_text(json.dumps(space_doc)[:-1] if broken == "json" else json.dumps(space_doc))
        spec_p.write_text(json.dumps(spec_doc))
        code, _, err = run_cli(["synthesize", str(space_p), str(spec_p), "--budget", "60",
                                "--seed", "1", "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"E_FORMAT {error}")

    def test_spec_file_omitting_keys_takes_gaitspec_defaults(self, tmp_path):
        p, doc = tmp_path / "spec.json", {"plunge_amplitude_rad": 0.3, "extension_range": [0.5, 1.0]}
        p.write_text(json.dumps(doc))
        assert _load_spec(str(p)) == GaitSpec(plunge_amplitude=0.3, extension_range=(0.5, 1.0))
        p.write_text(json.dumps({**doc, "area_ratio_max": 0.8, "min_transmission_angle_rad": 0.6,
                                 "weights": {"extension_min": 2.0}}))
        assert _load_spec(str(p)) == GaitSpec(0.3, (0.5, 1.0), 0.8, 0.6, {"extension_min": 2.0})

    def test_synthesize_bad_parameter_path(self, tmp_path):
        space_doc = {
            "template": mechanism_to_doc(fourbar_mechanism(FourBar(6, 2, 5, 5))),
            "parameters": [{"name": "link.crank.marker.tip.z", "lower": 1.6, "upper": 2.4}],
        }
        spec_doc = {"plunge_amplitude_rad": 0.3, "extension_range": [0.5, 1.0]}
        space_p, spec_p, out_p = tmp_path / "space.json", tmp_path / "spec.json", tmp_path / "out.json"
        space_p.write_text(json.dumps(space_doc))
        spec_p.write_text(json.dumps(spec_doc))
        code, out, err = run_cli(["synthesize", str(space_p), str(spec_p), "--budget", "60",
                                  "--seed", "1", "--out", str(out_p)])
        assert code == 1 and out == "" and not out_p.exists()
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E_SYNTHESIS BAD_PARAMETER")

    @pytest.mark.parametrize("edit, error", [
        (lambda doc: doc.update(transmission_joints=["j_nope"]), "E_SYNTHESIS BAD_PARAMETER"),
        (lambda doc: doc.update(transmission_joints="j_b"), "E_FORMAT SCHEMA_ERROR"),
        (lambda doc: doc.update(transmission_joints=["j_b", 4]), "E_FORMAT SCHEMA_ERROR"),
        (lambda doc: doc["template"].pop("shoulder"), "E_GAIT DEGENERATE"),
    ], ids=["unknown joint", "string", "not a string", "template without shoulder"])
    def test_synthesize_bad_design_space(self, tmp_path, edit, error):
        # the shipped armwing input pair with one fault in the space
        space_doc = json.loads((DATA / "armwing_space.json").read_text())
        edit(space_doc)
        space_p, out_p = tmp_path / "space.json", tmp_path / "out.json"
        space_p.write_text(json.dumps(space_doc))
        code, out, err = run_cli(["synthesize", str(space_p), str(DATA / "armwing_spec.json"),
                                  "--budget", "1500", "--seed", "0", "--out", str(out_p)])
        assert code == 1 and out == "" and not out_p.exists()
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(error)

    def test_synthesize_deterministic_output(self, tmp_path):
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


NUMBER = st.one_of(st.sampled_from(["0.1", "1", "0", "-1", "nan", "inf", "-inf", "x"]),
                   st.floats(-1e3, 1e3).map(repr))
COUNT = st.integers(-5, 300).map(str)
SUBCOMMAND_OPTIONS = {  # option -> value strategy; None for a flag
    "validate": {},
    "sweep": {"--steps": COUNT, "--period": NUMBER, "--tol": NUMBER},
    "gait": {"--period": NUMBER, "--samples": COUNT, "--metrics": None, "--tol": NUMBER,
             "--transmission-joint": st.sampled_from(["j_b", "j_d", "nope"])},
    "aero": {"--period": NUMBER, "--freestream": NUMBER, "--density": NUMBER, "--samples": COUNT,
             "--strips": COUNT, "--span": NUMBER, "--tol": NUMBER,
             "--chord": st.sampled_from(["0.08,0.075,0.06,0.03", "0.1", "a,b", "", "-1,2", "nan,1"])},
    "animate": {"--frames": COUNT, "--period": NUMBER, "--tol": NUMBER},
    "synthesize": {"--budget": st.integers(-5, 200).map(str), "--seed": st.integers(-2, 5).map(str),
                   "--threads": COUNT},
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory) -> dict[str, list[str]]:
    """Input files for every positional argument: good, missing and broken."""
    d = tmp_path_factory.mktemp("fuzz")
    docs = {
        "armwing.json": shipped_bytes().decode(),
        "broken.json": '{"version": 1,,}',
        "space.json": json.dumps({
            "template": mechanism_to_doc(fourbar_mechanism(FourBar(6, 2, 5, 5))),
            "parameters": [{"name": "link.crank.marker.tip.x", "lower": 1.6, "upper": 2.4}]}),
        "spec.json": json.dumps({"plunge_amplitude_rad": 0.3, "extension_range": [0.5, 1.0]}),
        "bad_spec.json": json.dumps({"plunge_amplitude_rad": 0.3, "extension_range": [0.9, 0.5]}),
    }
    for name, text in docs.items():
        (d / name).write_text(text)
    missing, broken = str(d / "missing.json"), str(d / "broken.json")
    return {"mechanism": [str(d / "armwing.json"), missing, broken],
            "space": [str(d / "space.json"), missing, broken],
            "spec": [str(d / "spec.json"), str(d / "bad_spec.json"), missing],
            "out": [str(d / "out")]}


class TestCliFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_argv_ends_in_a_documented_exit_code(self, cli_inputs, data):
        command = data.draw(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)), label="command")
        positional = ["space", "spec"] if command == "synthesize" else ["mechanism"]
        argv = [command, *(data.draw(st.sampled_from(cli_inputs[p]), label=p) for p in positional)]
        if command in ("synthesize", "animate"):
            argv += ["--out" if command == "synthesize" else "--out-dir",
                     cli_inputs["out"][0] + (".json" if command == "synthesize" else "")]
        for option, values in SUBCOMMAND_OPTIONS[command].items():
            if data.draw(st.integers(0, 9), label=f"use {option}"):  # required options mostly present
                argv += [option] if values is None else [option, data.draw(values, label=option)]
        code, _, err = run_cli(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


def test_compare_gait_phases_script_ranks_as_built_between_phasings():
    # the script's own claim: the shipped gait's lift lies between the gaits
    # with the larger membrane area on the downstroke and on the upstroke
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_gait_phases.py"
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=package_env(),
                       timeout=120)
    assert r.returncode == 0, r.stderr
    ranks = {label: int(rank) for rank, label in re.findall(r"#(\d) (in-phase|as built|anti-phase)", r.stdout)}
    assert ranks == {"in-phase": 1, "as built": 2, "anti-phase": 3}
