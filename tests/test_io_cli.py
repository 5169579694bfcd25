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
    mechanism_from_doc,
    mechanism_to_doc,
    parse_mechanism,
    render_svg,
    serialize_mechanism,
    trajectory_csv,
)
from flapkin.gait import GaitTrajectory, gait_metrics, generate_gait
from flapkin.geometry import Point2
from flapkin.kinematics import sweep_arrays
from flapkin.mechanism import CompliantHinge, FourBar, fourbar_mechanism
from flapkin.synthesis import BOUNDS, GaitSpec

from conftest import make_plunge_gait, marker_world, recovery_space, run_cli, triad_eight_bar


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

    def test_inline_hinge_parses_and_round_trips(self):
        # j_b sprung on the joint itself rather than by a `hinges` entry: no flexure geometry
        doc = json.loads(shipped_bytes())
        joint, key = _inline_stiffness(doc)
        joint.update({key: 0.05, "rest_angle_rad": 0.3})
        m = parse_mechanism(json.dumps(doc))
        assert m.joint("j_b").kind == CompliantHinge(0.05, 0.3, None)
        assert mechanism_from_doc(mechanism_to_doc(m)) == m

    def test_inline_stiffness_beside_a_hinges_entry_rejected(self):
        doc = json.loads(shipped_bytes())
        _entry(doc["joints"], "j_b")["stiffness_nm_per_rad"] = 0.05
        with pytest.raises(SchemaError, match="^joint 'j_b': give stiffness either inline or via 'hinges', not both$"):
            parse_mechanism(json.dumps(doc))

    @pytest.mark.parametrize("key, ident, kind", [("links", "crank", "link"), ("joints", "j_b", "joint"),
                                                  ("hinges", "j_b", "hinge")])
    def test_unknown_entry_key_rejected(self, key, ident, kind):
        doc = json.loads(shipped_bytes())
        _entry(doc[key], ident)["color"] = "black"
        with pytest.raises(SchemaError, match=rf"^{kind}: unknown keys \['color'\]$"):
            parse_mechanism(json.dumps(doc))


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

    def test_gait_metrics_out_writes_the_metrics_text(self, shipped_path, tmp_path):
        argv = ["gait", str(shipped_path), "--period", "0.1", "--samples", "64", "--transmission-joint", "j_b"]
        code, csv, text = run_cli([*argv, "--metrics"])
        assert code == 0 and csv.startswith(TRAJECTORY_HEADER)
        out_p = tmp_path / "metrics.json"
        assert run_cli([*argv, "--metrics-out", str(out_p)]) == (0, csv, "")
        assert out_p.read_bytes() == text.encode()

    def test_gait_metrics_out_to_an_unwritable_path_is_an_io_error(self, shipped_path, tmp_path):
        # a directory where the file should go; the metrics are written before the CSV, so stdout stays empty
        (tmp_path / "metrics.json").mkdir()
        code, out, err = run_cli(["gait", str(shipped_path), "--period", "0.1", "--samples", "64",
                                  "--metrics-out", str(tmp_path / "metrics.json")])
        lines = err.splitlines()
        assert code == 3 and len(lines) == 1 and lines[0].startswith("E_IO") and out == "", err

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
                                               ("weight key", "SCHEMA_ERROR"),
                                               ("min_transmission_angle", "SCHEMA_ERROR"),
                                               ("area_ratio", "SCHEMA_ERROR"),
                                               ("extension_range entries", "SCHEMA_ERROR"),
                                               ("extension_range number", "SCHEMA_ERROR"),
                                               ("weights list", "SCHEMA_ERROR"),
                                               ("spec top level", "SCHEMA_ERROR"),
                                               ("parameters object", "SCHEMA_ERROR"),
                                               ("parameter name", "SCHEMA_ERROR")])
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
        elif broken in ("min_transmission_angle", "area_ratio"):  # a field's name and a key's stem: no spec key
            spec_doc[broken] = 1.2 if broken == "min_transmission_angle" else 0.5
        elif broken == "extension_range entries":
            spec_doc["extension_range"] = [0.5, 0.8, 1.0]
        elif broken == "extension_range number":
            spec_doc["extension_range"] = 0.5
        elif broken == "weights list":
            spec_doc["weights"] = [1, 2]
        elif broken == "spec top level":
            spec_doc = [1, 2]
        elif broken == "parameters object":
            space_doc["parameters"] = {"a": 1}
        elif broken == "parameter name":
            space_doc["parameters"][0]["name"] = 5
        space_p, spec_p = tmp_path / "space.json", tmp_path / "spec.json"
        space_p.write_text(json.dumps(space_doc)[:-1] if broken == "json" else json.dumps(space_doc))
        spec_p.write_text(json.dumps(spec_doc))
        code, _, err = run_cli(["synthesize", str(space_p), str(spec_p), "--budget", "60",
                                "--seed", "1", "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"E_FORMAT {error}")
        named = {"min_transmission_angle": "['min_transmission_angle']", "area_ratio": "['area_ratio']",
                 "extension_range entries": "extension_range must be (min, max)",
                 "weight key": "'plunge_amplitude_rad'",
                 "extension_range number": "'extension_range' must be a list", "weights list": "'weights' must be",
                 "spec top level": "a gait spec must be an object", "parameters object": "'parameters' must be",
                 "parameter name": "'name' must be a string",
                 **{k: repr(k) for k in ("plunge_amplitude_rad", "area_ratio_max", "min_transmission_angle_rad")}}
        assert named.get(broken, "") in lines[0]

    def test_synthesize_summary_is_strict_json_at_the_largest_weights(self, tmp_path):
        # at weights of 1e308 the penalty scale overflows to inf; a bound that is
        # met adds 0.0 (not inf * 0.0 = NaN, which JSON cannot hold)
        doc = json.loads((DATA / "armwing_spec.json").read_text())
        doc["weights"] = dict.fromkeys(("plunge_amplitude", "extension_min", "extension_max"), 1e308)
        spec_p = tmp_path / "spec.json"
        spec_p.write_text(json.dumps(doc))
        code, out, _ = run_cli(["synthesize", str(DATA / "armwing_space.json"), str(spec_p), "--budget", "180",
                                "--seed", "0", "--out", str(tmp_path / "out.json")])

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        summary = json.loads(out, parse_constant=reject)
        assert code in (0, 1) and math.isfinite(summary["cost"])

    def test_spec_file_omitting_keys_takes_gaitspec_defaults(self, tmp_path):
        p, doc = tmp_path / "spec.json", {"plunge_amplitude_rad": 0.3, "extension_range": [0.5, 1.0]}
        p.write_text(json.dumps(doc))
        assert _load_spec(str(p)) == GaitSpec(plunge_amplitude=0.3, extension_range=(0.5, 1.0))
        p.write_text(json.dumps({**doc, "area_ratio_max": 0.8, "min_transmission_angle_rad": 0.6,
                                 "weights": {"extension_min": 2.0}}))
        assert _load_spec(str(p)) == GaitSpec(0.3, (0.5, 1.0), 0.8, 0.6, {"extension_min": 2.0})

    def test_every_spec_file_key_is_in_the_readme(self, tmp_path):
        # the keys `_load_spec` accepts are those its unknown-key error lists; a
        # new `BOUNDS` row adds one, which the README's spec-file list must name
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"no such key": 0.0}))
        with pytest.raises(SchemaError, match=r"\['no such key'\]; a gait spec takes ") as e:
            _load_spec(str(p))
        keys = str(e.value).split("a gait spec takes ")[1].split(", ")
        assert {"plunge_amplitude_rad", "extension_range", "weights", *(key for _, _, key, *_ in BOUNDS)} == {*keys}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert [key for key in keys if f"`{key}`" not in readme] == []

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

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: doc.update(transmission_joint=doc.pop("transmission_joints")), "transmission_joint"),
        (lambda doc: doc["parameters"][0].update(lowr=0.0), "lowr"),
    ], ids=["misspelt top-level key", "unknown parameter key"])
    def test_synthesize_unknown_design_space_key(self, tmp_path, edit, key):
        # with `transmission_joints` misspelt, the shipped pair ran to a feasible design
        # on which no transmission-angle bound was checked
        space_doc = json.loads((DATA / "armwing_space.json").read_text())
        edit(space_doc)
        space_p, out_p = tmp_path / "space.json", tmp_path / "out.json"
        space_p.write_text(json.dumps(space_doc))
        code, out, err = run_cli(["synthesize", str(space_p), str(DATA / "armwing_spec.json"),
                                  "--budget", "180", "--seed", "0", "--out", str(out_p)])
        assert code == 1 and out == "" and not out_p.exists()
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E_FORMAT SCHEMA_ERROR") and f"[{key!r}]" in lines[0]

    def test_gait_newton_failure_is_its_code(self, tmp_path):
        # the triad's Newton sweep fails at crank angles 14-19 of 24: NO_CONVERGENCE carried to the CLI
        p = tmp_path / "triad.json"
        p.write_text(serialize_mechanism(triad_eight_bar()))
        code, out, err = run_cli(["gait", str(p), "--period", "0.1", "--samples", "24"])
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E_GAIT NO_CONVERGENCE: sweep failed at step 14 ")

    def test_synthesize_out_holds_the_summary_parameters(self, tmp_path):
        # the shipped armwing space with a searched hinge stiffness, which a file with the
        # flexure dimensions alone would lose
        doc = json.loads((DATA / "armwing_space.json").read_text())
        doc["parameters"].append({"name": "joint.j_b.stiffness", "lower": 0.02, "upper": 0.2})
        space_p, out_p = tmp_path / "space.json", tmp_path / "out.json"
        space_p.write_text(json.dumps(doc))
        code, out, _ = run_cli(["synthesize", str(space_p), str(DATA / "armwing_spec.json"),
                                "--budget", "195", "--seed", "0", "--out", str(out_p)])
        assert code in (0, 1)
        m = parse_mechanism(out_p.read_bytes())
        for name, value in json.loads(out)["parameters"].items():
            part = name.split(".")
            got = (m.joint(part[1]).kind.stiffness if part[0] == "joint"
                   else getattr(m.link(part[1]).marker(part[3]), part[4]))
            assert got == value, name

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

    def test_synthesize_over_bounds_near_the_float_range_stays_quiet(self, tmp_path):
        # every candidate's sweep overflows and fails: exit 1 (infeasible), and numpy warns of nothing
        space, spec, _ = recovery_space()
        space_p, spec_p = tmp_path / "space.json", tmp_path / "spec.json"
        space_p.write_text(json.dumps({
            "template": mechanism_to_doc(space.template),
            "parameters": [{"name": p.name, "lower": -1e300, "upper": 1e300} for p in space.parameters],
            "transmission_joints": list(space.transmission_joints)}))
        spec_p.write_text(json.dumps({
            "plunge_amplitude_rad": spec.plunge_amplitude, "extension_range": list(spec.extension_range),
            "area_ratio_max": spec.area_ratio_max, "min_transmission_angle_rad": spec.min_transmission_angle}))
        r = subprocess.run([sys.executable, "-m", "flapkin.cli", "synthesize", str(space_p), str(spec_p),
                            "--budget", "75", "--seed", "0", "--out", str(tmp_path / "out.json")],
                           capture_output=True, text=True, env=package_env(), timeout=120)
        assert (r.returncode, r.stderr) == (1, "")
        assert json.loads(r.stdout)["feasible"] is False


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


UNDECODABLE = {  # name -> the bytes of an input file that `json.loads` cannot decode
    "integer of 4301 digits": b'{"version": 1' + b"0" * 4300 + b"}",
    "byte not UTF-8": b'{"version": 1, "\xff": 0}',
    "nesting too deep": b"[" * 100_000,
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
    for name, data in UNDECODABLE.items():
        (d / f"{name}.json").write_bytes(data)
    missing, broken = str(d / "missing.json"), str(d / "broken.json")
    undecodable = [str(d / f"{name}.json") for name in UNDECODABLE]
    return {"mechanism": [str(d / "armwing.json"), missing, broken, *undecodable],
            "space": [str(d / "space.json"), missing, broken, *undecodable],
            "spec": [str(d / "spec.json"), str(d / "bad_spec.json"), missing, *undecodable],
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



def _leaves(doc, path=()):
    """(key or index path, value) of each leaf (number, string, boolean, null) of a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, (*path, key))
    else:
        yield path, doc


def _mutated(doc, path, mutation):
    """A copy of doc with the leaf at path deleted, or replaced by the value mutation."""
    out = json.loads(json.dumps(doc))
    *parents, last = path
    holder = out
    for key in parents:
        holder = holder[key]
    if mutation == "delete":
        del holder[last]
    else:
        holder[last] = mutation
    return out


def test_mutated_shipped_files_end_in_a_documented_exit_code(tmp_path):
    """One leaf of a shipped input file deleted, or made NaN, inf or a value of
    the wrong type, fails or passes through each command that reads the file
    with exit code 0-3, no traceback and at most one E_ line."""
    rng = np.random.default_rng(23)
    names = {"mechanism": "armwing.json", "space": "armwing_space.json", "spec": "armwing_spec.json"}
    docs = {role: json.loads((DATA / name).read_text()) for role, name in names.items()}
    good = {role: tmp_path / name for role, name in names.items()}
    for role, doc in docs.items():
        good[role].write_text(json.dumps(doc))
    cases = []
    for role, take in (("mechanism", 60), ("space", 60), ("spec", None)):
        all_cases = [(role, path, mutation) for path, value in _leaves(docs[role])
                     for mutation in ("delete", math.nan, math.inf, 0.5 if isinstance(value, str) else "x")]
        picks = range(len(all_cases)) if take is None else sorted(rng.choice(len(all_cases), take, replace=False))
        cases += [all_cases[i] for i in picks]
    for role, path, mutation in cases:
        bad = tmp_path / f"bad_{names[role]}"
        bad.write_text(json.dumps(_mutated(docs[role], path, mutation)))
        if role == "mechanism":
            runs = [["validate", str(bad)], ["gait", str(bad), "--period", "0.1", "--samples", "64"],
                    ["aero", str(bad), "--period", "0.1", "--freestream", "3", "--samples", "64"]]
        else:
            files = {**good, role: bad}
            runs = [["synthesize", str(files["space"]), str(files["spec"]), "--budget", "30", "--seed", "0",
                     "--out", str(tmp_path / "out.json")]]
        for argv in runs:
            code, _, err = run_cli(argv)
            assert code in (0, 1, 2, 3), (argv[0], path, mutation)
            assert "Traceback" not in err, (argv[0], path, mutation)
            assert sum(line.startswith("E_") for line in err.splitlines()) <= 1, (argv[0], path, mutation)


def test_runtime_modules_import_no_test_dependency():
    # scipy and hypothesis are test dependencies only
    code = ("import importlib, pkgutil, sys, flapkin\n"
            "for info in pkgutil.walk_packages(flapkin.__path__, 'flapkin.'):\n"
            "    importlib.import_module(info.name)\n"
            "print(sorted({name.split('.')[0] for name in sys.modules} & {'scipy', 'hypothesis'}))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"

def test_compare_gait_phases_script_ranks_as_built_between_phasings():
    # the script's own claim: the shipped gait's lift lies between the gaits
    # with the larger membrane area on the downstroke and on the upstroke
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_gait_phases.py"
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=package_env(),
                       timeout=120)
    assert r.returncode == 0, r.stderr
    ranks = {label: int(rank) for rank, label in re.findall(r"#(\d) (in-phase|as built|anti-phase)", r.stdout)}
    assert ranks == {"in-phase": 1, "as built": 2, "anti-phase": 3}


@pytest.mark.parametrize("command", ["validate", "gait", "aero"])
@pytest.mark.parametrize("where", ["hinge j_b", "hinge j_d", "inline j_b"])
@pytest.mark.parametrize("value", [None, [1], {}, "x", math.nan, math.inf],
                         ids=["null", "list", "object", "string", "nan", "inf"])
def test_bad_hinge_rest_angle_is_a_schema_error(tmp_path, command, where, value):
    # a rest angle must be a finite number, in a `hinges` entry or on a joint with an inline stiffness
    doc = json.loads(shipped_bytes())
    kind, jid = where.split()
    if kind == "hinge":
        next(h for h in doc["hinges"] if h["joint"] == jid)["rest_angle_rad"] = value
    else:
        doc["hinges"] = [h for h in doc["hinges"] if h["joint"] != jid]
        next(j for j in doc["joints"] if j["id"] == jid).update(stiffness_nm_per_rad=0.05, rest_angle_rad=value)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    options = {"validate": [], "gait": ["--period", "0.1", "--samples", "64"],
               "aero": ["--period", "0.1", "--freestream", "3", "--samples", "64"]}
    code, _, err = run_cli([command, str(p), *options[command]])
    assert code == 1
    owner = kind if kind == "hinge" else "joint"
    assert len(err.splitlines()) == 1 and err.startswith(f"E_FORMAT SCHEMA_ERROR: {p}: {owner}")


def _entry(entries: list[dict], ident: str) -> dict:
    """The entry of a shipped file's list whose id (or hinge joint) is ident."""
    return next(e for e in entries if e.get("id", e.get("joint")) == ident)


def _inline_stiffness(doc: dict) -> tuple[dict, str]:
    # joint j_b with its stiffness on the joint instead of in a `hinges` entry
    doc["hinges"] = [h for h in doc["hinges"] if h["joint"] != "j_b"]
    return _entry(doc["joints"], "j_b"), "stiffness_nm_per_rad"


SHIPPED = {"mechanism": "armwing.json", "space": "armwing_space.json", "spec": "armwing_spec.json"}
NUMBER_FIELDS = {  # field -> (shipped file, the (holder, key) of that number in the file's document)
    "marker coordinate": ("mechanism", lambda d: (_entry(d["links"], "crank")["markers"]["tip"], 0)),
    "hinge width_m": ("mechanism", lambda d: (_entry(d["hinges"], "j_b"), "width_m")),
    "hinge rest_angle_rad": ("mechanism", lambda d: (_entry(d["hinges"], "j_d"), "rest_angle_rad")),
    "inline stiffness_nm_per_rad": ("mechanism", _inline_stiffness),
    "version": ("mechanism", lambda d: (d, "version")),
    "parameter lower": ("space", lambda d: (d["parameters"][0], "lower")),
    "plunge_amplitude_rad": ("spec", lambda d: (d, "plunge_amplitude_rad")),
    "extension_range entry": ("spec", lambda d: (d["extension_range"], 0)),
    **{key: ("spec", lambda d, key=key: (d, key)) for _, _, key, *_ in BOUNDS},  # the graded bounds' keys
    "weight": ("spec", lambda d: (d.setdefault("weights", {}), "extension_min")),
}


@pytest.mark.parametrize("raw", ["true", '"0.5"', "1" + "0" * 400], ids=["true", "numeric string", "400-digit int"])
@pytest.mark.parametrize("field", list(NUMBER_FIELDS))
def test_a_number_field_takes_only_a_finite_json_number(tmp_path, field, raw):
    # a boolean, a numeric string or an integer beyond the float range in any
    # number field of the three input files is one schema error line, exit 1
    role, locate = NUMBER_FIELDS[field]
    docs = {r: json.loads((DATA / name).read_text()) for r, name in SHIPPED.items()}
    holder, key = locate(docs[role])
    holder[key] = "@number@"
    paths = {r: tmp_path / name for r, name in SHIPPED.items()}
    for r, doc in docs.items():
        paths[r].write_text(json.dumps(doc).replace('"@number@"', raw))
    if role == "mechanism":
        runs = [["validate", str(paths["mechanism"])],
                ["gait", str(paths["mechanism"]), "--period", "0.1", "--samples", "64"]]
    else:  # the shipped space has 12 parameters: budget 180 is one population
        runs = [["synthesize", str(paths["space"]), str(paths["spec"]), "--budget", "180", "--seed", "0",
                 "--out", str(tmp_path / "out.json")]]
    for argv in runs:
        code, _, err = run_cli(argv)
        lines = err.splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("E_FORMAT SCHEMA_ERROR"), (argv[0], err)


def test_integral_numbers_read_as_the_floats_they_equal(tmp_path):
    # [0, 0] for [0.0, 0.0], 1200000000 for 1200000000.0: the same objects, every number a float
    doc = json.loads(shipped_bytes())
    for link in doc["links"]:
        link["markers"] = {name: [int(v) if v == int(v) else v for v in xy] for name, xy in link["markers"].items()}
    for hinge in doc["hinges"]:
        hinge.update(modulus_pa=int(hinge["modulus_pa"]), rest_angle_rad=int(hinge["rest_angle_rad"]))
    text = json.dumps(doc)
    assert "[0, 0]" in text and "1200000000," in text
    m = parse_mechanism(text)
    assert m == parse_mechanism(shipped_bytes()) and serialize_mechanism(m) == shipped_bytes().decode()
    assert all(type(v) is float for link in m.links for p in link.markers.values() for v in (p.x, p.y))
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"plunge_amplitude_rad": 1, "extension_range": [0, 1], "weights": {"extension_min": 2}}))
    spec = _load_spec(str(p))
    assert spec == GaitSpec(1.0, (0.0, 1.0), weights={"extension_min": 2.0})
    assert all(type(v) is float for v in (spec.plunge_amplitude, *spec.extension_range, *spec.weights.values()))


VALIDATION_FAULTS = [  # (violation code, what its message names, edit of the shipped armwing document)
    ("DUPLICATE_ID", "duplicate link id", lambda d: d["links"][-1].update(id=d["links"][-2]["id"])),
    ("DUPLICATE_ID", "duplicate joint id", lambda d: _entry(d["joints"], "j_a").update(id="j_crank")),
    ("NO_GROUND", "ground link 'nope'", lambda d: d.update(ground="nope")),
    ("UNKNOWN_LINK", "unknown link 'nope'", lambda d: _entry(d["joints"], "j_a").update(link_b="nope")),
    ("UNKNOWN_MARKER", "has no marker 'nope'", lambda d: _entry(d["joints"], "j_a").update(marker_b="nope")),
    ("NO_ACTUATOR", "no actuated joint", lambda d: _entry(d["joints"], "j_crank").pop("actuated")),
    ("ACTUATOR_NOT_GROUNDED", "'j_a' is not on the ground link",
     lambda d: (_entry(d["joints"], "j_crank").pop("actuated"), _entry(d["joints"], "j_a").update(actuated=True))),
    ("DISCONNECTED", "not reachable from ground: ['loose']",
     lambda d: d["links"].append({"id": "loose", "role": "generic", "markers": {"origin": [0.0, 0.0]}})),
]


@pytest.mark.parametrize("code, message, edit", VALIDATION_FAULTS,
                         ids=[f"{code} {message.split()[1]}" if code == "DUPLICATE_ID" else code
                              for code, message, _ in VALIDATION_FAULTS])
def test_validation_error_codes(tmp_path, code, message, edit):
    # validate lists the violation and exits 1; gait stops at it with one E_VALIDATION line
    doc = json.loads(shipped_bytes())
    edit(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    status, out, _ = run_cli(["validate", str(p)])
    assert status == 1
    assert any(line.startswith(f"ERROR {code}: ") and message in line for line in out.splitlines()), out
    status, out, err = run_cli(["gait", str(p), "--period", "0.1", "--samples", "64"])
    assert status == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"E_VALIDATION {code}: ") and message in lines[0], err


def test_change_point_fourbar_validates_with_a_warning(tmp_path):
    # the (4, 2, 4, 2) parallelogram is a change-point linkage: a warning, not an error
    p = tmp_path / "parallelogram.json"
    p.write_text(serialize_mechanism(fourbar_mechanism(FourBar(4, 2, 4, 2))))
    status, out, _ = run_cli(["validate", str(p)])
    assert status == 0
    assert out.splitlines() == ["WARNING CHANGE_POINT: four-bar loop is a change-point linkage (branch ambiguity)",
                                "OK"]


def test_hinge_stiffness_beyond_the_float_range_is_a_schema_error(tmp_path):
    # a finite thickness whose cube overflows: E w t^3 / (12 l) cannot be formed
    doc = json.loads(shipped_bytes())
    _entry(doc["hinges"], "j_b")["thickness_m"] = 1e200
    p = tmp_path / "thick.json"
    p.write_text(json.dumps(doc))
    code, _, err = run_cli(["validate", str(p)])
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith(f"E_FORMAT SCHEMA_ERROR: {p}: hinge 'j_b': ")


def _runs(paths: dict[str, Path], role: str, out: Path) -> list[list[str]]:
    """The commands that read the input file of `role`: validate for the mechanism, else synthesize."""
    if role == "mechanism":
        return [["validate", str(paths["mechanism"])]]
    return [["synthesize", str(paths["space"]), str(paths["spec"]), "--budget", "180", "--seed", "0",
             "--out", str(out)]]


@pytest.mark.parametrize("raw", list(UNDECODABLE))
@pytest.mark.parametrize("role", list(SHIPPED))
def test_an_undecodable_input_file_is_a_parse_error(tmp_path, role, raw):
    # every input file is decoded by one rule: what `json.loads` cannot decode
    # is one parse error line naming the file, exit 1, not a usage error or a traceback
    paths = {r: tmp_path / name for r, name in SHIPPED.items()}
    for r, name in SHIPPED.items():
        paths[r].write_bytes(UNDECODABLE[raw] if r == role else (DATA / name).read_bytes())
    for argv in _runs(paths, role, tmp_path / "out.json"):
        code, _, err = run_cli(argv)
        lines = err.splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("E_FORMAT PARSE_ERROR"), (argv[0], err)
        if role == "mechanism":
            assert lines[0].startswith(f"E_FORMAT PARSE_ERROR: {paths['mechanism']}: malformed JSON: "), err


@pytest.mark.parametrize("role", list(SHIPPED))
def test_an_unreadable_input_file_is_an_io_error(tmp_path, role):
    # a directory where the file should be cannot be read: exit 3
    paths = {r: tmp_path / name for r, name in SHIPPED.items()}
    for r, name in SHIPPED.items():
        if r == role:
            paths[r].mkdir()
        else:
            paths[r].write_bytes((DATA / name).read_bytes())
    for argv in _runs(paths, role, tmp_path / "out.json"):
        code, _, err = run_cli(argv)
        lines = err.splitlines()
        assert code == 3 and len(lines) == 1 and lines[0].startswith("E_IO"), (argv[0], err)


@pytest.mark.parametrize("joint, value", [("j_a", "x"), ("j_a", 0.7), ("j_b", 0.7)],
                         ids=["rigid joint, a string", "rigid joint", "joint sprung by a hinges entry"])
def test_a_joint_rest_angle_needs_an_inline_stiffness(tmp_path, joint, value):
    # a joint's rest angle is read as a number, and without an inline stiffness
    # it would set nothing: either way a schema error that names the joint
    doc = json.loads(shipped_bytes())
    _entry(doc["joints"], joint)["rest_angle_rad"] = value
    p = tmp_path / "rest.json"
    p.write_text(json.dumps(doc))
    code, _, err = run_cli(["validate", str(p)])
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith(f"E_FORMAT SCHEMA_ERROR: {p}: joint {joint!r}"), err
