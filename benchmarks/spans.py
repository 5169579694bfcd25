"""Span tracing for the benchmark's traced run.

The spans are recorded from outside the package: `Tracer.install` replaces
each public function named in `TARGETS` by a timing wrapper, in every loaded
`flapkin` module that holds the function under any name. A module that did
`from .kinematics import sweep_arrays` holds its own reference, so patching
only `flapkin.kinematics` would miss the calls made from `gait`, `synthesis`
and `cli`.

Each span records its name, start, end, parent span and thread. Every thread
keeps its own stack of open spans. `synthesize --threads 2` evaluates the
objective on pool threads, whose stacks are empty when they start work; such
a span takes as parent the innermost open span of the thread that installed
the tracer, which is blocked inside `synthesize` waiting for the pool.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TARGETS = (
    ("cli", ("cmd_gait", "cmd_aero", "cmd_synthesize")),
    ("fileio", ("parse_mechanism", "trajectory_csv", "aero_csv")),
    ("mechanism", ("validate_mechanism", "as_fourbar")),
    ("kinematics", ("sweep_arrays", "assemble", "transmission_angle_series")),
    ("gait", ("generate_gait", "gait_metrics")),
    ("aero", ("quasi_steady_forces",)),
    ("synthesis", ("objective", "synthesize", "feasibility_report")),
    ("compliance", ("solve_equilibrium",)),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _sweep_info(result, args, kwargs) -> dict:
    return {"samples": len(_arg(args, kwargs, 1, "thetas")), "failed": result.failed_at is not None}


def _csv_info(result, args, kwargs) -> dict:
    return {"bytes": len(result.encode())}


def _objective_info(result, args, kwargs) -> dict:
    return {"cost": float(result)}


def _forces_info(result, args, kwargs) -> dict:
    gt, cfg = _arg(args, kwargs, 0, "gt"), _arg(args, kwargs, 1, "cfg")
    return {"strip_samples": gt.samples * cfg.strip_count}


# what each wrapper reads off a call besides its timing
ANNOTATE = {
    "kinematics.sweep_arrays": _sweep_info,
    "fileio.trajectory_csv": _csv_info,
    "fileio.aero_csv": _csv_info,
    "synthesis.objective": _objective_info,
    "aero.quasi_steady_forces": _forces_info,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict | None


class Tracer:
    """Records spans in memory while installed; `write` saves them as JSON lines."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "flapkin" or name.startswith("flapkin."))]
        for mod_name, fn_names in TARGETS:
            owner = sys.modules[f"flapkin.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _parent(self, tid: int, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        if tid != self._home:
            home = self._stacks.get(self._home)
            return home[-1] if home else None
        return None

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        spans, ids, stacks = self.spans, self._ids, self._stacks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            parent = self._parent(tid, stack)
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, tid, {"error": type(e).__name__}))
                raise
            end = time.perf_counter()
            stack.pop()
            info = annotate(result, args, kwargs) if annotate else None
            spans.append(Span(sid, name, start, end, parent, tid, info))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start_s": s.start - t0,
                                     "end_s": s.end - t0, "parent": s.parent,
                                     "thread": s.thread, "info": s.info}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer figures of `ops` traced operations, keyed by metric name."""
    ops = max(ops, 1)
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / ops

    def self_ms(name):
        group = by_name.get(name, ())
        return 1e3 * statistics.median(selfs[s.id] for s in group) if group else 0.0

    def per_second(name, key):
        group = by_name.get(name, ())
        busy = sum(s.end - s.start for s in group)
        return sum(s.info.get(key, 0) for s in group if s.info) / busy if busy > 0 else 0.0

    by_id = {s.id: s for s in spans}

    def sweeps_per_command(command):
        """Sweeps made inside each call of a CLI command."""
        n_cmd = len(by_name.get(command, ()))
        if not n_cmd:
            return 0.0
        inside = 0
        for s in by_name.get("kinematics.sweep_arrays", ()):
            p = s.parent
            while p is not None and by_id[p].name != command:
                p = by_id[p].parent
            inside += p is not None
        return inside / n_cmd

    sweeps = by_name.get("kinematics.sweep_arrays", ())
    csv_bytes = [s.info["bytes"] for s in by_name.get("fileio.trajectory_csv", ()) if "bytes" in s.info]
    evals = by_name.get("synthesis.objective", ())
    metric_failure_cost = sys.modules["flapkin.synthesis"].METRIC_FAILURE_COST
    solves = by_name.get("compliance.solve_equilibrium", ())
    return {
        "cli.cmd_gait.self_ms": self_ms("cli.cmd_gait"),
        "cli.cmd_aero.self_ms": self_ms("cli.cmd_aero"),
        "cli.cmd_synthesize.self_ms": self_ms("cli.cmd_synthesize"),
        "fileio.parse_mechanism.ms": self_ms("fileio.parse_mechanism"),
        "fileio.parse_mechanism.calls": calls("fileio.parse_mechanism"),
        "fileio.trajectory_csv.ms": self_ms("fileio.trajectory_csv"),
        "fileio.trajectory_csv.bytes": statistics.median(csv_bytes) if csv_bytes else 0.0,
        "fileio.aero_csv.ms": self_ms("fileio.aero_csv"),
        "mechanism.validate_mechanism.ms": self_ms("mechanism.validate_mechanism"),
        "mechanism.as_fourbar.calls": calls("mechanism.as_fourbar"),
        "kinematics.sweep_arrays.calls": calls("kinematics.sweep_arrays"),
        "kinematics.sweep_arrays.calls_per_gait": sweeps_per_command("cli.cmd_gait"),
        "kinematics.sweep_arrays.calls_per_aero": sweeps_per_command("cli.cmd_aero"),
        "kinematics.sweep_arrays.ms": self_ms("kinematics.sweep_arrays"),
        "kinematics.sweep_arrays.samples_per_s": per_second("kinematics.sweep_arrays", "samples"),
        "kinematics.sweep_arrays.failed": sum(1 for s in sweeps if s.info.get("failed", True)) / ops,
        "kinematics.assemble.calls": calls("kinematics.assemble"),
        "kinematics.assemble.ms": self_ms("kinematics.assemble"),
        "kinematics.transmission_angle_series.ms": self_ms("kinematics.transmission_angle_series"),
        "gait.generate_gait.ms": self_ms("gait.generate_gait"),
        "gait.gait_metrics.calls": calls("gait.gait_metrics"),
        "gait.gait_metrics.ms": self_ms("gait.gait_metrics"),
        "aero.quasi_steady_forces.ms": self_ms("aero.quasi_steady_forces"),
        "aero.strip_samples_per_s": per_second("aero.quasi_steady_forces", "strip_samples"),
        "synthesis.objective.calls": calls("synthesis.objective"),
        "synthesis.objective.ms": self_ms("synthesis.objective"),
        "synthesis.objective.useful_ratio": (
            sum(1 for s in evals if s.info.get("cost", math.inf) < metric_failure_cost) / len(evals)
            if evals else 0.0),
        "synthesis.synthesize.self_ms": self_ms("synthesis.synthesize"),
        "synthesis.feasibility_report.ms": self_ms("synthesis.feasibility_report"),
        "compliance.solve_equilibrium.calls": calls("compliance.solve_equilibrium"),
        "compliance.solve_equilibrium.ms": self_ms("compliance.solve_equilibrium"),
        "compliance.solve_equilibrium.failed": sum(1 for s in solves if s.info) / ops,
    }
