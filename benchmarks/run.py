"""flapkin benchmark: one workload, timed or traced, checked, one JSON result line.

    python3 benchmarks/run.py --workload armwing_wingbeat --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke     # every workload briefly, both modes

Run from anywhere; the package is imported from `src/` next to this
directory, by absolute path. The last line of stdout is the result:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
for `--trace 0` and the per-layer metrics for `--trace 1`. The line before it
is a report: the environment and the per-workload metrics (command latency
medians and tails, failed ratio). Generated inputs, the last report and the
traced spans go to `benchmarks/out/`. README.md in this directory says why
each workload exists and which end-to-end metric each layer metric moves.
"""
from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; FLAPKIN_THREADS is left unset so
# that only the explicit --threads argument sets the synthesis pool size
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
FLAPKIN_THREADS_INHERITED = os.environ.pop("FLAPKIN_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 5  # the run's own set-up plus four in fresh interpreters
CAL_SHARE = 0.25   # calibration time per unit of operation time
REFERENCE_KERNEL_S = 0.025  # single-thread calibrate() on the 2-vCPU x86-64 VM it was tuned on
SETUP_CAL_S = 0.4  # calibration after each set-up

END_TO_END = {"setup_s": "s", "op_cal_ratio_p50": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.cmd_gait.self_ms": "ms",
    "cli.cmd_aero.self_ms": "ms",
    "cli.cmd_synthesize.self_ms": "ms",
    "fileio.parse_mechanism.ms": "ms",
    "fileio.parse_mechanism.calls": "count/op",
    "fileio.trajectory_csv.ms": "ms",
    "fileio.trajectory_csv.bytes": "B",
    "fileio.aero_csv.ms": "ms",
    "mechanism.validate_mechanism.ms": "ms",
    "mechanism.as_fourbar.calls": "count/op",
    "kinematics.sweep_arrays.calls": "count/op",
    "kinematics.sweep_arrays.calls_per_gait": "count",
    "kinematics.sweep_arrays.calls_per_aero": "count",
    "kinematics.sweep_arrays.ms": "ms",
    "kinematics.sweep_arrays.samples_per_s": "1/s",
    "kinematics.sweep_arrays.failed": "count/op",
    "kinematics.assemble.calls": "count/op",
    "kinematics.assemble.ms": "ms",
    "kinematics.transmission_angle_series.ms": "ms",
    "gait.generate_gait.ms": "ms",
    "gait.gait_metrics.calls": "count/op",
    "gait.gait_metrics.ms": "ms",
    "aero.quasi_steady_forces.ms": "ms",
    "aero.strip_samples_per_s": "1/s",
    "synthesis.objective.calls": "count/op",
    "synthesis.objective.ms": "ms",
    "synthesis.objective.useful_ratio": "ratio",
    "synthesis.synthesize.self_ms": "ms",
    "synthesis.feasibility_report.ms": "ms",
    "compliance.solve_equilibrium.calls": "count/op",
    "compliance.solve_equilibrium.ms": "ms",
    "compliance.solve_equilibrium.failed": "count/op",
    "compliance.large_deflection_warnings": "count/op",
    "compliance.max_projected_gradient": "N.m",
    "compliance.branch_changes": "count/op",
    "compliance.arc_probe.failed": "count",
    "trace.overhead_ms": "ms",
}


def set_up() -> dict:
    """Import flapkin, parse the shipped armwing, write the synthesis inputs."""
    import flapkin.cli  # noqa: F401
    from flapkin.fileio import mechanism_to_doc, parse_mechanism
    from flapkin.gait import gait_metrics, generate_gait
    from flapkin.geometry import Point2
    from flapkin.kinematics import sweep_arrays, transmission_angle_series
    from flapkin.mechanism import FourBar, fourbar_mechanism
    from flapkin.synthesis import OBJECTIVE_SAMPLES

    armwing_path = SRC / "flapkin" / "data" / "armwing.json"
    armwing = parse_mechanism(armwing_path.read_bytes())

    # hidden-mechanism recovery: five marker coordinates of the (6, 2, 5, 5)
    # crank-rocker, bounds +-20% around the hidden values, spec from its gait
    hidden = fourbar_mechanism(FourBar(6.0, 2.0, 5.0, 5.0, coupler_point=Point2(2.5, 1.5)))
    params = (("link.crank.marker.tip.x", 2.0), ("link.coupler.marker.tip.x", 5.0),
              ("link.rocker.marker.tip.x", 5.0), ("link.coupler.marker.cp.x", 2.5),
              ("link.coupler.marker.cp.y", 1.5))
    gt = generate_gait(hidden, 1.0, OBJECTIVE_SAMPLES)
    mu = transmission_angle_series(hidden, sweep_arrays(hidden, gt.crank), "j_b")
    mts = gait_metrics(gt, mu)
    space = {"template": mechanism_to_doc(hidden),
             "parameters": [{"name": n, "lower": 0.8 * v, "upper": 1.2 * v} for n, v in params],
             "transmission_joints": ["j_b"]}
    spec = {"plunge_amplitude_rad": mts.plunge_amplitude,
            "extension_range": list(mts.extension_range),
            "area_ratio_max": 1.05 * mts.area_ratio_up_down,
            "min_transmission_angle_rad": 0.8 * float(mu.min())}
    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    space_path, spec_path = inputs / "space.json", inputs / "spec.json"
    space_path.write_text(json.dumps(space, indent=2))
    spec_path.write_text(json.dumps(spec, indent=2))
    return {"armwing_path": armwing_path, "armwing": armwing, "space_path": space_path,
            "spec_path": spec_path, "out_dir": OUT}


def timed_set_up() -> tuple[dict, float]:
    t0 = time.perf_counter()
    ctx = set_up()
    return ctx, time.perf_counter() - t0


def probe_set_up() -> float:
    """Set-up time in a fresh interpreter, where nothing is imported yet."""
    r = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {r.stderr.strip()[-500:]}")
    return float(r.stdout.split()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "flapkin_threads_env": "removed" if FLAPKIN_THREADS_INHERITED is not None else "unset"}


def _kernel(iterations: int) -> float:
    import numpy as np

    a = np.eye(12) * 12.0 + np.linspace(0.0, 1.0, 144).reshape(12, 12)
    b = np.linspace(1.0, 2.0, 12)
    acc = 0.0
    for _ in range(iterations):
        x = np.linalg.solve(a, b)
        acc += math.hypot(float(x[0]), float(x[1])) + sum(k * 0.5 for k in range(20))
    return acc


def calibrate(threads: int = 1) -> float:
    """Wall time of a fixed kernel that shares no code with flapkin.

    Small dense solves and interpreter arithmetic, the mix the workloads spend
    their time in, run on as many threads as the operation uses. Each vCPU of
    the host this benchmark was written on changes speed by up to 2x within a
    second, so raw operation times wander by 10-20% between runs. Timed
    between the operations of a run, the kernel slows down with them, and the
    ratio of the two stays put.
    """
    t0 = time.perf_counter()
    if threads == 1:
        acc = _kernel(1500)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            acc = sum(ex.map(_kernel, [150] * 10))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def calibrate_for(seconds: float, threads: int) -> list[float]:
    """Kernel times from at least `seconds` of repeated calibration."""
    times = [calibrate(threads)]
    while sum(times) < seconds:
        times.append(calibrate(threads))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "flapkin" / "__init__.py").is_file():
        print(f"flapkin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ctx, setup_first = timed_set_up()
    import flapkin

    if Path(flapkin.__file__).resolve().parent != SRC / "flapkin":
        print(f"imported flapkin from {flapkin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    # set-up time drifts with the machine's speed like the operations do, so
    # setup_s is scaled to the reference speed by calibration interleaved
    # with the set-ups
    setups, kernels = [setup_first], calibrate_for(SETUP_CAL_S, 1)
    for _ in range(SETUP_REPEATS - 1):
        setups.append(probe_set_up())
        kernels += calibrate_for(SETUP_CAL_S, 1)
    setup_kernel = statistics.fmean(kernels)
    setup_s = statistics.median(setups) * REFERENCE_KERNEL_S / setup_kernel
    workload = workloads.WORKLOADS[workload_name](ctx, seed)
    tracer = spans.Tracer() if trace else None

    attempted, failures, ops, traced_ops, untraced_s, traced_s, cal_s = 0, [], [], [], [], [], []

    def one_op(traced: bool):
        nonlocal attempted
        attempted += 1
        if traced:
            tracer.install()
        try:
            res = workload.op()
        except Exception as e:  # a failed operation is counted and reported, never dropped
            failures.append(f"{type(e).__name__}: {e}"[:300])
            return None
        finally:
            if traced:
                tracer.uninstall()
        (traced_s if traced else untraced_s).append(sum(res.seconds.values()))
        return res

    one_op(False)  # warm-up: lazy imports and first-call costs; checked, not timed
    untraced_s.clear()
    start, overtime = time.perf_counter(), 0
    while time.perf_counter() - start < seconds or (
            (not ops or (trace and not traced_ops)) and overtime < 3):
        overtime += time.perf_counter() - start >= seconds
        # the traced run alternates untraced and traced operations, so the
        # difference of their medians is the tracing overhead
        traced = trace and len(untraced_s) >= len(traced_s)
        res = one_op(traced)
        if res is None:
            continue
        ops.append(res)
        if traced:
            traced_ops.append(res)
        elif not trace:
            # machine speed over the run: calibration spread between the
            # operations, a quarter as long as each
            cal_s += calibrate_for(CAL_SHARE * untraced_s[-1], workload.threads)

    failed = len(failures)
    if not ops:
        print(f"no operation succeeded: {failures[:3]}", file=sys.stderr)
        return 1
    report = {"workload": workload_name, "seed": seed, "trace": int(trace),
              "environment": environment(), "attempted": attempted, "failed": failed,
              "failures": failures[:5],
              "metrics": {"setup_s": {"value": setup_s, "unit": "s",
                                      "raw_samples": setups, "kernel_s": setup_kernel},
                          "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
                          "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
                          **workload.report(ops)}}

    if trace:
        layer = dict.fromkeys(PER_LAYER, 0.0)
        layer.update(spans.layer_metrics(tracer.spans, len(traced_ops)))
        layer.update(workload.layer_metrics(traced_ops))
        if untraced_s:
            layer["trace.overhead_ms"] = 1e3 * (statistics.median(traced_s)
                                                - statistics.median(untraced_s))
        if set(layer) != set(PER_LAYER):
            raise RuntimeError(f"undeclared layer metrics {sorted(set(layer) - set(PER_LAYER))}")
        metrics = {name: {"value": float(layer[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        report["traced_ops"] = len(traced_ops)
        tracer.write(OUT / f"spans-{workload_name}.jsonl")
    else:
        report["metrics"]["op_ms_p50"] = {"value": 1e3 * statistics.median(untraced_s),
                                          "unit": "ms", "samples": len(untraced_s)}
        report["op_ms"] = [round(1e3 * t, 3) for t in untraced_s]
        report["calibration_ms_mean"] = 1e3 * statistics.fmean(cal_s)
        values = {"setup_s": setup_s,
                  "op_cal_ratio_p50": statistics.median(untraced_s) / statistics.fmean(cal_s),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    (OUT / f"report-{workload_name}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def smoke() -> int:
    """Run each workload briefly in both modes; check every metric is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if declared["0"] != END_TO_END or declared["1"] != PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py")
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            r = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--workload", w["name"], "--seed", "7", "--seconds", "1",
                                "--trace", trace], capture_output=True, text=True, timeout=300)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or len(lines) < 2:
                problems.append(f"{w['name']} trace={trace}: exit {r.returncode} {r.stderr[-300:]}")
                continue
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{w['name']} trace={trace}: metrics {sorted(set(got) ^ set(declared[trace]))}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad or not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']} non-numeric={bad} {report['failures']}")
            print(f"== {w['name']} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in {**report["metrics"], **result["metrics"]}.items():
                extra = f" (p{m['percentile']} of {m['samples']})" if m.get("percentile") else ""
                print(f"  {name:44s} {m['value']!s:>24} {m['unit']}{extra}")
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("armwing_wingbeat", "fourbar_synthesis", "armwing_statics"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test: every workload, both modes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        sys.path.insert(0, str(SRC))
        print(timed_set_up()[1])
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
