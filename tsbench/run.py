"""tonalspace benchmark entry point.

Run from the root of a source checkout:

    python3 tsbench/run.py --workload analyze-csv --seed 1 --seconds 28 --trace 0
    python3 tsbench/run.py --workload all --seed 1 --seconds 28 --trace 1

run.py generates the workload's inputs from the seed into
``.bench_work/`` (outside any timed region), computes the reference
outputs with the tonalspace-free checker, times ``setup_s`` over several
fresh interpreters, and then runs one closed-loop workload process
(worker.py) that calls ``tonalspace.cli.main`` in-process and checks every
op.  Times are scaled to the reference speed of calibrate.py.  It prints
one line per metric with its unit and sample count, and as its last line
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import inputs
import refcheck
import spans
from calibrate import REFERENCE_S, calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 12
WORKER_GRACE_S = 120  # the last pass and the checks may overrun the run length

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def build_plan(workload: str, seed: int, work: Path) -> list[dict]:
    """Generate the inputs and references; returns one pass of ops."""
    files = inputs.generate(workload, seed, work / "inputs")
    ops = []
    if workload == "analyze-csv":
        for i, f in enumerate(files):
            ref = work / f"ref{i:02d}.npz"
            np.savez(ref, **refcheck.analyze_reference(f["frames"]))
            report = str(work / f"report{i:02d}.csv")
            ops.append(
                {
                    "steps": [["analyze", str(f["path"]), "--out", report]],
                    "frames": len(f["frames"]),
                    "check": {"kind": "analyze-csv", "report": report, "ref": str(ref)},
                }
            )
    elif workload == "key-corpus":
        for f in files:
            global_chroma = f["frames"].mean(axis=0)
            for profile in ("temperley", "shaath"):
                ops.append(
                    {
                        "steps": [["key", str(f["path"]), "--profile", profile]],
                        "frames": len(f["frames"]),
                        "check": {
                            "kind": "key",
                            "want": refcheck.key_index(global_chroma, profile),
                        },
                    }
                )
    else:
        for i, f in enumerate(files):
            frames, frame_rate = refcheck.extract_chroma(f["samples"], f["rate"])
            ref = work / f"ref{i}.npz"
            np.savez(ref, frames=frames)
            chroma, report = str(work / f"chroma{i}.json"), str(work / f"report{i}.json")
            extract = ["extract-chroma", str(f["path"]), "--out-format", "json", "--out", chroma]
            analyze = ["analyze", chroma, "--out-format", "json", "--hchange-coeffs", "harte"]
            ops.append(
                {
                    "steps": [extract, analyze + ["--out", report]],
                    "frames": len(frames),
                    "check": {
                        "kind": "wav",
                        "chroma": chroma,
                        "report": report,
                        "ref": str(ref),
                        "frame_rate": frame_rate,
                    },
                }
            )
    return ops


def measure_setup(env: dict, probes: int) -> list[list[float]]:
    """Seconds from spawning a fresh interpreter until ``tonalspace.cli``
    is imported (CLOCK_MONOTONIC is shared by processes), once per probe,
    with the calibration times taken just before and just after it."""
    probe = "import time, tonalspace.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    cmd = [sys.executable, "-c", probe]
    samples = []
    for _ in range(probes):
        before = calibration_s()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60)
        samples.append([float(out.stdout) - start, before, calibration_s()])
    return samples


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the calibration times
    taken just before and just after it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        ops = build_plan(workload, seed, work)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        setup = []
        if not trace:
            measure_setup(env, 1)  # compiles the .pyc files a user's later runs reuse
            # half the probes run before the workload and half after, so
            # they sample the shared machine at two times rather than one
            setup = measure_setup(env, SETUP_PROBES // 2)
        plan = {"src": str(SRC), "seconds": seconds, "trace": trace, "ops": ops}
        plan_path, result_path = work / "plan.json", work / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            # one BLAS thread: each op then runs wholly on the CPU where the
            # worker times the calibration
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            check=True,
            timeout=seconds + WORKER_GRACE_S,
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not trace:
            setup += measure_setup(env, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup"] = setup
    return result


def summarise(workload: str, result: dict, trace: bool) -> dict:
    """Print the metric lines of one workload; returns the JSON metrics.

    An op's latency is the median over the rounds of the run of its times
    scaled to the reference speed of calibrate.py.  The machine is shared,
    and its speed changes by up to 2x within seconds and over minutes; the
    calibration slows with it, so the scaled times of runs made at
    different times agree.
    """
    calibrations = result["calibration_s"]
    n = f"{len(result['latencies_s'])} inputs x {len(result['latencies_s'][0])} rounds"
    if trace:
        traced = result["traced_latencies_s"]
        values = spans.layer_metrics(
            [spans.Span(*row) for row in result["spans"]],
            result["counters"],
            sum(map(len, traced)),
        )
        # one calibration per 0.25 s cannot be paired with the spans inside
        # an op, so the layer times are scaled by the run's median one
        scale = REFERENCE_S / statistics.median(calibrations)
        for name, unit in spans.METRICS.items():
            if unit == "s/op":
                values[name] *= scale
        values["trace.overhead_ratio"] = sum(map(statistics.median, traced)) / sum(
            map(statistics.median, result["latencies_s"])
        )
        units = spans.METRICS
        samples = {name: f"{n} traced" for name in units}
        samples["trace.overhead_ratio"] = f"{n}, traced and untraced"
    else:
        typical = [
            statistics.median(
                scaled(t, calibrations[k], calibrations[k + 1]) for t, k in zip(times, index)
            )
            for times, index in zip(result["latencies_s"], result["calibration_index"])
        ]
        values = {
            "setup_s": statistics.median(scaled(*sample) for sample in result["setup"]),
            "frames_per_s": sum(result["frames"]) / sum(typical),
            "op_p50_ms": 1e3 * statistics.median(typical),
            "op_p90_ms": 1e3 * statistics.quantiles(typical, n=10, method="inclusive")[-1],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
        samples = {name: n for name in units}
        samples["setup_s"] = f"{len(result['setup'])} interpreters"
        samples["peak_rss_mb"] = "1 process"
    print(
        f"{workload:13s} speed: calibration median {statistics.median(calibrations):.4g} s "
        f"over {len(calibrations)} timings, reference {REFERENCE_S} s"
    )
    for name, unit in units.items():
        print(f"{workload:13s} {name:26s} {values[name]:14.6g} {unit:9s} n={samples[name]}")
    ratio = result["failed"] / result["attempted"]
    print(
        f"{workload:13s} {'failed_ops_ratio':26s} {ratio:14.6g} {'ratio':9s} "
        f"n={result['attempted']} ops"
    )
    if trace:
        layer_sum = sum(
            v for k, v in values.items() if k.endswith("_s") and k != "cli.main_s"
        )
        print(
            f"{workload:13s} layer self times + cli.self_s = {layer_sum:.6g} s/op, "
            f"cli.main_s = {values['cli.main_s']:.6g} s/op"
        )
    if result["first_failure"]:
        print(f"{workload:13s} first failure: {result['first_failure']}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "tonalspace" / "cli.py").is_file():
        print(f"tsbench: no tonalspace source tree at {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops and waits for its workload process and
    # removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        values = summarise(workload, result, trace)
        if args.workload == "all":
            values = {f"{workload}.{name}": v for name, v in values.items()}
        metrics.update(values)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
