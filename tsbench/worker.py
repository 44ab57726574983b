"""Closed-loop workload process: one client, one op at a time, no threads.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) names the source tree, the run length, whether
to trace, and one pass of ops.  Each op is one or more argv lists passed to
``tonalspace.cli.main`` in-process.  Passes (rounds) repeat until the run
length is used up; the run ends only at a pass boundary, so every op has
as many samples as the others.  Every op's output is checked against the
reference outside the timed region.  Between ops, at most every
CALIBRATE_EVERY_S, the process times the calibration workload
(calibrate.py); run.py scales each op time by the calibrations just before
and just after it.  With tracing on, each op runs twice,
untraced and traced in alternating order, and the trace-overhead ratio
compares the two.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import refcheck
import spans
from calibrate import calibration_s

CALIBRATE_EVERY_S = 0.25


def check(op: dict, stdout: str) -> list[str]:
    """Compare one op's outputs with its reference."""
    spec = op["check"]
    if spec["kind"] == "key":
        return refcheck.check_key_line(stdout, spec["want"])
    ref = dict(np.load(spec["ref"]))
    if spec["kind"] == "analyze-csv":
        text = Path(spec["report"]).read_text(encoding="utf-8")
        return refcheck.check_analyze(refcheck.parse_csv_report(text), ref)
    chroma_text = Path(spec["chroma"]).read_text(encoding="utf-8")
    problems = refcheck.check_chroma_json(chroma_text, ref["frames"], spec["frame_rate"])
    if problems:
        return problems
    extracted = np.asarray(json.loads(chroma_text)["frames"], dtype=float)
    want = refcheck.analyze_reference(extracted, "temperley", refcheck.HARTE)
    text = Path(spec["report"]).read_text(encoding="utf-8")
    return refcheck.check_analyze(refcheck.parse_json_report(text), want)


def out_bytes(op: dict, stdout: str) -> int:
    outs = [argv[argv.index("--out") + 1] for argv in op["steps"] if "--out" in argv]
    return len(stdout.encode()) + sum(Path(p).stat().st_size for p in outs)


class Runner:
    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        if tracer is not None:
            self.plain = {attr: getattr(cli, attr) for attr in spans.WRAPPED if hasattr(cli, attr)}
            self.traced = tracer.wrappers(cli)
            self.traced_main = tracer.wrap(spans.ROOT, cli.main)

    def run(self, op: dict, traced: bool = False) -> float:
        """Run and check one op; returns its latency in seconds."""
        main = self.cli.main
        if traced:
            for attr, fn in self.traced.items():
                setattr(self.cli, attr, fn)
            self.tracer.begin_op(self.attempted)
            main = self.traced_main
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                for argv in op["steps"]:
                    code = main(argv)
                    if code != 0:
                        error = f"exit {code}"
                        break
        except Exception as exc:  # an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if traced:
            self.tracer.end_op()
            for attr, fn in self.plain.items():
                setattr(self.cli, attr, fn)
            if error and error.startswith("exit"):
                self.tracer.counters["cli.errors"] += 1
        self.attempted += 1
        text = stdout.getvalue()
        if error is None:
            try:
                problems = check(op, text)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
            if traced and error is None:
                self.tracer.counters["cli.out_bytes"] += out_bytes(op, text)
        if error is not None:
            self.failed += 1
            if self.first_failure is None:
                detail = stderr.getvalue().strip()
                self.first_failure = f"{op['steps']}: {error} {detail}".strip()
        return elapsed


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import tonalspace.cli as cli
    from tonalspace.errors import TonalSpaceError

    ops = plan["ops"]
    tracer = spans.Tracer(TonalSpaceError) if plan["trace"] else None
    runner = Runner(cli, tracer)
    runner.run(ops[0])  # warm-up: first-call costs are set-up, not op time
    runner.attempted = runner.failed = 0

    latencies = [[] for _ in ops]
    traced_latencies = [[] for _ in ops]
    calibrations = []
    calibrated = [[] for _ in ops]  # per sample, the calibration just before it
    deadline = perf_counter() + plan["seconds"]
    calibrate_at = 0.0
    rounds = 0
    while True:
        for i, (op, plain, traced) in enumerate(zip(ops, latencies, traced_latencies)):
            if perf_counter() >= calibrate_at:
                calibrations.append(calibration_s())
                calibrate_at = perf_counter() + CALIBRATE_EVERY_S
            calibrated[i].append(len(calibrations) - 1)
            if tracer is None:
                plain.append(runner.run(op))
            else:
                traced_first = (rounds + i) % 2 == 1
                if traced_first:
                    traced.append(runner.run(op, traced=True))
                plain.append(runner.run(op))
                if not traced_first:
                    traced.append(runner.run(op, traced=True))
        rounds += 1
        if perf_counter() >= deadline:
            break
    calibrations.append(calibration_s())  # every sample has one after it

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "first_failure": runner.first_failure,
        "latencies_s": latencies,
        "calibration_s": calibrations,
        "calibration_index": calibrated,
        "frames": [op["frames"] for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = [dataclasses.astuple(span) for span in tracer.spans]
        result["counters"] = tracer.counters
        result["traced_latencies_s"] = traced_latencies
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
