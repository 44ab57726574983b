"""Record alternating parent/change benchmark runs as a ``BENCH_<n>.json`` file.

Run from anywhere, naming two source checkouts that each hold ``tsbench/``:

    python3 tools/bench_record.py --parent PARENT_DIR --change CHANGE_DIR \\
        --seeds 29 --out BENCH_8.json

The workloads and the run length come from the change checkout's
``BENCHMARK.json``.  Each of the ten pairs runs ``tsbench/run.py --trace 0``
once in each checkout for every workload, back to back; even pairs run the
parent first and odd pairs the change, so drift of the shared machine falls
on both sides alike.  Pair i uses seed ``seeds[i % len(seeds)]``.  After the
pairs, one ``--trace 1`` run per side and workload (seed ``seeds[0]``)
gives the per-layer metrics that show where a change moved the time.  The
file holds every run's final JSON line and calibration median, per workload
and end-to-end metric each side's median and quartiles, the number of
pairs the change won (ties count for neither side), ``gain_shown`` (the
change won at least 9 pairs in 10, and its median beats the parent's by
more than the parent's q3 - q1) and ``within_bound`` (the change's median
is worse than the parent's by at most the metric's ``bound`` times the
parent's median; null for a metric without a bound), under ``"traced"`` each
traced run's per-layer metrics and calibration median, the Python and
numpy versions, ``writes_bytecode``: false when ``PYTHONDONTWRITEBYTECODE``
is set, so that a checkout without current ``.pyc`` files compiles the
package again in every run's ``setup_s``, and ``src_lines``: each side's
total lines of ``src/tonalspace/*.py``, the line budget ``wc -l`` reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

CALIBRATION = re.compile(r" speed: calibration median (\S+) s ")
SIDES = ("parent", "change")
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One tsbench run: its final JSON line and calibration median."""
    cmd = [
        sys.executable, "tsbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return {
        "final": json.loads(out.splitlines()[-1]),
        "calibration_median_s": float(CALIBRATION.search(out).group(1)),
    }


def src_lines(checkout: Path) -> int:
    """The total line count of the checkout's ``src/tonalspace/*.py``, as ``wc -l`` counts."""
    return sum(path.read_bytes().count(b"\n") for path in checkout.glob("src/tonalspace/*.py"))


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def traced_runs(checkouts: dict, workloads: list[str], seed: int, seconds: int) -> dict:
    """Workload -> side -> the per-layer metrics of one traced run."""
    traced = {}
    for workload in workloads:
        for side in SIDES:
            run = run_once(checkouts[side], workload, seed, seconds, trace=1)
            metrics = {name: m["value"] for name, m in run["final"]["metrics"].items()}
            traced.setdefault(workload, {})[side] = {
                "metrics": metrics,
                "calibration_median_s": run["calibration_median_s"],
            }
            print(f"traced {workload} {side}: cli.main_s {metrics['cli.main_s']:.4g}", flush=True)
    return traced


def summarise(runs: list[dict], better: dict[str, str], bounds: dict | None = None) -> dict:
    """Per workload and metric: both sides' spread, the change's wins, and
    whether they show a gain and stay within the metric's bound."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["final"]
        rows = {}
        for metric, direction in better.items():
            values = {side: [p[side]["metrics"][metric]["value"] for p in pairs.values()]
                      for side in SIDES}
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            parent, change = (spread(values[side]) for side in SIDES)
            gain = sign * (parent["median"] - change["median"])  # > 0 where the change is better
            bound = (bounds or {}).get(metric)
            rows[metric] = {
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "pairs": len(pairs),
                "gain_shown": bool(10 * wins >= 9 * len(pairs)
                                   and gain > parent["q3"] - parent["q1"]),
                "within_bound": None if bound is None
                                else bool(-gain <= bound * parent["median"]),
            }
        rows["failed_ops"] = {
            side: sum(p[side]["failed"] for p in pairs.values()) for side in SIDES
        }
        summary[workload] = rows
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {
        metric["name"]: metric["bound"] for metric in spec["end_to_end"] if "bound" in metric
    }
    workloads = [workload["name"] for workload in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = []
    for pair in range(PAIRS):
        seed = args.seeds[pair % len(args.seeds)]
        for workload in workloads:
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                run = run_once(checkouts[side], workload, seed, seconds)
                runs.append({"pair": pair, "workload": workload, "side": side,
                             "seed": seed, **run})
                p50 = run["final"]["metrics"]["op_p50_ms"]["value"]
                print(f"pair {pair} {workload} {side}: op_p50_ms {p50:.4g}", flush=True)

    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "src_lines": {side: src_lines(checkouts[side]) for side in SIDES},
        "seconds": seconds,
        "seeds": args.seeds,
        "summary": summarise(runs, better, bounds),
        "traced": traced_runs(checkouts, workloads, args.seeds[0], seconds),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
