"""Tests for the summary arithmetic of ``tools/bench_record.py``."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "tools"))
import bench_record  # noqa: E402


def fake_run(pair, side, p50, frames_per_s, failed=0):
    metrics = {"op_p50_ms": {"value": p50}, "frames_per_s": {"value": frames_per_s}}
    final = {"metrics": metrics, "failed": failed}
    return {"pair": pair, "workload": "w", "side": side, "final": final}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    runs = [
        fake_run(0, "parent", 2.0, 100.0),
        fake_run(0, "change", 1.0, 90.0),
        fake_run(1, "change", 3.0, 110.0),
        fake_run(1, "parent", 3.0, 100.0, failed=2),
        fake_run(2, "parent", 4.0, 100.0),
        fake_run(2, "change", 0.5, 120.0),
    ]
    better = {"op_p50_ms": "lower", "frames_per_s": "higher"}
    summary = bench_record.summarise(runs, better)["w"]
    p50 = summary["op_p50_ms"]
    assert (p50["change_wins"], p50["pairs"]) == (2, 3)
    assert p50["parent"]["values"] == [2.0, 3.0, 4.0]
    assert (p50["parent"]["q1"], p50["parent"]["median"], p50["parent"]["q3"]) == (2.5, 3.0, 3.5)
    assert summary["frames_per_s"]["change_wins"] == 2
    assert summary["failed_ops"] == {"parent": 2, "change": 0}
