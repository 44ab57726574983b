"""Tests for ``tools/bench_record.py``: the summary arithmetic and the recorded runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


PARENT = [8.0, 9.0, 9.0, 10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 12.0]  # median 10, q3 - q1 1.5


def ten_pairs(parent, change, better):
    """The summary of ten pairs of a metric ``m`` better in direction ``better``."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            final = {"metrics": {"m": {"value": value}}, "failed": 0}
            runs.append({"pair": pair, "workload": "w", "side": side, "final": final})
    return bench_record.summarise(runs, {"m": better}, {"m": 0.25})["w"]["m"]


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize(
    ("change", "shown"),
    [
        ([p - 2 for p in PARENT[:9]] + [20.0], True),  # 9 of 10 pairs, median 2 better
        ([p - 2 for p in PARENT[:8]] + [20.0, 20.0], False),  # 8 of 10 pairs
        ([p - 1 for p in PARENT], False),  # 10 of 10, by less than the parent's q3 - q1
    ],
)
def test_a_gain_needs_nine_wins_and_a_median_gap_beyond_the_parents_iqr(change, shown, better):
    if better == "higher":  # mirror both sides, so the change wins the same pairs
        parent, change = [-p for p in PARENT], [-c for c in change]
    else:
        parent = PARENT
    summary = ten_pairs(parent, change, better)
    assert summary["parent"]["q3"] - summary["parent"]["q1"] == 1.5
    assert summary["gain_shown"] is shown


@pytest.mark.parametrize(
    ("better", "scale", "within"),
    [
        ("lower", 1.25, True),  # worse by the bound exactly
        ("lower", 1.3, False),
        ("lower", 0.5, True),
        ("higher", 0.75, True),
        ("higher", 0.7, False),
        ("higher", 2.0, True),
    ],
)
def test_within_bound_allows_the_bound_times_the_parents_median(better, scale, within):
    summary = ten_pairs(PARENT, [scale * p for p in PARENT], better)
    assert summary["within_bound"] is within


def test_a_metric_without_a_bound_is_not_judged():
    runs = [fake_run(0, "parent", 2.0, 100.0), fake_run(0, "change", 1.0, 90.0)]
    summary = bench_record.summarise(runs, {"op_p50_ms": "lower"})["w"]["op_p50_ms"]
    assert summary["within_bound"] is None


def test_main_records_the_pairs_and_one_traced_run_per_side(tmp_path, monkeypatch):
    checkouts = {side: tmp_path / side for side in bench_record.SIDES}
    for path in checkouts.values():
        path.mkdir()
    for side, lines in (("parent", 3), ("change", 2)):  # two modules per side
        package = checkouts[side] / "src" / "tonalspace"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n" * lines)
        (package / "b.py").write_text("y = 2\n")
    spec = {
        "workloads": [{"name": "w"}],
        "run_seconds": 3,
        "end_to_end": [{"name": "op_p50_ms", "better": "lower"}],
    }
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(spec))
    commands = []

    def fake_subprocess_run(cmd, cwd, **kwargs):
        commands.append((Path(cwd).name, cmd[cmd.index("--trace") + 1]))
        fast = Path(cwd).name == "change"
        if cmd[cmd.index("--trace") + 1] == "1":
            metrics = {"cli.main_s": 0.4e-3 if fast else 0.6e-3, "key.profile_s": 1e-5}
        else:
            metrics = {"op_p50_ms": 0.5 if fast else 0.6}
        final = {"failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}
        out = "w speed: calibration median 0.03 s over 9 timings\n" + json.dumps(final) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=out)

    monkeypatch.setattr(bench_record.subprocess, "run", fake_subprocess_run)
    out = tmp_path / "BENCH.json"
    argv = ["bench_record.py", "--parent", str(checkouts["parent"]),
            "--change", str(checkouts["change"]), "--seeds", "7", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_record.main() == 0
    assert json.loads(out.read_text())["writes_bytecode"] is False
    commands.clear()
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_record.main() == 0
    record = json.loads(out.read_text())
    assert record["writes_bytecode"] is True
    assert record["src_lines"] == {"parent": 4, "change": 3}
    assert record["summary"]["w"]["op_p50_ms"]["change_wins"] == bench_record.PAIRS
    # the ten alternating untraced pairs first, then one traced run per side
    assert commands[-2:] == [("parent", "1"), ("change", "1")]
    assert [trace for _, trace in commands[:-2]] == ["0"] * 2 * bench_record.PAIRS
    traced = record["traced"]["w"]
    assert traced["change"]["metrics"] == {"cli.main_s": 0.4e-3, "key.profile_s": 1e-5}
    assert traced["parent"]["calibration_median_s"] == 0.03
