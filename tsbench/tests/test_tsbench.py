"""Tests of the benchmark itself: generator, checker, trace arithmetic and
the scaling of times to the reference speed.

Run from the repository root with ``python3 -m pytest tsbench/tests -q``.
"""

import json

import numpy as np
import pytest

import inputs
import refcheck
import run
import spans
from calibrate import REFERENCE_S


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    inputs.generate(workload, 7, tmp_path / "a")
    inputs.generate(workload, 7, tmp_path / "b")
    inputs.generate(workload, 8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any(
        (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
        for name in names
    )


def test_every_seed_gets_the_same_file_sizes(tmp_path):
    for seed in (1, 2):
        files = inputs.generate("analyze-csv", seed, tmp_path / str(seed))
        assert [len(f["frames"]) for f in files] == list(inputs.SONG_FRAMES)


@pytest.fixture(scope="module")
def song(tmp_path_factory):
    """A short generated song, its CSV report from tonalspace, its reference."""
    from tonalspace.cli import main

    directory = tmp_path_factory.mktemp("song")
    frames = inputs.song_frames(np.random.default_rng(3), 400)
    inputs.write_csv(directory / "song.csv", frames, header=True)
    for fmt in ("csv", "json"):
        out = directory / f"report.{fmt}"
        assert main(["analyze", str(directory / "song.csv"), "--out-format", fmt, "--out", str(out)]) == 0
    return directory, refcheck.analyze_reference(frames)


def test_checker_accepts_the_programs_reports(song):
    directory, ref = song
    assert len(ref["peaks"]) > 0
    csv_text = (directory / "report.csv").read_text()
    assert refcheck.check_analyze(refcheck.parse_csv_report(csv_text), ref) == []
    json_text = (directory / "report.json").read_text()
    assert refcheck.check_analyze(refcheck.parse_json_report(json_text), ref) == []


def _edit_csv(text, row, column, value):
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("frame,")) + 1
    cells = lines[start + row].split(",")
    cells[column] = value(cells[column])
    lines[start + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _edit_meta(text, name, edit):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"# {name}: "):
            lines[i] = f"# {name}: {json.dumps(edit(json.loads(line.split(': ', 1)[1])))}"
    return "\n".join(lines) + "\n"


def test_checker_rejects_perturbed_reports(song):
    directory, ref = song
    text = (directory / "report.csv").read_text()

    def problems(edited):
        return refcheck.check_analyze(refcheck.parse_csv_report(edited), ref)

    perturbed = _edit_csv(text, 17, 3, lambda v: repr(float(v) + 1e-7))  # diatonicity
    assert problems(perturbed) == ["per-frame diatonicity differs from the reference"]
    dropped = _edit_meta(text, "hchange-peaks", lambda peaks: peaks[1:])
    assert problems(dropped) == ["harmonic-change peaks differ from the reference"]
    wrong_key = _edit_meta(text, "key", lambda key: {**key, "index": (key["index"] + 1) % 24})
    assert len(problems(wrong_key)) == 1 and problems(wrong_key)[0].startswith("key:")


def test_checker_ignores_unknown_fields(song):
    directory, ref = song
    data = json.loads((directory / "report.json").read_text())
    data["global"]["key"]["runner_up"] = {"index": 3}
    data["hchange"]["floor"] = 1.5
    data["frames"][0]["energy"] = 2.0
    assert refcheck.check_analyze(refcheck.parse_json_report(json.dumps(data)), ref) == []
    text = (directory / "report.csv").read_text().replace("# key:", "# silent-frames: 3\n# key:")
    assert refcheck.check_analyze(refcheck.parse_csv_report(text), ref) == []


def test_key_line_check():
    assert refcheck.check_key_line("14 D minor\n", 14) == []
    assert refcheck.check_key_line("14 D minor 2 D major 0.01\n", 14) == []
    assert refcheck.check_key_line("2 D major\n", 14) != []


def test_self_times_add_up_on_a_synthetic_tree():
    tree = [
        spans.Span(0, 0, None, "cli.main", 0.0, 10.0, 10.0),
        spans.Span(0, 1, 0, "chroma.load_csv", 0.5, 3.0, 2.5),
        spans.Span(0, 2, 0, "core.tiv", 3.0, 8.0, 4.0, calls=100),  # aggregated
        spans.Span(0, 3, 0, "key.profile", 8.0, 9.0, 1.0),
        spans.Span(0, 4, 3, "core.tiv", 8.2, 8.8, 0.25, calls=24),  # nested
        spans.Span(1, 5, None, "cli.main", 20.0, 21.0, 1.0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 2.5, 1: 2.5, 2: 4.0, 3: 0.75, 4: 0.25, 5: 1.0}
    assert sum(own.values()) == pytest.approx(11.0)

    metrics = spans.layer_metrics(tree, {"cli.out_bytes": 10}, ops=2)
    assert metrics["cli.main_s"] == 5.5
    assert metrics["cli.self_s"] == 1.75
    assert metrics["core.tiv_s"] == 2.125
    assert metrics["core.tiv_calls"] == 62
    assert metrics["key.profile_s"] == 0.375
    assert metrics["cli.out_bytes"] == 5
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "cli.main_s")
    assert layer_sum == pytest.approx(metrics["cli.main_s"])


def test_tracer_records_spans_and_errors():
    tracer = spans.Tracer(ValueError)

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    frame = tracer.wrap("core.tiv", leaf, aggregate=True)

    def body(xs):
        return [frame(x) for x in xs]

    root = tracer.wrap(spans.ROOT, body)
    tracer.begin_op(0)
    root([1, 2, 3])
    with pytest.raises(ValueError):
        frame(-1)
    tracer.end_op()
    names = [(s.name, s.parent, s.calls) for s in tracer.spans]
    assert names == [("cli.main", None, 1), ("core.tiv", 0, 3), ("core.tiv", None, 1)]
    assert tracer.counters["core.errors"] == 1


def test_times_are_scaled_to_the_reference_speed():
    # each time is scaled by the mean of the calibrations just before and
    # just after it: a calibration twice REFERENCE_S halves the time
    result = {
        "latencies_s": [[0.3, 0.2, 0.2], [0.4, 0.4, 0.9]],
        "calibration_s": [2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S, 2 * REFERENCE_S],
        "calibration_index": [[0, 1, 2], [0, 1, 2]],
        "setup": [[0.8, 4 * REFERENCE_S, 4 * REFERENCE_S], [1.0, REFERENCE_S, REFERENCE_S]],
        "frames": [100, 300],
        "peak_rss_mb": 50.0,
        "attempted": 6,
        "failed": 0,
        "first_failure": None,
    }
    metrics = run.summarise("analyze-csv", result, trace=False)
    # scaled: [0.3 / 2, 0.2 / 3, 0.2 / 3] and [0.4 / 2, 0.4 / 3, 0.9 / 3]
    typical = [0.2 / 3, 0.2]
    assert metrics["op_p50_ms"]["value"] == pytest.approx(1e3 * sum(typical) / 2)
    assert metrics["frames_per_s"]["value"] == pytest.approx(400 / sum(typical))
    assert metrics["setup_s"]["value"] == pytest.approx((0.2 + 1.0) / 2)
    assert metrics["peak_rss_mb"]["value"] == 50.0
