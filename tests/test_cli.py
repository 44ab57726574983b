"""Tests for the batch CLI: subcommands, schemas, exit codes, determinism."""

import argparse
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import tonalspace
from tonalspace import (
    DEFAULT_WEIGHTS,
    build_profile_set,
    chromaticity,
    combine,
    diatonicity,
    dissonance,
    estimate_key,
    euclid,
    global_chroma,
    harmonic_change,
    load_chroma_csv,
    load_chroma_json,
    tiv_from_chroma,
    wholetoneness,
)
from tonalspace import cli, core
from tonalspace.cli import ANALYZE_COLUMNS, main
from tonalspace.errors import ChromaError
from tonalspace.key import load_profile_file

from helpers import MINOR_COLLECTION, WHOLE_TONE, binary_chroma, pcm16_wav_bytes

sys.path.append(str(Path(__file__).resolve().parents[1]))
from tsbench import spans  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden"
HUGE = ",".join(["1e308"] * 6)  # 4 * sum(w**2) overflows: refused
NEAR = ",".join(["2.7e153"] * 6)  # just under that bound: accepted
TEMPERLEY_MAJOR = [5.0, 2.0, 3.5, 2.0, 4.5, 4.0, 2.0, 4.5, 2.0, 3.5, 1.5, 4.0]


def write_chroma_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def synthetic_csv(tmp_path):
    """30 whole-tone frames followed by 30 natural-minor-collection frames."""
    path = tmp_path / "seq.csv"
    write_chroma_csv(path, [WHOLE_TONE] * 30 + [MINOR_COLLECTION] * 30)
    return path


@pytest.fixture
def one_hot_files(tmp_path):
    paths = {}
    for pc in (0, 4, 6, 7):
        p = tmp_path / f"pc{pc}.csv"
        write_chroma_csv(p, [binary_chroma([pc])])
        paths[pc] = p
    return paths


def fresh_python(code, env=None):
    """Exit code, stdout and stderr of ``python -c code`` in a new interpreter
    that imports this source tree, under ``env`` (default: this process's)."""
    env = dict(os.environ if env is None else env)
    src = str(Path(tonalspace.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    return run.returncode, run.stdout, run.stderr


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_synthetic_transition(self, synthetic_csv, capsys):
        code, report = run_json(
            capsys, ["analyze", str(synthetic_csv), "--out-format", "json"]
        )
        assert code == 0
        frames = report["frames"]
        assert len(frames) == 60
        # whole-tone block pegs wholetoneness at 1, then it drops
        assert frames[0]["wholetoneness"] == pytest.approx(1.0, abs=1e-12)
        assert frames[59]["wholetoneness"] < 0.5
        # diatonicity rises across the transition
        assert frames[0]["diatonicity"] == pytest.approx(0.0, abs=1e-12)
        assert frames[59]["diatonicity"] > 0.4
        # exactly one harmonic-change peak region, at the boundary straddle
        assert report["hchange"]["peaks"] == [29]

    def test_csv_schema(self, synthetic_csv, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["analyze", str(synthetic_csv), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == ",".join(ANALYZE_COLUMNS)
        assert len(data) == 61  # header + 60 rows
        assert any(ln.startswith("# key:") for ln in meta)
        assert any(ln.startswith("# global-tiv:") for ln in meta)
        assert any(ln.startswith("# hchange-peaks: [29]") for ln in meta)
        first = data[1].split(",")
        assert first[0] == "0"
        assert first[1] == ""  # no frame rate in plain CSV input
        assert len(first) == len(ANALYZE_COLUMNS)

    def test_json_mirrors_csv_columns(self, synthetic_csv, capsys):
        code, report = run_json(
            capsys, ["analyze", str(synthetic_csv), "--out-format", "json"]
        )
        assert code == 0
        row = report["frames"][0]
        assert set(row) == set(ANALYZE_COLUMNS)
        assert set(report) == {"metadata", "global", "hchange", "frames"}
        assert set(report["hchange"]) == {"lambda", "peaks"}
        tiv = report["global"]["tiv"]
        assert len(tiv["coeffs"]) == 6

    def test_single_frame_input(self, one_hot_files, capsys):
        code, report = run_json(
            capsys, ["analyze", str(one_hot_files[0]), "--out-format", "json"]
        )
        assert code == 0
        assert len(report["frames"]) == 1
        assert report["frames"][0]["lambda"] == 0.0
        assert report["hchange"]["peaks"] == []
        # global equals instantaneous for a single frame
        assert report["global"]["chromaticity"] == report["frames"][0]["chromaticity"]

    def test_silent_input(self, tmp_path, capsys):
        path = tmp_path / "silent.csv"
        write_chroma_csv(path, [np.zeros(12)] * 4)
        code, report = run_json(
            capsys, ["analyze", str(path), "--out-format", "json"]
        )
        assert code == 0
        assert report["global"]["key"] is None
        assert report["global"]["dissonance"] == 1.0
        for row in report["frames"]:
            assert row["chromaticity"] == 0.0
            assert row["dissonance"] == 1.0

    def test_uniform_input_has_no_key(self, tmp_path, capsys):
        path = tmp_path / "uniform.csv"
        write_chroma_csv(path, [np.ones(12)] * 3)
        code, report = run_json(capsys, ["analyze", str(path), "--out-format", "json"])
        assert code == 0
        assert report["global"]["key"] is None

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_json_report_is_the_indent_dump(self, tmp_path, capsys, rng, n, fmt):
        """The report text equals json.dumps(report, indent=2) of a report
        built here from library calls; n < 3 has no harmonic-change peaks."""
        frames = rng.uniform(0, 1, (n, 12))
        path = tmp_path / f"short.{fmt}"
        if fmt == "csv":
            write_chroma_csv(path, frames)
            seq = load_chroma_csv(path)
        else:
            path.write_text(json.dumps({"frame_rate": 10.0, "frames": frames.tolist()}))
            seq = load_chroma_json(path)
        assert main(["analyze", str(path), "--out-format", "json"]) == 0
        out = capsys.readouterr().out

        tivs = tiv_from_chroma(seq.frames)
        qualities = (chromaticity, diatonicity, wholetoneness, dissonance)
        columns = [q(tivs).tolist() for q in qualities]
        if n >= 3:
            series = harmonic_change(tivs)
            lam, peaks = series.values.tolist(), series.peaks.tolist()
        else:
            lam, peaks = [0.0] * n, []
        times = [None] * n if fmt == "csv" else (np.arange(n) / 10.0).tolist()
        g_tiv = tiv_from_chroma(global_chroma(seq))
        report = {
            "metadata": {
                "command": "analyze",
                "input": str(path),
                "input_format": fmt,
                "frames": n,
                "frame_rate": seq.frame_rate,
                "window_avg": 1,
                "weights": list(DEFAULT_WEIGHTS),
                "profile": "temperley",
                "alpha": 0.2,
                "threshold": "adaptive",
                "hchange_coeffs": "all",
            },
            "global": {
                "tiv": g_tiv.to_dict(),
                **{c: q(g_tiv) for c, q in zip(ANALYZE_COLUMNS[2:6], qualities)},
                "key": estimate_key(g_tiv, build_profile_set("temperley")).to_dict(),
            },
            "hchange": {"lambda": lam, "peaks": peaks},
            "frames": [
                dict(zip(ANALYZE_COLUMNS, row))
                for row in zip(range(n), times, *columns, lam)
            ],
        }
        assert out == json.dumps(report, indent=2) + "\n"

    def test_window_avg(self, synthetic_csv, capsys):
        code, report = run_json(
            capsys,
            [
                "analyze",
                str(synthetic_csv),
                "--window-avg",
                "10",
                "--out-format",
                "json",
            ],
        )
        assert code == 0
        assert len(report["frames"]) == 6
        assert report["metadata"]["window_avg"] == 10

    def test_determinism_byte_identical(self, synthetic_csv, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(["analyze", str(synthetic_csv), "--out", str(out1)]) == 0
        assert main(["analyze", str(synthetic_csv), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_csv_exit_1_with_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(["1.0"] * 12) + "\n1.0,2.0\n")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "row 2" in err

    def test_failed_analyze_leaves_out_alone(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(["1.0"] * 12) + "\n1.0,2.0\n")
        out = tmp_path / "report.csv"
        out.write_bytes(b"an earlier report\n")
        assert main(["analyze", str(path), "--out", str(out)]) == 1
        assert out.read_bytes() == b"an earlier report\n"
        assert "row 2" in capsys.readouterr().err

    def test_overflowing_frame_times_exit_1(self, tmp_path, capsys):
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({"frame_rate": 1e-308, "frames": [[1.0] * 12] * 3}))
        out = tmp_path / "report.json"
        out.write_bytes(b"an earlier report\n")
        assert main(["analyze", str(path), "--out-format", "json", "--out", str(out)]) == 1
        assert out.read_bytes() == b"an earlier report\n"
        assert "frame 2 overflows" in capsys.readouterr().err

    def test_overflowing_frame_times_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({"frame_rate": 1e-308, "frames": [[1.0] * 12] * 3}))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"tonalspace: error: {path}: frame_rate 1e-308: the time of frame 2 overflows\n"
        )

    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("suffix", [".csv", ".json"])  # no frame rate, a frame rate
    def test_report_blocks_change_nothing(
        self, tmp_path, capsys, monkeypatch, rng, rows, out_format, suffix
    ):
        frames = rng.uniform(0, 1, (23, 12))
        frames[5] = 0.0
        path = tmp_path / f"in{suffix}"
        if suffix == ".csv":
            write_chroma_csv(path, frames)
        else:
            path.write_text(json.dumps({"frame_rate": 21.5, "frames": frames.tolist()}))
        argv = ["analyze", str(path), "--out-format", out_format]
        assert main(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(core, "_BLOCK_ROWS", rows)
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_analyze_memory_is_bounded(self, tmp_path, rng, synthetic_csv):
        # a whole-text parser and a whole-report renderer, holding the CSV
        # text, every cell as a str and a float and every report line, took ~19x
        frames = rng.uniform(0, 1, (20000, 12))
        path, out = tmp_path / "long.csv", tmp_path / "report.csv"
        write_chroma_csv(path, frames)
        assert main(["analyze", str(synthetic_csv), "--out", str(out)]) == 0  # warm-up
        tracemalloc.start()
        try:
            code = main(["analyze", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 5 * frames.nbytes  # 4.0x measured

    def test_missing_input_exit_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.csv")]) == 1

    def test_unknown_extension_exit_2(self, tmp_path, capsys):
        path = tmp_path / "data.bin"
        path.write_text("x")
        assert main(["analyze", str(path)]) == 2

    def test_bad_weights_exit_2(self, synthetic_csv, capsys):
        assert (
            main(["analyze", str(synthetic_csv), "--weights", "1,2,3"]) == 2
        )
        assert (
            main(["analyze", str(synthetic_csv), "--weights", "1,2,3,4,5,x"]) == 2
        )

    def test_bad_threshold_exit_2(self, synthetic_csv, capsys):
        assert main(["analyze", str(synthetic_csv), "--threshold", "soon"]) == 2

    def test_fixed_threshold_and_harte_coeffs(self, synthetic_csv, capsys):
        code, report = run_json(
            capsys,
            [
                "analyze",
                str(synthetic_csv),
                "--threshold",
                "0.5",
                "--hchange-coeffs",
                "harte",
                "--out-format",
                "json",
            ],
        )
        assert code == 0
        assert report["metadata"]["threshold"] == 0.5
        assert report["metadata"]["hchange_coeffs"] == "harte"
        assert report["hchange"]["peaks"] == [29]

    def test_custom_weights_recorded(self, synthetic_csv, capsys):
        code, report = run_json(
            capsys,
            [
                "analyze",
                str(synthetic_csv),
                "--weights",
                "1,2,3,4,5,6",
                "--out-format",
                "json",
            ],
        )
        assert code == 0
        assert report["metadata"]["weights"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


class TestKey:
    def test_temperley_self_match(self, tmp_path, capsys):
        path = tmp_path / "prof.csv"
        write_chroma_csv(path, [TEMPERLEY_MAJOR])
        assert main(["key", str(path)]) == 0
        assert capsys.readouterr().out == "0 C major\n"

    def test_rotated_profile(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        write_chroma_csv(path, [np.roll(TEMPERLEY_MAJOR, 7)])
        assert main(["key", str(path)]) == 0
        assert capsys.readouterr().out == "7 G major\n"

    def test_shaath_profile_flag(self, tmp_path, capsys):
        path = tmp_path / "prof.csv"
        write_chroma_csv(path, [TEMPERLEY_MAJOR])
        assert main(["key", str(path), "--profile", "shaath"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("major\n")

    def test_invalid_profile_exit_2(self, tmp_path, capsys):
        path = tmp_path / "prof.csv"
        write_chroma_csv(path, [TEMPERLEY_MAJOR])
        assert main(["key", str(path), "--profile", "bogus"]) == 2

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf", "1e400"])
    def test_alpha_must_be_positive_finite_exit_2(self, tmp_path, capsys, alpha):
        path = tmp_path / "prof.csv"
        write_chroma_csv(path, [TEMPERLEY_MAJOR])
        assert main(["key", str(path), f"--alpha={alpha}"]) == 2
        err = capsys.readouterr().err
        assert err == "tonalspace: error: --alpha must be a positive finite number\n"

    def test_custom_profile_is_unknown_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TONALSPACE_PROFILE_DIR", raising=False)
        path = tmp_path / "prof.csv"
        write_chroma_csv(path, [TEMPERLEY_MAJOR])
        assert main(["key", str(path), "--profile", "custom", "--alpha", "0.5"]) == 2
        assert capsys.readouterr().err == (
            "tonalspace: error: unknown profile 'custom'; use one of temperley, "
            "shaath or provide custom.json in $TONALSPACE_PROFILE_DIR\n"
        )

    def test_a_profile_name_stays_inside_the_override_directory(self, tmp_path, capsys,
                                                                monkeypatch):
        """Only a bare name is looked up in $TONALSPACE_PROFILE_DIR; a name with a
        directory part is unknown unless bundled, however the file it names exists."""
        data = {"name": "house", "major": TEMPERLEY_MAJOR, "minor": [1.0] * 12, "alpha": 1}
        for folder in ("dir", "other"):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "house.json").write_text(json.dumps(data))
        monkeypatch.setenv("TONALSPACE_PROFILE_DIR", str(tmp_path / "dir"))
        path = tmp_path / "prof.csv"
        write_chroma_csv(path, [TEMPERLEY_MAJOR])
        for name in (str(tmp_path / "other" / "house"), "../other/house"):
            assert main(["key", str(path), "--profile", name]) == 2
            assert capsys.readouterr().err == (
                f"tonalspace: error: unknown profile {name!r}; use one of temperley, "
                f"shaath or provide {name}.json in $TONALSPACE_PROFILE_DIR\n"
            )
        for name in ("house", "temperley", "shaath"):
            assert main(["key", str(path), "--profile", name]) == 0
        assert capsys.readouterr().out == "0 C major\n" * 3

    def test_overflowing_sum_exit_1_without_warning(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        write_chroma_csv(path, [np.full(12, 1e308)])
        assert main(["key", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("tonalspace: error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        ["5", '{"name": "h", "major": %s, "minor": %s, "alpha": 1%s}' % (
            [1.0] * 12, [1.0] * 12, "0" * 400)],
        ids=["scalar", "huge-alpha"],
    )
    def test_malformed_profile_file_exit_1(self, tmp_path, capsys, monkeypatch, text):
        (tmp_path / "house.json").write_text(text)
        monkeypatch.setenv("TONALSPACE_PROFILE_DIR", str(tmp_path))
        path = tmp_path / "prof.csv"
        write_chroma_csv(path, [TEMPERLEY_MAJOR])
        assert main(["key", str(path), "--profile", "house"]) == 1
        assert "profile file" in capsys.readouterr().err

    def test_rewritten_profile_file_between_calls(self, tmp_path, capsys, monkeypatch):
        """The profile file is read on every call: an edit in the override
        directory changes the next in-process result, and a malformed
        rewrite is refused."""
        monkeypatch.setenv("TONALSPACE_PROFILE_DIR", str(tmp_path))
        path = tmp_path / "prof.csv"
        write_chroma_csv(path, [TEMPERLEY_MAJOR])
        house = tmp_path / "house.json"
        data = {"name": "house", "major": TEMPERLEY_MAJOR, "minor": [1.0] * 12, "alpha": 1}
        argv = ["key", str(path), "--profile", "house"]
        house.write_text(json.dumps(data))
        assert main(argv) == 0
        house.write_text(json.dumps({**data, "major": np.roll(TEMPERLEY_MAJOR, 7).tolist()}))
        assert main(argv) == 0
        assert capsys.readouterr().out == "0 C major\n5 F major\n"
        for text in ("5", json.dumps({**data, "major": [True] * 12})):
            house.write_text(text)
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("tonalspace: error: profile file ")

    def test_many_inputs_in_input_order(self, tmp_path, capsys):
        paths = []
        for shift in (7, 0, 2):
            paths.append(str(tmp_path / f"k{shift}.csv"))
            write_chroma_csv(paths[-1], [np.roll(TEMPERLEY_MAJOR, shift)])
        assert main(["key", *paths]) == 0
        assert capsys.readouterr().out == (
            f"{paths[0]}\t7 G major\n{paths[1]}\t0 C major\n{paths[2]}\t2 D major\n"
        )

    def test_many_inputs_one_bad_file_exit_1(self, tmp_path, capsys):
        good, silent = tmp_path / "good.csv", tmp_path / "silent.csv"
        missing = tmp_path / "missing.csv"
        write_chroma_csv(good, [TEMPERLEY_MAJOR])
        write_chroma_csv(silent, [np.zeros(12)])
        assert main(["key", str(silent), str(good), str(missing), str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"{good}\t0 C major\n" * 2
        err = captured.err.splitlines()
        assert len(err) == 2
        assert err[0] == f"tonalspace: error: {silent}: cannot estimate a key for silence"
        assert err[1].startswith(f"tonalspace: error: {missing}: ")

    def test_many_inputs_unknown_format_exit_2(self, tmp_path, capsys):
        good, unknown = tmp_path / "good.csv", tmp_path / "data.bin"
        write_chroma_csv(good, [TEMPERLEY_MAJOR])
        unknown.write_text("x")
        assert main(["key", str(good), str(unknown)]) == 2
        captured = capsys.readouterr()
        assert captured.out == f"{good}\t0 C major\n"
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"tonalspace: error: {unknown}: ")

    def test_many_inputs_unknown_profile_exit_2_before_reading(self, tmp_path, capsys):
        missing = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        assert main(["key", *missing, "--profile", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tonalspace: error: unknown profile 'bogus'")
        assert captured.err.count("\n") == 1

    def test_silent_input_exit_1(self, tmp_path, capsys):
        path = tmp_path / "silent.csv"
        write_chroma_csv(path, [np.zeros(12)])
        assert main(["key", str(path)]) == 1
        assert "silence" in capsys.readouterr().err

    def test_uniform_input_exit_1(self, tmp_path, capsys):
        path = tmp_path / "uniform.csv"
        write_chroma_csv(path, [np.ones(12)])
        assert main(["key", str(path)]) == 1
        assert "zero-norm" in capsys.readouterr().err

    def test_mean_rounded_to_uniform_has_no_key(self, tmp_path, capsys):
        # the frames differ, but their mean rounds to a uniform chroma
        path = tmp_path / "subnormal.csv"
        write_chroma_csv(path, [[5e-324] * 12, [0.0] + [5e-324] * 11])
        assert main(["key", str(path)]) == 1
        assert "zero-norm" in capsys.readouterr().err
        code, report = run_json(capsys, ["analyze", str(path), "--out-format", "json"])
        assert code == 0
        assert report["global"]["key"] is None

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_non_utf8_input_exit_1(self, tmp_path, capsys, suffix):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(b"\xff\xfe0.1,0.2\n")
        assert main(["key", str(path)]) == 1
        assert "can't decode" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("original", "copy", "fmt", "key"),
    [(GOLDEN.parent / "fixture.csv", "f.txt", "csv", "12 C minor"),
     (GOLDEN / "clip.json", "c.dat", "json", "21 A minor"),
     (GOLDEN / "tone.wav", "t.bin", "wav", "16 E minor")],
)
def test_format_reads_a_file_whatever_its_extension(tmp_path, capsys, original, copy, fmt, key):
    # a copy under a name with no known extension reads as the original under --format
    copy = tmp_path / copy
    copy.write_bytes(original.read_bytes())
    outputs = []
    for argv in ([str(original)], [str(copy), "--format", fmt]):
        for command in ("key", "analyze"):
            assert main([command, *argv]) == 0
            # the analyze head names its input; nothing else may differ
            lines = capsys.readouterr().out.splitlines()
            outputs.append([line for line in lines if not line.startswith("# input: ")])
    assert outputs[:2] == outputs[2:]
    assert outputs[0] == [key] and len(outputs[1]) > 1


class TestCombine:
    def test_with_itself_doubles_energy(self, one_hot_files, capsys):
        path = str(one_hot_files[0])
        code, data = run_json(capsys, ["combine", path, path])
        assert code == 0
        assert data["energy"] == 2.0
        single = tiv_from_chroma(binary_chroma([0]))
        got = np.array([complex(re, im) for re, im in data["coeffs"]])
        assert np.allclose(got, single.coeffs, atol=1e-12)

    def test_triad_from_one_hots(self, one_hot_files, capsys):
        code, data = run_json(
            capsys,
            [
                "combine",
                str(one_hot_files[0]),
                str(one_hot_files[4]),
                str(one_hot_files[7]),
            ],
        )
        assert code == 0
        want = tiv_from_chroma(binary_chroma([0, 4, 7]))
        got = np.array([complex(re, im) for re, im in data["coeffs"]])
        assert np.allclose(got, want.coeffs, atol=1e-12)
        assert data["energy"] == 3.0

    def test_single_input_passthrough(self, one_hot_files, capsys):
        code, data = run_json(capsys, ["combine", str(one_hot_files[0])])
        assert code == 0
        assert data["energy"] == 1.0

    def test_zero_inputs_usage_error(self, capsys):
        assert main(["combine"]) == 2

    def test_out_file(self, one_hot_files, tmp_path, capsys):
        out = tmp_path / "mix.json"
        path = str(one_hot_files[0])
        assert main(["combine", path, path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["energy"] == 2.0


class TestDistance:
    def test_identical_euclid_zero(self, one_hot_files, capsys):
        assert (
            main(["distance", str(one_hot_files[0]), str(one_hot_files[0])]) == 0
        )
        assert float(capsys.readouterr().out) == 0.0

    def test_identical_cosine_zero(self, one_hot_files, capsys):
        code = main(
            [
                "distance",
                str(one_hot_files[0]),
                str(one_hot_files[0]),
                "--metric",
                "cosine",
            ]
        )
        assert code == 0
        assert abs(float(capsys.readouterr().out)) < 1e-12

    def test_tritone_cosine_similarity_closed_form(self, one_hot_files, capsys):
        code = main(
            [
                "distance",
                str(one_hot_files[0]),
                str(one_hot_files[6]),
                "--metric",
                "cosine-sim",
            ]
        )
        assert code == 0
        w = np.array([3.0, 8.0, 11.5, 15.0, 14.5, 7.5])
        closed = float(np.sum(w**2 * np.cos(np.pi * np.arange(1, 7))) / np.sum(w**2))
        assert float(capsys.readouterr().out) == pytest.approx(closed, abs=1e-12)

    def test_euclid_matches_library(self, one_hot_files, capsys):
        code = main(["distance", str(one_hot_files[0]), str(one_hot_files[4])])
        assert code == 0
        want = euclid(
            tiv_from_chroma(binary_chroma([0])), tiv_from_chroma(binary_chroma([4]))
        )
        assert float(capsys.readouterr().out) == pytest.approx(want, abs=1e-12)

    def test_missing_operand_usage_error(self, one_hot_files, capsys):
        assert main(["distance", str(one_hot_files[0])]) == 2


class TestExtractChroma:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_does_not_depend_on_the_blas_kernel(self, fmt):
        # the fold sums in numpy's order, not a matmul's: forcing another OpenBLAS
        # kernel changes no digit (a BLAS that ignores the variable passes trivially)
        argv = ["extract-chroma", str(GOLDEN / "tone.wav"), "--out-format", fmt]
        code = f"from tonalspace.cli import main; raise SystemExit(main({argv!r}))"
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        default = fresh_python(code, env)[:2]
        assert default[0] == 0 and default[1]
        # exit code and stdout only: a BLAS that does not know the core type may
        # warn on stderr while computing the same bytes
        assert fresh_python(code, {**env, "OPENBLAS_CORETYPE": "Haswell"})[:2] == default

    @pytest.fixture
    def wav_440(self, tmp_path):
        sr = 22050
        t = np.arange(sr) / sr
        sig = (0.5 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32)
        path = tmp_path / "a440.wav"
        wavfile.write(path, sr, sig)
        return path

    def test_csv_output_loads_back(self, wav_440, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["extract-chroma", str(wav_440), "--out", str(out)]) == 0
        from tonalspace import load_chroma_csv

        seq = load_chroma_csv(out)
        share = seq.frames[:, 9] / seq.frames.sum(axis=1)
        assert np.all(share >= 0.8)

    def test_json_output_keeps_frame_rate(self, wav_440, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(
            [
                "extract-chroma",
                str(wav_440),
                "--out",
                str(out),
                "--out-format",
                "json",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["frame_rate"] == 22050 / 1024

    def test_end_to_end_smoke(self, wav_440, tmp_path, capsys):
        chroma_path = tmp_path / "c.json"
        report_path = tmp_path / "r.json"
        assert (
            main(
                [
                    "extract-chroma",
                    str(wav_440),
                    "--out",
                    str(chroma_path),
                    "--out-format",
                    "json",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "analyze",
                    str(chroma_path),
                    "--out",
                    str(report_path),
                    "--out-format",
                    "json",
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["metadata"]["frame_rate"] == 22050 / 1024
        assert report["frames"][0]["time"] == 0.0

    def test_direct_wav_analyze(self, wav_440, capsys):
        assert main(["analyze", str(wav_440), "--window-size", "2048"]) == 0

    def test_bad_window_size_exit_1(self, wav_440, capsys):
        assert main(["extract-chroma", str(wav_440), "--window-size", "1000"]) == 1

    def test_missing_wav_exit_1(self, tmp_path, capsys):
        assert main(["extract-chroma", str(tmp_path / "absent.wav")]) == 1


# One row per edge of the degenerate-input policy (see ``errors.py``): each
# run exits with its code, writes nothing or one error line to stderr, and
# (under the suite's filterwarnings = error) lets no numpy warning escape.
EDGE_ROWS = [
    ("extract-chroma {tone} --a4 1e-320", 1),
    ("extract-chroma {tone} --a4 1e308", 0),
    ("extract-chroma {tone} --fmin 1e-320", 0),
    ("extract-chroma {tone} --window-size 0", 1),
    ("extract-chroma {tone} --hop-size 0", 1),
    ("analyze {song} --weights " + HUGE, 2),
    ("analyze {song} --weights " + NEAR, 0),
    ("analyze {song} --out-format json --weights " + NEAR, 0),
    ("analyze {song} --alpha 1e-320", 0),
    ("analyze {song} --threshold 1e400", 2),
    ("analyze {song} --window-avg 0", 2),
    ("analyze {song} --window-avg 1000000000000", 0),
    ("key {song} --alpha 1e308", 0),
    ("distance {song} {clip} --metric cosine --weights " + NEAR, 0),
    ("combine {song} {clip} --weights " + HUGE, 2),
    ("analyze {rate0}", 1),
    ("extract-chroma {inf}", 1),
    ("extract-chroma {nan}", 1),
    ("extract-chroma {e200}", 1),
    ("extract-chroma {f32max}", 0),
    ("analyze {inf}", 1),
    ("analyze {nan}", 1),
    ("analyze {e200}", 1),
    ("analyze {f32max}", 0),
    ("extract-chroma {bext}", 0),
    ("extract-chroma {short}", 0),
    ("extract-chroma {channels0}", 1),
    ("extract-chroma {align0}", 1),
    ("extract-chroma {riff}", 1),
    ("key {channels0}", 1),
    ("analyze {bext}", 0),
    ("extract-chroma {stereo}", 1),
    ("analyze {stereo}", 1),
]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("command, code", EDGE_ROWS, ids=[row[0] for row in EDGE_ROWS])
def test_edge_inputs_follow_the_policy(tmp_path, capsys, command, code):
    rate0 = tmp_path / "rate0.wav"
    rate0.write_bytes(pcm16_wav_bytes(0, np.zeros(8192)))
    files = {"song": GOLDEN / "song.csv", "clip": GOLDEN / "clip.json", "tone": GOLDEN / "tone.wav"}
    one = np.arange(8192) == 100
    floats = {"inf": np.where(one, np.inf, 0.0), "nan": np.where(one, np.nan, 0.0),
              "e200": np.full(8192, 1e200), "f32max": np.full(8192, 3e38, dtype=np.float32)}
    for name, samples in floats.items():
        files[name] = tmp_path / f"{name}.wav"
        wavfile.write(files[name], 22050, samples)
    files["stereo"] = tmp_path / "stereo.wav"  # a float64 channel mean that overflows
    wavfile.write(files["stereo"], 22050, np.full((8192, 2), 1.7e308))
    # an unknown chunk before the data, a data chunk cut short, a header of 0
    # channels, one of 0 block align (and so 0 bytes a second), and a file of only
    # its first four bytes
    tone = pcm16_wav_bytes(22050, 8000 * np.sin(np.arange(8192) / 8))
    chunk = b"bext" + struct.pack("<I", 4) + bytes(4)
    riff = struct.pack("<I", len(tone) + len(chunk) - 8)
    wavs = {"bext": tone[:4] + riff + tone[8:36] + chunk + tone[36:], "short": tone[:-1001],
            "channels0": tone[:22] + bytes(2) + tone[24:],
            "align0": tone[:28] + bytes(6) + tone[34:], "riff": b"RIFF"}
    for name, data in wavs.items():
        files[name] = tmp_path / f"{name}.wav"
        files[name].write_bytes(data)
    argv = [part.format(rate0=rate0, **files) for part in command.split()]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("tonalspace: error: ") and err.count("\n") == 1, err
    if "--out-format json" in command:
        json.loads(out, parse_constant=_reject_constant)


# One table of unreadable input files: (id, file bytes or None for no file,
# {loader: message}); each message is formatted with the loader's ``what`` and the path.
READ_FAILS = "cannot read {what} {path}: "
ALL_LOADERS = ("csv", "json", "profile")
UNREADABLE_ROWS = [
    ("missing", None,
     dict.fromkeys(ALL_LOADERS, READ_FAILS + "[Errno 2] No such file or directory: {path!r}")),
    ("bad-utf-8", b'{"a":\n \xff}', dict.fromkeys(
        ALL_LOADERS, READ_FAILS + "'utf-8' codec can't decode byte 0xff in position 7: "
        "invalid start byte")),
    ("malformed-json", b'{"frames": [1,]}', dict.fromkeys(
        ("json", "profile"), READ_FAILS + "Expecting value: line 1 column 15 (char 14)")),
    ("non-object", b"[1]",
     dict.fromkeys(("json", "profile"), "{what} {path} must hold a JSON object")),
    ("missing-field", b'{"name": "x"}', {"json": "{what} {path} is missing field 'frames'",
                                         "profile": "{what} {path} is missing field 'major'"}),
]
LOADERS = {
    "csv": ("chroma CSV", load_chroma_csv, "c.csv"),
    "json": ("chroma JSON", load_chroma_json, "c.json"),
    "profile": ("profile file", load_profile_file, "house.json"),
}


@pytest.mark.parametrize(
    "data, kind, template",
    [(data, kind, message) for _, data, messages in UNREADABLE_ROWS
     for kind, message in messages.items()],
    ids=[f"{row}-{kind}" for row, _, messages in UNREADABLE_ROWS for kind in messages],
)
def test_unreadable_input_files(tmp_path, capsys, monkeypatch, data, kind, template):
    """Every loader refuses an unreadable file in one wording, and main prints
    it as one error line with exit code 1."""
    what, load, name = LOADERS[kind]
    path = str(tmp_path / name)
    if data is not None:
        Path(path).write_bytes(data)
    message = template.format(what=what, path=path)
    with pytest.raises(ChromaError) as info:
        load(path)
    assert str(info.value) == message
    argv = ["analyze", path]
    if kind == "profile":
        monkeypatch.setenv("TONALSPACE_PROFILE_DIR", str(tmp_path))
        argv = ["key", str(GOLDEN / "clip.json"), "--profile", "house"]
        if data is None:  # a profile name with no file is unknown: a usage error
            assert main(argv) == 2
            assert "unknown profile 'house'" in capsys.readouterr().err
            return
    assert main(argv) == 1
    assert capsys.readouterr().err == f"tonalspace: error: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "combine"])
@pytest.mark.parametrize("weights", [HUGE, "1,2,3,4,5,-6"])
def test_refused_weights_exit_2_naming_the_option(synthetic_csv, capsys, command, weights):
    assert main([command, str(synthetic_csv), "--weights", weights]) == 2
    assert capsys.readouterr().err.startswith("tonalspace: error: --weights: weights ")


SONG = str(GOLDEN / "song.csv")


@pytest.mark.parametrize(
    "argv",
    [
        [str(GOLDEN.parent / "fixture.csv")],
        [str(GOLDEN / "clip.json")],
        [str(GOLDEN / "tone.wav")],
        [SONG],
        [SONG, "--hchange-coeffs", "harte"],
        [SONG, "--threshold", "0.5"],
        [SONG, "--weights", "1,2,3,4,5,6", "--profile", "shaath"],
    ],
    ids=["fixture", "clip", "tone", "song", "song-harte", "song-threshold", "song-shaath"],
)
def test_csv_head_lines_are_the_json_head(capsys, argv):
    """The CSV report's "#" lines are the JSON report's metadata, global and
    peaks fields, in that order, each value as JSON."""
    assert main(["analyze", *argv, "--out-format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["analyze", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = list(report["metadata"].items())
    fields += [(k if k == "key" else f"global-{k}", v) for k, v in report["global"].items()]
    fields.append(("hchange-peaks", report["hchange"]["peaks"]))
    assert lines[: len(fields)] == [f"# {name}: {json.dumps(value)}" for name, value in fields]
    assert lines[len(fields)] == ",".join(ANALYZE_COLUMNS)


class TestTopLevel:
    def test_no_command_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "analyze" in capsys.readouterr().out

    def test_combine_mirrors_library_combine(self, one_hot_files, capsys):
        code, data = run_json(
            capsys, ["combine", str(one_hot_files[0]), str(one_hot_files[4])]
        )
        assert code == 0
        want = combine(
            [
                tiv_from_chroma(binary_chroma([0])),
                tiv_from_chroma(binary_chroma([4])),
            ]
        )
        got = np.array([complex(re, im) for re, im in data["coeffs"]])
        assert np.allclose(got, want.coeffs, atol=1e-15)
        assert data["energy"] == want.energy

    def test_import_does_not_load_scipy(self):
        """No module of scipy is loaded, neither at import nor by reading a WAV:
        the library reads WAV files itself, and scipy is a test dependency only."""
        code = (
            "import os, sys, tonalspace, tonalspace.cli; "
            f"code = tonalspace.cli.main(['extract-chroma', {str(GOLDEN / 'tone.wav')!r}, "
            "'--out', os.devnull]); "
            "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        assert fresh_python(code) == (0, "0 []\n", "")

    def test_import_builds_no_parser(self):
        """The parser is built on the first ``main()`` call, not at import,
        so the start-up of a process that never calls ``main`` does not pay
        for it."""
        code = (
            "import argparse; built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
            "import tonalspace.cli; print(len(built))"
        )
        assert fresh_python(code) == (0, "0\n", "")

    def test_reused_parser_matches_fresh_parsers(self, synthetic_csv, capsys, monkeypatch):
        """In-process ``main()`` calls with changing flags give the outputs
        and exit codes of the same calls each made on a fresh parser."""
        csv = str(synthetic_csv)
        calls = [
            ["key", csv, "--profile", "shaath", "--alpha", "0.9"],
            ["key", csv],
            ["key", "--help"],
            ["key", csv, "--bogus"],
            ["analyze", csv, "--threshold", "0.5", "--hchange-coeffs", "harte"],
            ["analyze", csv],
            ["analyze", csv, "--window-avg", "x"],
            ["combine", csv, csv, "--weights", "1,2,3,4,5,6"],
            ["combine", csv],
            ["distance", csv, csv, "--metric", "cosine"],
            ["distance", csv, csv],
            [],
            ["--help"],
            ["key", csv, "--weights", "1,2,3,4,5,6"],
            ["key", csv],
        ]

        def run_all():
            results = []
            for argv in calls:
                code = main(argv)
                results.append((code, *capsys.readouterr()))
            return results

        reused = run_all()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = run_all()
        assert reused == fresh
        assert [code for code, *_ in reused] == [0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0]

    def test_parser_matches_its_recorded_shape(self):
        """Every parser's actions, in order, with their flags, types,
        defaults, choices, metavars, help and requiredness, as recorded in
        ``tests/data/parser.json``.  The ``--help`` text itself is not
        compared: argparse words and wraps it by Python version and terminal
        width."""
        want = json.loads((Path(__file__).parent / "data" / "parser.json").read_text())
        assert describe_parser(cli.build_parser()) == want


def _describe_actions(parser):
    return [
        {
            "option_strings": action.option_strings,
            "dest": action.dest,
            "nargs": action.nargs,
            "type": getattr(action.type, "__name__", action.type),
            "default": action.default,
            "choices": None if action.choices is None else list(action.choices),
            "metavar": action.metavar,
            "help": action.help,
            "required": action.required,
        }
        for action in parser._actions
    ]


def describe_parser(parser):
    """A JSON-ready record of ``parser`` and each of its subcommands."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {
        "prog": parser.prog,
        "description": parser.description,
        "actions": _describe_actions(parser),
        "commands": [
            {
                "name": name,
                "help": helps[name],
                "prog": sp.prog,
                "description": sp.description,
                "func": sp.get_default("func").__name__,
                "actions": _describe_actions(sp),
            }
            for name, sp in sub.choices.items()
        ],
    }


# tsbench times each stage by wrapping the name tonalspace.cli binds for it, so a
# stage call that leaves cli goes untimed and its time falls into cli.self_s.  A
# change that moves stage calls out of cli edits these sets with the benchmark.
BOUND_IN_CLI = {
    "build_profile_set", "dissonance", "estimate_key", "extract_chroma_wav", "global_chroma",
    "harmonic_change", "load_chroma_csv", "load_chroma_json", "tiv_from_chroma",
    "window_average",
}


def test_cli_binds_the_stage_calls_the_benchmark_times():
    bound = {name for name in spans.WRAPPED if hasattr(cli, name)}
    assert bound == BOUND_IN_CLI
    assert set(spans.WRAPPED) - bound == {"chromaticity", "diatonicity", "wholetoneness"}
