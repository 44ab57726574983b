"""Golden-output gate: every subcommand's bytes against committed files.

The expected outputs under ``tests/data/golden/out/`` were captured from
the per-frame implementation, before the interval-vector pipeline was
batched, so a refactor that changes any printed digit fails here.  They
are gzip-compressed (the float text is long) and compared byte for byte
after decompression.  Do not rewrite them to make a refactor pass; the only
reasons to recapture them are a deliberate change of output format and a
named change of summation order, which may move only the last digits of floats.
``PYTHONPATH=src python tests/test_golden.py`` writes the file of each case
that has none; where a file exists with other bytes it writes nothing, prints
the case name and exits 1, so a case is recaptured by deleting its file first.

Inputs: ``fixture.csv``, plus ``golden/song.csv`` (2000 seeded frames with
a header row and silent gaps), ``golden/clip.json`` (its first 40 frames
with a frame rate) and ``golden/tone.wav`` (2 s of two chords, 8 kHz
int16).  Every case runs with ``tests/data`` as the working directory, so
the input path recorded in ``analyze`` metadata is stable.
"""

import contextlib
import gzip
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SONG, CLIP, TONE = "golden/song.csv", "golden/clip.json", "golden/tone.wav"

CASES = {
    "analyze-csv-out": ["analyze", "fixture.csv", "--out", "{out}"],
    "analyze-fixture-csv-harte": ["analyze", "fixture.csv", "--hchange-coeffs", "harte"],
    "analyze-fixture-json-all": ["analyze", "fixture.csv", "--out-format", "json"],
    "analyze-fixture-json-harte": [
        "analyze", "fixture.csv", "--out-format", "json", "--hchange-coeffs", "harte",
    ],
    "analyze-fixture-threshold": ["analyze", "fixture.csv", "--threshold", "0.5"],
    "analyze-song-csv-all": ["analyze", SONG],
    "analyze-song-csv-harte": ["analyze", SONG, "--hchange-coeffs", "harte"],
    "analyze-song-json-all": ["analyze", SONG, "--out-format", "json"],
    "analyze-song-json-harte": [
        "analyze", SONG, "--out-format", "json", "--hchange-coeffs", "harte",
    ],
    "analyze-song-window-avg": [
        "analyze", SONG, "--window-avg", "7", "--profile", "shaath",
        "--weights", "1,2,3,4,5,6",
    ],
    "analyze-clip-json": ["analyze", CLIP, "--out-format", "json"],
    "analyze-clip-csv": ["analyze", CLIP],
    "analyze-tone-json": ["analyze", TONE, "--out-format", "json"],
    "key-fixture-temperley": ["key", "fixture.csv"],
    "key-fixture-shaath": ["key", "fixture.csv", "--profile", "shaath"],
    "key-song-temperley": ["key", SONG, "--profile", "temperley"],
    "key-song-shaath": ["key", SONG, "--profile", "shaath"],
    "key-song-alpha": ["key", SONG, "--alpha", "0.9"],
    "key-song-weights": [
        "key", SONG, "--profile", "shaath", "--weights", "1,2,3,4,5,6", "--alpha", "0.9",
    ],
    "key-tone": ["key", TONE],
    "combine-two": ["combine", "fixture.csv", SONG],
    "combine-three-out": ["combine", "fixture.csv", SONG, TONE, "--out", "{out}"],
    "combine-one": ["combine", CLIP],
    "distance-euclid": ["distance", "fixture.csv", SONG, "--metric", "euclid"],
    "distance-cosine": ["distance", "fixture.csv", SONG, "--metric", "cosine"],
    "distance-cosine-sim": ["distance", "fixture.csv", SONG, "--metric", "cosine-sim"],
    "extract-csv": ["extract-chroma", TONE],
    "extract-json": ["extract-chroma", TONE, "--out-format", "json"],
    "extract-json-out": [
        "extract-chroma", TONE, "--out-format", "json", "--hop-size", "512",
        "--out", "{out}",
    ],
    # failures: the exit code and the message are part of the contract
    "error-key-silent": ["key", "golden/silent.csv"],
    "error-bad-row": ["analyze", "golden/bad_row.csv"],
    "error-bad-json": ["analyze", "golden/bad_row.json"],
    "error-unknown-profile": ["key", SONG, "--profile", "nosuch"],
    "error-threshold": ["analyze", SONG, "--threshold", "nan"],
}


def run_case(argv, out_path) -> bytes:
    """Run one CLI case from ``tests/data``; return its recorded bytes:
    the exit code, stdout, stderr and the ``--out`` file when there is one."""
    from tonalspace.cli import main

    argv = [str(out_path) if a == "{out}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    record = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    if "--out" in argv:
        record += "--- out\n" + Path(out_path).read_text(encoding="utf-8")
    return record.encode("utf-8")


def golden_path(name) -> Path:
    return GOLDEN / "out" / f"{name}.txt.gz"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    want = gzip.decompress(golden_path(name).read_bytes())
    got = run_case(CASES[name], tmp_path / "out")
    assert got == want


def test_golden_set_is_small():
    total = sum(p.stat().st_size for p in GOLDEN.rglob("*") if p.is_file())
    assert total < 1_000_000


def _write_inputs():
    """Create the seeded golden inputs (run once; they are committed)."""
    from scipy.io import wavfile

    rng = np.random.default_rng(20201124)
    chords = [[0, 4, 7], [9, 0, 4], [5, 9, 0], [7, 11, 2], [2, 5, 9], [4, 8, 11]]
    frames = []
    while len(frames) < 2000:
        chord = chords[rng.integers(len(chords))]
        base = np.full(12, 0.05)
        base[chord] = 1.0
        length = int(rng.integers(8, 60))
        block = base * rng.uniform(0.5, 1.5, (length, 12))
        block[rng.uniform(size=block.shape) < 0.1] = 0.0
        frames.extend(block)
        if rng.uniform() < 0.15:
            frames.extend(np.zeros((int(rng.integers(1, 6)), 12)))
    frames = np.round(np.array(frames[:2000]), 4)
    lines = ["C,C#,D,D#,E,F,F#,G,G#,A,A#,B"]
    lines += [",".join(f"{v:.4f}" for v in row) for row in frames]
    (GOLDEN / "song.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    clip = ",\n".join("    [" + ", ".join(repr(float(v)) for v in row) + "]" for row in frames[:40])
    (GOLDEN / "clip.json").write_text(
        '{\n  "frame_rate": 10.0,\n  "frames": [\n' + clip + "\n  ]\n}\n", encoding="utf-8"
    )
    (GOLDEN / "silent.csv").write_text("0,0,0,0,0,0,0,0,0,0,0,0\n" * 3, encoding="utf-8")
    (GOLDEN / "bad_row.csv").write_text(
        "1,0,0,0,1,0,0,1,0,0,0,0\n1,0,0,0,1,0,0,1,0,0,0,0\n1,0,0,0,-1,0,0,1,0,0,0,0\n",
        encoding="utf-8",
    )
    (GOLDEN / "bad_row.json").write_text(
        '{"frames": [[1,0,0,0,1,0,0,1,0,0,0,0], [1,0,0,0,1,0,0,1,0,0,0,"x"]]}\n',
        encoding="utf-8",
    )

    sr = 8000
    t = np.arange(sr) / sr
    signal = []
    for chord in ([60, 64, 67], [57, 60, 64]):
        hz = 440.0 * 2.0 ** ((np.array(chord) - 69) / 12)
        signal.append(np.sin(2 * np.pi * hz[:, None] * t).sum(axis=0) / 4)
    samples = np.round(np.concatenate(signal) * 32767).astype(np.int16)
    wavfile.write(GOLDEN / "tone.wav", sr, samples)


if __name__ == "__main__":
    (GOLDEN / "out").mkdir(parents=True, exist_ok=True)
    if not (GOLDEN / "song.csv").exists():
        _write_inputs()
    tmp = GOLDEN / "out" / "tmp.out"
    changed = []
    for case, args in CASES.items():
        got, path = run_case(args, tmp), golden_path(case)
        if not path.exists():
            path.write_bytes(gzip.compress(got, mtime=0))
        elif gzip.decompress(path.read_bytes()) != got:
            changed.append(case)
            print(case)
    tmp.unlink(missing_ok=True)
    sys.exit(1 if changed else 0)
