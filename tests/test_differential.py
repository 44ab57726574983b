"""CLI-level differential property: ``analyze`` and ``key`` against a reference
that shares no code with tonalspace.

The golden files pin 33 fixed inputs; this property runs the two commands
on random small chroma frames, each written both as CSV and as chroma JSON
(half of the JSON files with a frame rate), and checks their output with
the benchmark's numpy-only checker, ``tsbench/refcheck.py`` (imported
read-only).  The checker computes the global chroma as a plain mean,
which can differ from the library's in the last bits, so inputs whose key
or peak decision is within 1e-9 of a tie are skipped, as are silent and
uniform ones, which have no key.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tonalspace import (
    ChromaSequence,
    build_profile_set,
    estimate_key,
    global_chroma,
    tiv_from_chroma,
)
from tonalspace.cli import main

sys.path.append(str(Path(__file__).resolve().parents[1] / "tsbench"))
import refcheck  # noqa: E402

TIE = 1e-9

frame_arrays = st.integers(1, 12).flatmap(
    lambda n: arrays(np.float64, (n, 12), elements=st.floats(0.0, 10.0))
)


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@given(
    frames=frame_arrays,
    profile=st.sampled_from(sorted(refcheck.PROFILES)),
    coeffs=st.sampled_from(["all", "harte"]),
    out_format=st.sampled_from(["csv", "json"]),
    frame_rate=st.sampled_from([None, 21.5]),
)
@settings(max_examples=60, deadline=None)
def test_analyze_and_key_match_the_reference(frames, profile, coeffs, out_format, frame_rate):
    mean = frames.mean(axis=0)
    assume(mean.max() > mean.min())  # neither silent nor uniform
    g_tiv = tiv_from_chroma(global_chroma(ChromaSequence(frames)))
    distances = np.sort(estimate_key(g_tiv, build_profile_set(profile)).distances)
    assume(distances[1] - distances[0] > TIE)

    ref = refcheck.analyze_reference(
        frames, profile, subset=refcheck.HARTE if coeffs == "harte" else None
    )
    lam = ref["lambda"]
    middle, floor = lam[1:-1], lam.mean() + lam.std()
    gaps = np.concatenate([middle - lam[:-2], middle - lam[2:], middle - floor])
    assume(np.all(np.abs(gaps) > TIE))

    data = {"frames": frames.tolist()}
    if frame_rate is not None:
        data["frame_rate"] = frame_rate
    parse = refcheck.parse_csv_report if out_format == "csv" else refcheck.parse_json_report
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = str(Path(tmp) / "chroma.csv"), str(Path(tmp) / "chroma.json")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in frames.tolist())
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for path in (csv_path, json_path):
            report = run(
                ["analyze", path, "--profile", profile, "--hchange-coeffs", coeffs,
                 "--out-format", out_format]
            )
            key_line = run(["key", path, "--profile", profile])
            assert refcheck.check_analyze(parse(report), ref) == [], path
            assert refcheck.check_key_line(key_line, ref["key"]) == [], path
