"""Tests for chroma file I/O, aggregation, and the WAV extractor."""

import csv
import io
import json
import os
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.io import wavfile

from tonalspace import (
    ChromaError,
    ChromaSequence,
    DegenerateInputError,
    extract_chroma_wav,
    global_chroma,
    load_chroma_csv,
    load_chroma_json,
    save_chroma_csv,
    save_chroma_json,
    window_average,
)
from tonalspace import chroma, core
from tonalspace.chroma import chroma_csv_text, chroma_json_text

from helpers import pcm16_wav_bytes


def write_csv(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def sine_wav(path, freq, sr=22050, seconds=1.0, dtype=np.float32, stereo=False):
    t = np.arange(int(sr * seconds)) / sr
    sig = 0.5 * np.sin(2 * np.pi * freq * t)
    if dtype == np.int16:
        sig = (sig * 32767).astype(np.int16)
    elif dtype == np.uint8:
        sig = ((sig * 127) + 128).astype(np.uint8)
    else:
        sig = sig.astype(dtype)
    if stereo:
        sig = np.stack([sig, sig], axis=1)
    wavfile.write(path, sr, sig)
    return sr


def noise_wav(path, n_samples, sr, dtype, stereo=False):
    sig = np.random.default_rng(n_samples).uniform(-0.5, 0.5, (n_samples, 2))
    sig = sig if stereo else sig[:, 0]
    if dtype == np.uint8:
        sig = sig * 255 + 128
    elif np.issubdtype(dtype, np.integer):
        sig = sig * np.iinfo(dtype).max
    wavfile.write(path, sr, sig.astype(dtype))


def one_shot_chroma(path, window_size, hop_size, fmax):
    """Reference chroma: one full-size STFT over all frames, band by mask."""
    sample_rate, data = wavfile.read(path)
    samples = chroma._to_float_samples(data, path)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    freqs = np.fft.rfftfreq(window_size, 1.0 / sample_rate)
    band = (freqs >= 55.0) & (freqs <= fmax)
    pitch_classes = (np.round(12.0 * np.log2(freqs[band] / 440.0)).astype(int) + 69) % 12
    fold = np.zeros((band.sum(), 12))
    fold[np.arange(band.sum()), pitch_classes] = 1.0
    segments = np.lib.stride_tricks.sliding_window_view(samples, window_size)[::hop_size]
    window = np.hanning(window_size)
    frames = (np.abs(np.fft.rfft(segments * window, axis=1)) ** 2)[:, band] @ fold
    frames[frames < 0] = 0.0
    return frames


CSV_SPECIAL_CELLS = (
    "1_0", " 0.25", "0.5 ", "nan", "inf", "1e400", '"3"', "-1", "", " ", "\ufeff",
    "c", "0" * csv.field_size_limit() + "1",
)


@st.composite
def csv_texts(draw):
    """CSV-like text: rows of float reprs, header and blank lines, LF or CRLF
    ends; half the texts also get special cells, 11- and 13-cell rows,
    whitespace lines and lone or missing line ends."""
    messy = draw(st.booleans())
    kinds = ["row"] * 5 + ["header", "blank"] + ["spaces"] * messy
    widths = [12] + [11, 13] * messy
    ends = ["\n", "\n", "\r\n"] + ["\r", ""] * messy
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "row":
            width = draw(st.sampled_from(widths))
            cells = draw(st.lists(st.floats(0, 1e6).map(repr), min_size=width, max_size=width))
            for _ in range(draw(st.integers(0, 2 * messy))):
                cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(CSV_SPECIAL_CELLS))
            line = ",".join(cells)
        else:
            line = {"header": "C,C#,D,D#,E,F,F#,G,G#,A,A#,B", "blank": "", "spaces": "  "}[kind]
        lines.append(line + draw(st.sampled_from(ends)))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(lines)


def frames_or_message(path):
    try:
        return load_chroma_csv(path).frames
    except ChromaError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    """Equal error messages, or bit-identical frames."""
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


def text_pieces(size):
    """Make every text reader that ``load_chroma_csv`` opens decode ``size``
    bytes at a time, which cuts UTF-8 characters, CRLFs and the BOM apart."""

    class Reader(io.TextIOWrapper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._CHUNK_SIZE = size

    return mock.patch.object(chroma.io, "TextIOWrapper", Reader)


ROW = ",".join(["0.5", "1", "2.25", "1e-3"] * 3)
# files small pieces cut in many places; the first five need no csv module
PIECE_FILES = {
    "crlf": ("\r\n".join([ROW] * 9) + "\r\n").encode(),
    "bom": b"\xef\xbb\xbf" + ("\n".join([ROW] * 9) + "\n").encode(),
    "utf8-header": ("Dó,Ré♯,Mi,Fa,Sol,La,Si♭,Do,Ré,Mi,Fa,Sol\n" + "\n".join([ROW] * 9)).encode(),
    "blank-lines": ("\n\n" + ROW + "\n\n\n" + ROW + "\n" * 5 + ROW + "\n\n").encode(),
    "no-final-newline": "\n".join([ROW] * 9).encode(),
    "late-quoted-number": ("\n".join([ROW] * 8 + ['"3",' + ROW.split(",", 1)[1]]) + "\n").encode(),
    "late-quoted-text": ("\n".join([ROW] * 8 + ['"x",' + ROW.split(",", 1)[1]]) + "\n").encode(),
    "late-ragged": ("\n".join([ROW] * 8 + [ROW + ",1"]) + "\n").encode(),
    "not-utf8": ("\n".join([ROW] * 8) + "\n").encode() + b"\xff\xfe,1\n",
}
PLAIN_FILES = ["crlf", "bom", "utf8-header", "blank-lines", "no-final-newline"]


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=13) | st.dictionaries(st.text(max_size=3), kids),
    max_leaves=30,
)
CHROMA_JSON = st.fixed_dictionaries(
    {"frames": st.lists(st.lists(JSON_SCALARS, min_size=12, max_size=12) | JSON_VALUES)},
    optional={"frame_rate": JSON_VALUES},
)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary()
    | csv_texts().map(str.encode)
    | (JSON_VALUES | CHROMA_JSON).map(lambda value: json.dumps(value).encode())
)
@example(data=b"\xff\xfe0.1,0.2\n")
@example(data=b"[" * 100_000)
@example(data=b'{"frame_rate": 1' + b"0" * 400 + b', "frames": [[1,0,0,0,0,0,0,0,0,0,0,0]]}')
def test_loaders_return_sequence_or_raise_chroma_error(scratch_file, data):
    """Any bytes give a ChromaSequence or a ChromaError, never another error."""
    scratch_file.write_bytes(data)
    for load in (load_chroma_csv, load_chroma_json):
        try:
            assert isinstance(load(scratch_file), ChromaSequence)
        except ChromaError:
            pass


@settings(max_examples=100, deadline=None)
@given(
    frames=st.integers(0, 4).flatmap(
        lambda n: arrays(float, (n, 12), elements=st.floats(0, allow_infinity=False) | st.just(-0.0))
    ),
    frame_rate=st.none() | st.floats(0, exclude_min=True, allow_infinity=False),
)
def test_json_text_matches_indent_dump(frames, frame_rate):
    # a rate at which the last frame's time overflows is refused (TestChromaSequence)
    assume(frame_rate is None or np.isfinite((len(frames) - 1) / frame_rate))
    seq = ChromaSequence(frames, frame_rate=frame_rate)
    data = {} if seq.frame_rate is None else {"frame_rate": seq.frame_rate}
    data["frames"] = seq.frames.tolist()
    assert "".join(chroma_json_text(seq)) == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("render", [chroma_csv_text, chroma_json_text])
@pytest.mark.parametrize("frame_rate", [None, 21.5])
def test_text_blocks_change_nothing(monkeypatch, rng, rows, render, frame_rate):
    seq = ChromaSequence(rng.uniform(0, 1, (23, 12)), frame_rate=frame_rate)
    want = "".join(render(seq))
    monkeypatch.setattr(core, "_BLOCK_ROWS", rows)
    assert "".join(render(seq)) == want


class TestChromaSequence:
    def test_valid_construction(self):
        seq = ChromaSequence(np.ones((3, 12)), frame_rate=10.0)
        assert len(seq) == 3
        assert seq.frame_rate == 10.0

    def test_overflowing_frame_time_refused(self):
        with pytest.raises(ChromaError, match="time of frame 2 overflows"):
            ChromaSequence(np.ones((3, 12)), frame_rate=1e-308)
        assert ChromaSequence(np.ones((1, 12)), frame_rate=1e-308).frame_rate == 1e-308

    @pytest.mark.parametrize(
        "bad",
        [np.ones((3, 11)), np.ones(12), -np.ones((2, 12)), np.full((2, 12), np.nan)],
    )
    def test_invalid_frames_rejected(self, bad):
        with pytest.raises(ChromaError):
            ChromaSequence(bad)

    def test_bad_frame_rate_rejected(self):
        with pytest.raises(ChromaError):
            ChromaSequence(np.ones((2, 12)), frame_rate=0.0)

    def test_frames_immutable(self):
        seq = ChromaSequence(np.ones((2, 12)))
        with pytest.raises((ValueError, RuntimeError)):
            seq.frames[0, 0] = 5.0


class TestCsv:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [np.ones(12)] * 3)
        seq = load_chroma_csv(path)
        assert len(seq) == 3
        assert np.array_equal(seq.frames, np.ones((3, 12)))
        assert seq.frame_rate is None

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [np.arange(12.0)], header="c,cs,d,ds,e,f,fs,g,gs,a,as,b")
        seq = load_chroma_csv(path)
        assert len(seq) == 1
        assert np.array_equal(seq.frames[0], np.arange(12.0))

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [np.ones(12), np.ones(11), np.ones(12)])
        with pytest.raises(ChromaError, match="row 2"):
            load_chroma_csv(path)

    def test_negative_value_names_row(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = [list(np.ones(12)), list(np.ones(12))]
        rows[1][3] = -0.5
        write_csv(path, rows)
        with pytest.raises(ChromaError, match="row 2"):
            load_chroma_csv(path)

    def test_nan_value_names_row(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = [list(np.ones(12))]
        rows[0][0] = "nan"
        write_csv(path, rows)
        with pytest.raises(ChromaError, match="row 1"):
            load_chroma_csv(path)

    def test_non_numeric_mid_file_names_row(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = [list(np.ones(12)), list(np.ones(12))]
        rows[1][5] = "oops"
        write_csv(path, rows)
        with pytest.raises(ChromaError, match="row 2"):
            load_chroma_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("")
        with pytest.raises(ChromaError, match="no chroma frames"):
            load_chroma_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,c,d,e,f,g,h,i,j,k,l\n")
        with pytest.raises(ChromaError, match="no chroma frames"):
            load_chroma_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ChromaError):
            load_chroma_csv(tmp_path / "absent.csv")

    def test_leading_bom_ignored(self, tmp_path):
        rows = [np.arange(12.0), np.ones(12)]
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(plain, rows)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert len(load_chroma_csv(bom)) == 2
        assert np.array_equal(load_chroma_csv(bom).frames, load_chroma_csv(plain).frames)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            ",".join(["1.0"] * 12) + "\n\n" + ",".join(["2.0"] * 12) + "\n"
        )
        assert len(load_chroma_csv(path)) == 2

    def test_round_trip_full_precision(self, tmp_path, rng):
        frames = rng.uniform(0, 1, (5, 12))
        seq = ChromaSequence(frames)
        path = tmp_path / "c.csv"
        save_chroma_csv(seq, path)
        back = load_chroma_csv(path)
        assert np.array_equal(back.frames, frames)

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    @example(text="a\r" + ",".join(["1"] * 12) + "\n")  # a lone CR ends a row
    @example(text="1,2,3 \r ," + ",".join(["1"] * 9) + "\n")  # float(" 3 \r ") is 3.0
    @example(text='C,"D\n' + ",".join(["1"] * 12) + "\n")  # an open quote runs to EOF
    @example(text="\u2028".join([",".join(["1"] * 12)] * 2))  # not a csv row end
    @example(text=",".join(["1"] * 11 + ["0" * csv.field_size_limit() + "1"]))
    @example(text=",".join(["1"] * 11) + "\n" + ",".join(["1"] * 13) + "\n")
    @example(text="1," * 11 + "-1\n")
    @example(text="1," * 11 + "1e400\n")
    def test_plain_path_matches_csv_reader(self, scratch_file, text):
        """The np.loadtxt path returns what the csv.reader path returns (the
        reference, reached by disabling the plain path), or fails the same way."""
        scratch_file.write_bytes(text.encode("utf-8"))
        got = frames_or_message(scratch_file)
        with mock.patch.object(chroma, "_plain_csv_frames", return_value=None):
            want = frames_or_message(scratch_file)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)

    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("name", list(PIECE_FILES))
    def test_piece_size_changes_nothing(self, tmp_path, name, size):
        """Each file loads as the csv.reader path (the reference) loads it,
        whatever the size of the pieces the text reader decodes."""
        path = tmp_path / "c.csv"
        path.write_bytes(PIECE_FILES[name])
        with text_pieces(size):
            got = frames_or_message(path)
        with mock.patch.object(chroma, "_plain_csv_frames", return_value=None):
            assert_same_outcome(got, frames_or_message(path))

    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("name", PLAIN_FILES)
    def test_small_pieces_stay_on_the_plain_path(self, tmp_path, name, size):
        path = tmp_path / "c.csv"
        path.write_bytes(PIECE_FILES[name])
        want = load_chroma_csv(path).frames
        with open(path, "rb") as raw:
            fh = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
            fh._CHUNK_SIZE = size
            got = chroma._plain_csv_frames(fh)
        assert got is not None and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "name,message",
        [
            ("late-quoted-text", "row 9: non-numeric chroma value"),
            ("late-ragged", "row 9: expected 12 columns, got 13"),
        ],
    )
    def test_a_late_bad_row_is_named(self, tmp_path, name, message):
        path = tmp_path / "c.csv"
        path.write_bytes(PIECE_FILES[name])
        assert frames_or_message(path) == f"{path}: {message}"

    def test_non_utf8_message_is_the_text_readers(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(PIECE_FILES["not-utf8"])
        with pytest.raises(UnicodeDecodeError) as exc:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                fh.read()
        # the plain path meets the bad byte in a later piece than the whole read
        with text_pieces(7):
            assert frames_or_message(path) == f"cannot read chroma CSV {path}: {exc.value}"

    def test_a_long_line_leaves_the_plain_path(self):
        line = ",".join(["1"] * 11 + ["0" * csv.field_size_limit() + "1"])
        assert chroma._plain_csv_frames(io.StringIO(ROW + "\n" + line + "\n")) is None

    def test_a_header_and_blank_lines_hold_no_frames(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"C,C#,D,D#,E,F,F#,G,G#,A,A#,B\r\n\r\n\n  \r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChromaError, match="no chroma frames"):
                load_chroma_csv(path)

    def test_a_hash_is_no_comment(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1," * 11 + "1#2\n# a note\n")
        assert frames_or_message(path) == f"{path}: row 1: non-numeric chroma value"

    def test_spellings_numpy_refuses_load_as_float_reads_them(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(",".join(["1_0", "\uff11"] * 6) + "\n", encoding="utf-8")
        with open(path, encoding="utf-8", newline="") as fh:
            assert chroma._plain_csv_frames(fh) is None
        assert np.array_equal(load_chroma_csv(path).frames, [[10.0, 1.0] * 6])

    @pytest.mark.parametrize(
        ("lines", "want"),
        [
            (["C,C#,D,D#,E,F,F#,G,G#,A,A#,B"] * 2 + [ROW], "row 2: non-numeric chroma value"),
            (["C,C#,D,D#,E,F,F#,G,G#,A,A#,B", "x" + ",1" * 11, ROW],
             "row 2: non-numeric chroma value"),
            (["\x1c2\x1f" + ",1" * 11, ROW], [[2.0] + [1.0] * 11, ROW.split(",")]),
            ([ROW, "," * 11, ROW], [ROW.split(",")] * 2),
        ],
        ids=["two-headers", "header-then-text", "stripped-number-first", "all-blank-row"],
    )
    def test_only_the_first_non_blank_row_may_be_a_header(self, tmp_path, lines, want):
        # cells are stripped before any test, and an all-blank row is a blank line
        path = tmp_path / "c.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if isinstance(want, str):
            want = f"{path}: {want}"
        else:
            want = np.array(want, dtype=float)
        assert_same_outcome(frames_or_message(path), want)

    def test_cells_are_stripped_as_str_strip_strips(self, tmp_path):
        # float() refuses U+001C..U+001F around a number; str.strip takes them
        # off (the quote sends the file to the csv.reader path)
        path = tmp_path / "c.csv"
        path.write_text('"1",' * 11 + "1\n" + ",".join(["\x1c2\x1f"] * 12) + "\n")
        assert np.array_equal(load_chroma_csv(path).frames, [[1.0] * 12, [2.0] * 12])

    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts(), size=st.integers(1, 80))
    def test_any_piece_size_matches_csv_reader(self, scratch_file, text, size):
        scratch_file.write_bytes(text.encode("utf-8"))
        with text_pieces(size):
            got = frames_or_message(scratch_file)
        with mock.patch.object(chroma, "_plain_csv_frames", return_value=None):
            want = frames_or_message(scratch_file)
        assert_same_outcome(got, want)

    @pytest.mark.parametrize("name", ["crlf", "late-quoted-number", "late-ragged"])
    def test_a_pipe_loads_like_a_file(self, tmp_path, name):
        path = tmp_path / "c.csv"
        path.write_bytes(PIECE_FILES[name])
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, PIECE_FILES[name])  # well under a pipe's buffer
            os.close(write_end)
            got = frames_or_message(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        want = frames_or_message(path)
        if isinstance(want, str):  # the same message, naming the pipe
            want = want.replace(str(path), f"/dev/fd/{read_end}")
        assert_same_outcome(got, want)

    def test_load_memory_is_bounded(self, tmp_path, rng):
        # the whole text, its lines and every cell as a str and a float took ~19x;
        # a copy of the parsed frames for ChromaSequence took 2.0x (now 1.2x)
        frames = rng.uniform(0, 1, (20000, 12))
        path = tmp_path / "long.csv"
        save_chroma_csv(ChromaSequence(frames), path)
        tracemalloc.start()
        try:
            seq = load_chroma_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(seq.frames, frames)
        assert peak < 1.5 * frames.nbytes

    @pytest.mark.parametrize("fault", ["quoted-first-cell", "bad-last-line"])
    def test_csv_reader_memory_is_bounded(self, tmp_path, rng, fault):
        # the whole text, its copy, every cell as a str and a float took ~29x
        frames = rng.uniform(0, 1, (20000, 12))
        text = "".join(chroma_csv_text(ChromaSequence(frames)))
        if fault == "quoted-first-cell":
            first, rest = text.split(",", 1)
            text = f'"{first}",{rest}'
        else:
            text += "1,2\n"
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            got = frames_or_message(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if fault == "quoted-first-cell":
            assert np.array_equal(got, frames)
        else:
            assert got == f"{path}: row 20001: expected 12 columns, got 2"
        assert peak < 6 * frames.nbytes

    def test_the_first_fault_in_the_file_is_named(self, tmp_path):
        # a bad row before a field the csv module refuses: the bad row is named
        path = tmp_path / "c.csv"
        long_field = "0" * csv.field_size_limit() + "1"
        path.write_text(f"{ROW}\n-{ROW}\n{ROW},{long_field}\n", encoding="utf-8")
        assert frames_or_message(path) == f"{path}: row 2: negative chroma value"


class TestJson:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"frame_rate": 5.0, "frames": [[1.0] * 12] * 2}))
        seq = load_chroma_json(path)
        assert len(seq) == 2
        assert seq.frame_rate == 5.0

    def test_frame_rate_optional(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"frames": [[0.5] * 12]}))
        assert load_chroma_json(path).frame_rate is None

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            "{}",
            '{"frames": "x"}',
            '{"frames": []}',
            '{"frames": [[1, 2]]}',
            '{"frames": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, -1]]}',
            '{"frame_rate": "fast", "frames": [[0,0,0,0,0,0,0,0,0,0,0,0]]}',
            "not json at all",
            pytest.param(b"\xff\xfe{}", id="not-utf-8"),
            pytest.param(
                '{"frames": [[1' + "0" * 400 + ',0,0,0,0,0,0,0,0,0,0,0]]}',
                id="integer-beyond-float-range",
            ),
            pytest.param(
                '{"frame_rate": true, "frames": [[1,0,0,0,0,0,0,0,0,0,0,0]]}',
                id="boolean-frame-rate",
            ),
            pytest.param(
                '{"frames": [[1,0,0,0,0,0,0,0,0,0,0,0], [true,0,0,0,0,0,0,0,0,0,0,1]]}',
                id="boolean-cell",
            ),
        ],
    )
    def test_malformed_rejected(self, tmp_path, payload):
        path = tmp_path / "c.json"
        path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
        with pytest.raises(ChromaError):
            load_chroma_json(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"frame_rate": True, "frames": [[1] * 12]}, '"frame_rate" must be a number'),
            ({"frames": [[1] * 12, [1] * 11 + [False]]}, "row 1: non-numeric chroma value"),
            # frame_rate is checked before the frames
            ({"frame_rate": True, "frames": [[False] * 12]}, '"frame_rate" must be a number'),
        ],
        ids=["frame-rate", "cell", "frame-rate-first"],
    )
    def test_booleans_are_not_numbers(self, tmp_path, data, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ChromaError, match=message):
            load_chroma_json(path)

    @pytest.mark.parametrize(
        "frames, message",
        [
            ([["1"] * 12], "row 0: non-numeric chroma value"),
            ([[1] * 12, [1] * 11 + [" 2 "]], "row 1: non-numeric chroma value"),
            ([[1] * 12, [1] * 11 + [None]], "row 1: non-numeric chroma value"),
        ],
        ids=["all-strings", "padded-string", "null"],
    )
    def test_strings_are_not_numbers(self, tmp_path, frames, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"frames": frames}))
        with pytest.raises(ChromaError, match=message):
            load_chroma_json(path)

    def test_boolean_words_outside_the_frames(self, tmp_path):
        path = tmp_path / "c.json"
        frames = [[0.25, 1, 2**60, 2**70] + [0.0] * 8]
        path.write_text(json.dumps({"source": "true", "frames": frames}))
        got = load_chroma_json(path).frames
        assert got.tolist() == [[float(v) for v in frames[0]]]

    def test_leading_bom_ignored(self, tmp_path):
        path = tmp_path / "c.json"
        text = json.dumps({"frame_rate": 2.0, "frames": [[1.0] * 12]})
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        seq = load_chroma_json(path)
        assert seq.frame_rate == 2.0
        assert np.array_equal(seq.frames, np.ones((1, 12)))

    def test_row_numbered_diagnostics(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"frames": [[1.0] * 12, [1.0] * 11]}))
        with pytest.raises(ChromaError, match="row 1"):
            load_chroma_json(path)

    def test_the_first_fault_in_the_file_is_named(self, tmp_path):
        # a bad value before a row that is not a list: the bad value is named
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"frames": [[1.0] * 12, [-1.0] + [1.0] * 11, "x"]}))
        with pytest.raises(ChromaError) as exc:
            load_chroma_json(path)
        assert str(exc.value) == f"{path}: row 1: negative chroma value"

    def test_round_trip(self, tmp_path, rng):
        frames = rng.uniform(0, 2, (4, 12))
        seq = ChromaSequence(frames, frame_rate=21.5)
        path = tmp_path / "c.json"
        save_chroma_json(seq, path)
        back = load_chroma_json(path)
        assert np.array_equal(back.frames, frames)
        assert back.frame_rate == 21.5

    def test_save_memory_is_bounded(self, tmp_path, rng):
        # the whole text and every row's text took ~11x
        frames = rng.uniform(0, 1, (20000, 12))
        seq = ChromaSequence(frames, frame_rate=21.5)
        path = tmp_path / "long.json"
        tracemalloc.start()
        try:
            save_chroma_json(seq, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(load_chroma_json(path).frames, frames)
        assert peak < 6 * frames.nbytes


class TestAggregation:
    def test_single_frame_identity(self):
        frame = np.arange(12.0)
        seq = ChromaSequence(frame.reshape(1, 12))
        assert np.array_equal(global_chroma(seq), frame)

    def test_mean_of_two(self):
        seq = ChromaSequence(np.stack([np.ones(12), 3 * np.ones(12)]))
        assert np.array_equal(global_chroma(seq), 2 * np.ones(12))

    def test_identical_frames_exact(self):
        frame = np.linspace(0, 1, 12)
        seq = ChromaSequence(np.tile(frame, (7, 1)))
        assert np.array_equal(global_chroma(seq), frame)

    def test_range_selection(self):
        frames = np.zeros((4, 12))
        frames[2:] = 1.0
        seq = ChromaSequence(frames)
        assert np.array_equal(global_chroma(seq, 2, 4), np.ones(12))

    @pytest.mark.parametrize("n", [1, 2, 7, 48, 1000, 20000])
    def test_mean_is_bit_identical_to_ndarray_mean(self, rng, n):
        # the formula written with ndarray.mean, which global_chroma unwraps
        frames = rng.uniform(0, 1, (n, 12)) * rng.choice([1e-300, 1.0, 1e300], (n, 1))
        want = np.maximum(frames[0] + (frames - frames[0]).mean(axis=0), 0.0)
        assert global_chroma(ChromaSequence(frames)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("lo,hi", [(2, 2), (3, 1), (0, 99), (-1, 2)])
    def test_bad_ranges_rejected(self, lo, hi):
        seq = ChromaSequence(np.ones((4, 12)))
        with pytest.raises(DegenerateInputError):
            global_chroma(seq, lo, hi)

    def test_commutes_with_scaling(self, rng):
        frames = rng.uniform(0, 1, (6, 12))
        a = global_chroma(ChromaSequence(5.0 * frames))
        b = 5.0 * global_chroma(ChromaSequence(frames))
        assert np.allclose(a, b, atol=1e-12)

    def test_window_average_blocks(self):
        frames = np.concatenate([np.zeros((2, 12)), np.ones((2, 12))])
        seq = ChromaSequence(frames, frame_rate=10.0)
        avg = window_average(seq, 2)
        assert len(avg) == 2
        assert np.array_equal(avg.frames[0], np.zeros(12))
        assert np.array_equal(avg.frames[1], np.ones(12))
        assert avg.frame_rate == 5.0

    def test_window_average_ragged_tail(self):
        frames = np.concatenate([np.zeros((2, 12)), 6 * np.ones((1, 12))])
        avg = window_average(ChromaSequence(frames), 2)
        assert len(avg) == 2
        assert np.array_equal(avg.frames[1], 6 * np.ones(12))  # tail of length 1

    def test_overflowing_mean_rejected(self):
        # the suite turns warnings into errors, so a stray overflow warning fails
        frames = np.zeros((3, 12))
        frames[:, 1] = 1.0
        frames[0, 0] = 1.7e308
        with pytest.raises(ChromaError, match="overflows"):
            global_chroma(ChromaSequence(frames))

    def test_window_average_overflow_rejected(self):
        seq = ChromaSequence(np.full((2, 12), 1.7e308))
        with pytest.raises(ChromaError):
            window_average(seq, 2)

    def test_window_average_identity(self):
        seq = ChromaSequence(np.ones((3, 12)))
        assert window_average(seq, 1) is seq

    def test_window_average_of_no_frames(self):
        seq = ChromaSequence(np.zeros((0, 12)), frame_rate=4.0)
        assert window_average(seq, 2).frames.shape == (0, 12)

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 100, 1000])
    def test_window_average_equals_per_block_means(self, rng, n):
        frames = rng.uniform(0, 1, (2503, 12)) * rng.choice([1e-300, 1.0, 1e300], (2503, 1))
        blocks = [frames[i : i + n].mean(axis=0) for i in range(0, len(frames), n)]
        avg = window_average(ChromaSequence(frames, frame_rate=8.0), n)
        assert np.array_equal(avg.frames, np.array(blocks))
        assert avg.frame_rate == 8.0 / n

    @pytest.mark.parametrize("n", [2, 4])  # a whole block, a ragged one
    def test_window_average_overflow_names_the_cause(self, n):
        seq = ChromaSequence(np.full((3, 12), 1.7e308))
        with pytest.raises(ChromaError, match="^the frame mean overflows the float range$"):
            window_average(seq, n)

    def test_window_average_longer_than_the_sequence(self):
        frames = np.arange(36.0).reshape(3, 12)
        avg = window_average(ChromaSequence(frames), 10**30)
        assert np.array_equal(avg.frames, [frames.mean(axis=0)])
        empty = window_average(ChromaSequence(np.zeros((0, 12))), 10**30)
        assert empty.frames.shape == (0, 12)

    @pytest.mark.parametrize("n", [0, -2, 1.5, True, "2"])
    def test_window_average_bad_size(self, n):
        with pytest.raises(ChromaError):
            window_average(ChromaSequence(np.ones((3, 12))), n)


class TestWavExtraction:
    def test_a440_dominates_pitch_class_9(self, tmp_path):
        path = tmp_path / "a.wav"
        sr = sine_wav(path, 440.0)
        seq = extract_chroma_wav(path)
        assert len(seq) > 0
        assert seq.frame_rate == sr / 1024
        share = seq.frames[:, 9] / seq.frames.sum(axis=1)
        assert np.all(share >= 0.8)

    def test_c4_dominates_pitch_class_0(self, tmp_path):
        path = tmp_path / "c.wav"
        sine_wav(path, 261.63)
        seq = extract_chroma_wav(path)
        share = seq.frames[:, 0] / seq.frames.sum(axis=1)
        assert np.all(share >= 0.8)

    def test_silence_gives_zero_frames(self, tmp_path):
        path = tmp_path / "s.wav"
        wavfile.write(path, 22050, np.zeros(22050, dtype=np.int16))
        seq = extract_chroma_wav(path)
        assert len(seq) > 0
        assert np.array_equal(seq.frames, np.zeros_like(seq.frames))

    def test_24_bit_pcm_reads_as_left_justified_int32(self, tmp_path):
        t = np.arange(22050) / 22050
        x = np.round(2**22 * np.sin(2 * np.pi * 440 * t)).astype(np.int32)
        pcm24, int32 = tmp_path / "pcm24.wav", tmp_path / "int32.wav"
        pcm24.write_bytes(pcm16_wav_bytes(22050, x, width=3))
        wavfile.write(int32, 22050, x << 8)
        got, want = extract_chroma_wav(pcm24), extract_chroma_wav(int32)
        assert len(got) == 18
        assert np.array_equal(got.frames, want.frames)

    @pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.float32, np.float64])
    def test_sample_formats(self, tmp_path, dtype):
        path = tmp_path / "fmt.wav"
        sine_wav(path, 440.0, dtype=dtype)
        seq = extract_chroma_wav(path)
        share = seq.frames[:, 9] / seq.frames.sum(axis=1)
        assert np.all(share >= 0.8)

    def test_stereo_averaged(self, tmp_path):
        path = tmp_path / "st.wav"
        sine_wav(path, 440.0, stereo=True)
        seq = extract_chroma_wav(path)
        share = seq.frames[:, 9] / seq.frames.sum(axis=1)
        assert np.all(share >= 0.8)

    def test_frame_count_and_rate(self, tmp_path):
        path = tmp_path / "a.wav"
        sr = sine_wav(path, 440.0, seconds=1.0)
        seq = extract_chroma_wav(path, window_size=2048, hop_size=512)
        expected = (sr - 2048) // 512 + 1
        assert len(seq) == expected
        assert seq.frame_rate == sr / 512

    @pytest.mark.parametrize("window", [0, 1000, -4, 3, 4096.0, "4096"])
    def test_bad_window_rejected(self, tmp_path, window):
        path = tmp_path / "a.wav"
        sine_wav(path, 440.0)
        with pytest.raises(ChromaError):
            extract_chroma_wav(path, window_size=window)

    def test_bad_hop_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        sine_wav(path, 440.0)
        with pytest.raises(ChromaError):
            extract_chroma_wav(path, hop_size=0)

    def test_bad_band_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        sine_wav(path, 440.0)
        with pytest.raises(ChromaError):
            extract_chroma_wav(path, fmin=500.0, fmax=100.0)

    def test_too_short_audio_rejected(self, tmp_path):
        path = tmp_path / "tiny.wav"
        wavfile.write(path, 22050, np.zeros(100, dtype=np.int16))
        with pytest.raises(ChromaError, match="shorter than one"):
            extract_chroma_wav(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"definitely not RIFF data")
        with pytest.raises(ChromaError):
            extract_chroma_wav(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ChromaError, match=r"^cannot read WAV file .*No such file"):
            extract_chroma_wav(tmp_path / "absent.wav")

    def test_zero_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "rate0.wav"
        path.write_bytes(pcm16_wav_bytes(0, np.zeros(8192)))
        with pytest.raises(ChromaError, match="sample rate must be a positive finite number"):
            extract_chroma_wav(path)

    def test_reference_pitch_that_overflows_fmax_over_a4_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        sine_wav(path, 440.0)
        with pytest.raises(ChromaError, match="fmax / A4 overflows"):
            extract_chroma_wav(path, ref_a4=1e-320)
        # a huge A4 keeps every ratio finite (and nonzero): all frames still fold
        assert len(extract_chroma_wav(path, ref_a4=1e308)) > 0

    def test_int64_samples_rejected(self, tmp_path):
        path = tmp_path / "i64.wav"
        wavfile.write(path, 8000, np.zeros(8192, dtype=np.int64))
        with pytest.raises(ChromaError, match="unsupported WAV sample format int64"):
            extract_chroma_wav(path)

    @pytest.mark.parametrize(
        "samples, message",
        [
            pytest.param(np.where(np.arange(8192) == 9, np.inf, 0.0), "must be finite", id="inf"),
            pytest.param(np.where(np.arange(8192) == 9, np.nan, 0.0), "must be finite", id="nan"),
            pytest.param(np.full(8192, 1e200), "spectral power overflows", id="power-overflow"),
        ],
    )
    def test_non_finite_float_samples_rejected_naming_the_file(self, tmp_path, samples, message):
        path = tmp_path / "float.wav"
        wavfile.write(path, 22050, samples)
        with pytest.raises(ChromaError, match=message) as info:
            extract_chroma_wav(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_band_without_a_bin_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        sine_wav(path, 440.0, sr=8000)  # bins are 8000 / 4096 = 1.95 Hz apart
        with pytest.raises(ChromaError, match="no spectral bins"):
            extract_chroma_wav(path, fmin=100.1, fmax=100.2)

    def test_custom_reference_pitch(self, tmp_path):
        # with A4 tuned to 450 Hz, a 450 Hz sine lands on pitch class 9
        path = tmp_path / "a450.wav"
        sine_wav(path, 450.0)
        seq = extract_chroma_wav(path, ref_a4=450.0)
        share = seq.frames[:, 9] / seq.frames.sum(axis=1)
        assert np.all(share >= 0.8)

    # blocks hold max(1, 2**17 // window) frames: 32 at 4096, 128 at 1024,
    # 2048 at 64, 8 at 16384
    @pytest.mark.parametrize(
        "window, hop, n_frames, sr, dtype, stereo, fmax",
        [
            pytest.param(4096, 1024, 1, 22050, np.int16, False, 5000.0, id="one-frame"),
            pytest.param(4096, 1024, 10, 22050, np.int16, False, 5000.0, id="under-one-block"),
            pytest.param(4096, 1024, 64, 44100, np.float32, False, 5000.0, id="two-blocks"),
            pytest.param(4096, 1024, 70, 48000, np.int32, False, 5000.0, id="partial-block"),
            pytest.param(4096, 1024, 200, 22050, np.int16, False, 5000.0, id="many-blocks"),
            pytest.param(1024, 1500, 300, 8000, np.uint8, False, 3000.0, id="hop-over-window"),
            pytest.param(64, 16, 2500, 22050, np.float64, False, 11025.0, id="window-64"),
            pytest.param(16384, 4096, 20, 44100, np.int16, True, 5000.0, id="window-16384"),
            pytest.param(2048, 512, 100, 22050, np.int16, True, 5000.0, id="stereo"),
            pytest.param(2048, 256, 200, 16000, np.float32, False, 8000.0, id="nyquist"),
            pytest.param(512, 512, 300, 11025, np.int32, True, 3e4, id="above-nyquist"),
        ],
    )
    def test_blocked_stft_equals_one_shot(
        self, tmp_path, window, hop, n_frames, sr, dtype, stereo, fmax
    ):
        path = tmp_path / "noise.wav"
        noise_wav(path, window + (n_frames - 1) * hop + hop // 2, sr, dtype, stereo)
        seq = extract_chroma_wav(path, window_size=window, hop_size=hop, fmax=fmax)
        assert len(seq) == n_frames
        assert np.array_equal(seq.frames, one_shot_chroma(path, window, hop, fmax))

    def test_working_memory_is_bounded(self, tmp_path):
        # the full spectrogram of a 20 s file would take about 9x the samples
        sr, n_samples = 22050, 22050 * 20
        path = tmp_path / "long.wav"
        noise_wav(path, n_samples, sr, np.int16)
        tracemalloc.start()
        try:
            extract_chroma_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n_samples * 8

    @pytest.mark.parametrize("stereo", [False, True], ids=["mono", "stereo"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
    def test_samples_to_float_equal_the_two_pass_formula(self, rng, dtype, stereo):
        shape = (999, 2) if stereo else (999,)
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)
            data.flat[:2] = info.min, info.max
        else:
            data = rng.uniform(-1.5, 1.5, shape).astype(dtype)
        # the formula before one-pass scaling: a float copy, then a division
        want = data.astype(np.float64)
        if dtype == np.uint8:
            want = (want - 128.0) / 128.0
        elif dtype in (np.int16, np.int32):
            want = want / 2.0 ** (8 * np.dtype(dtype).itemsize - 1)
        got = chroma._to_float_samples(data, "x.wav")
        assert got.dtype == np.float64 and got.shape == shape
        assert got.tobytes() == want.tobytes()


def scipy_read(path):
    """``wavfile.read``, the reference reader, with its warnings of a file it can
    still read (an unknown chunk, a short read) ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        return wavfile.read(path)


def riff_bytes(*chunks):
    """A RIFF WAVE file of ``(chunk id, body)`` pairs, an odd-sized body followed by
    its pad byte."""
    body = b"".join(
        name + struct.pack("<I", len(data)) + data + bytes(len(data) % 2) for name, data in chunks
    )
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_body(tag, channels, width):
    """The 16-byte ``fmt `` body of ``channels`` channels of ``width``-byte samples at 8 kHz."""
    align = channels * width
    return struct.pack("<HHIIHH", tag, channels, 8000, 8000 * align, align, 8 * width)


GUID_TAIL = bytes.fromhex("00001000800000aa00389b71")  # of the standard subformat GUIDs


def extensible_fmt_body(tag, channels, width, guid_tail=GUID_TAIL):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE ``fmt `` body whose subformat GUID holds ``tag``."""
    head = bytearray(fmt_body(tag, channels, width))
    head[:2] = struct.pack("<H", 0xFFFE)
    return bytes(head) + struct.pack("<HHII", 22, 8 * width, 0, tag) + guid_tail


def written_wav(dtype, channels, frames):
    """The bytes ``wavfile.write`` gives for seeded samples of this shape."""
    rng = np.random.default_rng(frames * 10 + channels)
    shape = (frames,) if channels == 1 else (frames, channels)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        samples = rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)
    else:
        samples = rng.uniform(-1.5, 1.5, shape).astype(dtype)
    out = io.BytesIO()
    wavfile.write(out, 8000, samples)
    return out.getvalue()


TONE = pcm16_wav_bytes(8000, 8000 * np.sin(np.arange(601) / 8))
PCM24 = np.arange(-21, 21).astype("<i4").view(np.uint8).reshape(-1, 4)[:, 1:].tobytes()
BEXT = b"bext" + struct.pack("<I", 4) + bytes(4)  # the unknown chunk of test_cli's EDGE_ROWS

# files the reader must read as wavfile.read reads them
READER_CASES = {
    f"{np.dtype(dtype).name}-{channels}ch-{frames}": written_wav(dtype, channels, frames)
    for dtype in (np.uint8, np.int16, np.int32, np.int64, np.float32, np.float64)
    for channels in (1, 2, 3)
    for frames in (0, 1, 7)
} | {
    "24-bit-mono-0": pcm16_wav_bytes(8000, [], width=3),
    "24-bit-mono-7": pcm16_wav_bytes(8000, np.arange(-3, 4) * 2**20, width=3),
    "24-bit-2ch": riff_bytes((b"fmt ", fmt_body(1, 2, 3)), (b"data", PCM24)),
    "24-bit-3ch": riff_bytes((b"fmt ", fmt_body(1, 3, 3)), (b"data", PCM24[:117])),
    "bext-before-data": TONE[:4] + struct.pack("<I", len(TONE) + len(BEXT) - 8) + TONE[8:36]
    + BEXT + TONE[36:],
    "odd-chunk-and-pad": riff_bytes(
        (b"fmt ", fmt_body(1, 2, 2)), (b"LIST", b"odd"), (b"data", PCM24[:40])
    ),
    "odd-24-bit-data-and-pad": riff_bytes(
        (b"fmt ", fmt_body(1, 1, 3)), (b"data", PCM24[:9]), (b"LIST", b"after")
    ),
    "fmt-chunk-of-18": riff_bytes((b"fmt ", fmt_body(1, 1, 2) + bytes(2)), (b"data", PCM24[:8])),
    "extensible-pcm": riff_bytes((b"fmt ", extensible_fmt_body(1, 2, 2)), (b"data", PCM24[:40])),
    "extensible-float": riff_bytes((b"fmt ", extensible_fmt_body(3, 1, 4)), (b"data", bytes(16))),
    "truncated-mono": TONE[:-101],
    "truncated-24-bit": pcm16_wav_bytes(8000, np.arange(-50, 50) * 2**16, width=3)[:-3],
}

# files the reader refuses as unsupported, where scipy raised, refused or read garbage
REFUSED_CASES = {
    "riff-only": b"RIFF",
    "empty": b"",
    "not-wave": TONE[:8] + b"AVI " + TONE[12:],
    "rifx": b"RIFX" + TONE[4:],
    "rf64": b"RF64" + TONE[4:],
    "channels-0": TONE[:22] + bytes(2) + TONE[24:],
    "block-align-0": TONE[:28] + bytes(6) + TONE[34:],  # and 0 bytes a second
    "no-fmt-before-data": riff_bytes((b"data", bytes(8)), (b"fmt ", fmt_body(1, 1, 2))),
    "no-data": riff_bytes((b"fmt ", fmt_body(1, 1, 2))),
    "fmt-chunk-of-14": riff_bytes((b"fmt ", fmt_body(1, 1, 2)[:14]), (b"data", bytes(8))),
    "adpcm": riff_bytes((b"fmt ", fmt_body(2, 1, 2)), (b"data", bytes(8))),
    "pcm-5-byte": riff_bytes((b"fmt ", fmt_body(1, 1, 5)), (b"data", bytes(10))),
    "float-2-byte": riff_bytes((b"fmt ", fmt_body(3, 1, 2)), (b"data", bytes(8))),
    "extensible-other-guid": riff_bytes(
        (b"fmt ", extensible_fmt_body(1, 1, 2, guid_tail=bytes(12))), (b"data", bytes(8))
    ),
    "extensible-too-short": riff_bytes(
        (b"fmt ", extensible_fmt_body(1, 1, 2)[:24]), (b"data", bytes(8))
    ),
}

# the 44-byte header of ``pcm16_wav_bytes``, field by field: (offset, struct code)
WAV_HEADER_FIELDS = [
    (0, "4s"), (4, "I"), (8, "4s"), (12, "4s"), (16, "I"), (20, "H"), (22, "H"),
    (24, "I"), (28, "I"), (32, "H"), (34, "H"), (36, "4s"), (40, "I"),
]
CHUNK_IDS = [b"RIFF", b"RIFX", b"RF64", b"WAVE", b"fmt ", b"data", b"LIST", bytes(4)]


def header_values(code):
    if code == "4s":
        return st.sampled_from(CHUNK_IDS)
    top = 2 ** (8 * struct.calcsize("<" + code)) - 1
    return st.integers(0, 8) | st.sampled_from([0xFFFE, top]) | st.integers(0, top)


class TestWavReader:
    @pytest.mark.parametrize("data", READER_CASES.values(), ids=READER_CASES.keys())
    def test_reader_equals_scipy(self, tmp_path, data):
        path = tmp_path / "x.wav"
        path.write_bytes(data)
        (rate, got), (want_rate, want) = chroma._read_wav(path), scipy_read(path)
        assert (rate, got.dtype, got.shape) == (want_rate, want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("data", REFUSED_CASES.values(), ids=REFUSED_CASES.keys())
    def test_unsupported_files_refused_naming_the_file(self, tmp_path, data):
        path = tmp_path / "x.wav"
        path.write_bytes(data)
        with pytest.raises(ChromaError) as info:
            chroma._read_wav(path)
        assert str(info.value).startswith(f"{path}: unsupported WAV file: ")

    def test_stereo_data_cut_mid_frame_reads_to_its_last_whole_frame(self, tmp_path):
        whole, cut = tmp_path / "whole.wav", tmp_path / "cut.wav"
        data = written_wav(np.int16, 2, 7)
        whole.write_bytes(data[:-4])  # six frames, the header still says seven
        cut.write_bytes(data[:-1])
        got = chroma._read_wav(cut)[1]
        assert got.shape == (6, 2)
        assert got.tobytes() == scipy_read(whole)[1].tobytes()

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(TONE[:28] + struct.pack("<I", 1) + TONE[32:], id="byte-rate-1"),
            pytest.param(TONE[:4] + bytes(4) + TONE[8:], id="riff-size-0"),
        ],
    )
    def test_byte_rate_and_riff_size_are_not_read(self, tmp_path, data):
        """scipy refuses the first file and fails on the second."""
        path = tmp_path / "x.wav"
        path.write_bytes(data)
        rate, got = chroma._read_wav(path)
        want_rate, want = scipy_read(io.BytesIO(TONE))
        assert (rate, got.dtype, got.tobytes()) == (want_rate, want.dtype, want.tobytes())


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(
        st.sampled_from(WAV_HEADER_FIELDS).flatmap(
            lambda field: st.tuples(st.just(field), header_values(field[1]))
        ),
        max_size=3,
    ),
    cut=st.integers(0, len(TONE)),
)
@example(edits=[((22, "H"), 0)], cut=len(TONE))  # 0 channels
@example(edits=[((28, "I"), 0), ((32, "H"), 0)], cut=len(TONE))  # 0 block align, 0 bytes/s
@example(edits=[], cut=4)  # b"RIFF" alone
def test_malformed_wav_gives_sequence_or_chroma_error(scratch_file, edits, cut):
    """A WAV with mutated header fields, cut short anywhere, gives a
    ChromaSequence or a ChromaError, never another error."""
    data = bytearray(TONE)
    for (offset, code), value in edits:
        struct.pack_into("<" + code, data, offset, value)
    scratch_file.write_bytes(data[:cut])
    try:
        seq = extract_chroma_wav(scratch_file, window_size=256, hop_size=128)
        assert isinstance(seq, ChromaSequence)
    except ChromaError:
        pass
