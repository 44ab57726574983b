"""Tests for chroma file I/O, aggregation, and the WAV extractor."""

import json

import numpy as np
import pytest
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


class TestChromaSequence:
    def test_valid_construction(self):
        seq = ChromaSequence(np.ones((3, 12)), frame_rate=10.0, source="test")
        assert len(seq) == 3
        assert seq.frame_rate == 10.0

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

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            ",".join(["1.0"] * 12) + "\n\n" + ",".join(["2.0"] * 12) + "\n"
        )
        assert len(load_chroma_csv(path)) == 2

    def test_round_trip_full_precision(self, tmp_path, rng):
        frames = rng.uniform(0, 1, (5, 12))
        seq = ChromaSequence(frames, source="mem")
        path = tmp_path / "c.csv"
        save_chroma_csv(seq, path)
        back = load_chroma_csv(path)
        assert np.array_equal(back.frames, frames)


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
            pytest.param(
                '{"frames": [[1' + "0" * 400 + ',0,0,0,0,0,0,0,0,0,0,0]]}',
                id="integer-beyond-float-range",
            ),
        ],
    )
    def test_malformed_rejected(self, tmp_path, payload):
        path = tmp_path / "c.json"
        path.write_text(payload)
        with pytest.raises(ChromaError):
            load_chroma_json(path)

    def test_row_numbered_diagnostics(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"frames": [[1.0] * 12, [1.0] * 11]}))
        with pytest.raises(ChromaError, match="row 1"):
            load_chroma_json(path)

    def test_round_trip(self, tmp_path, rng):
        frames = rng.uniform(0, 2, (4, 12))
        seq = ChromaSequence(frames, frame_rate=21.5, source="mem")
        path = tmp_path / "c.json"
        save_chroma_json(seq, path)
        back = load_chroma_json(path)
        assert np.array_equal(back.frames, frames)
        assert back.frame_rate == 21.5


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

    def test_window_average_identity(self):
        seq = ChromaSequence(np.ones((3, 12)))
        assert window_average(seq, 1) is seq

    @pytest.mark.parametrize("n", [0, -2, 1.5])
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

    @pytest.mark.parametrize("window", [0, 1000, -4, 3])
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
        with pytest.raises(ChromaError):
            extract_chroma_wav(tmp_path / "absent.wav")

    def test_custom_reference_pitch(self, tmp_path):
        # with A4 tuned to 450 Hz, a 450 Hz sine lands on pitch class 9
        path = tmp_path / "a450.wav"
        sine_wav(path, 450.0)
        seq = extract_chroma_wav(path, ref_a4=450.0)
        share = seq.frames[:, 9] / seq.frames.sum(axis=1)
        assert np.all(share >= 0.8)
