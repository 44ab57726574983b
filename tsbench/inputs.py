"""Seeded input generator for the three benchmark workloads.

Everything here depends only on numpy, the standard library and the
checker's constants, so the inputs never depend on the code under test.  The same seed writes
byte-identical files (``generate`` returns the frames it wrote, so the
reference checker needs no parser of its own).

Why each workload exists:

* ``analyze-csv`` -- song-length chroma CSVs through ``analyze``.  This is
  the per-frame path: interval vectors, qualities and the CSV report are
  computed once per frame, while key estimation runs once per file.
* ``key-corpus`` -- many 48-frame clips through ``key``.  Fixed
  per-invocation costs dominate (building the 24 key references,
  argparse, the small-file load); per-frame work is almost nil.
* ``wav-pipeline`` -- synthetic WAVs of 20 to 60 seconds through
  ``extract-chroma`` to JSON, then ``analyze`` of that JSON with the JSON
  report and the 3/4/5 coefficient subset.  It exercises STFT extraction, the JSON writer and
  reader and the JSON renderer, none of which ``analyze-csv`` touches.

Every seed gets the same file sizes in the same order (only the contents
change), so op latencies and memory peaks of different seeds are
comparable.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

from refcheck import PITCH_CLASS_NAMES, PROFILES

WORKLOADS = ("analyze-csv", "key-corpus", "wav-pipeline")

CSV_HEADER = ",".join(PITCH_CLASS_NAMES)

# analyze-csv: songs from 1.5k to 6k frames; few, so that one run gets many
# rounds over them
SONG_FRAMES = (1500, 3000, 6000)
SEGMENT_FRAMES = (12, 72)  # chord segment length range, frames
SILENT_GAPS = 4  # all-zero runs of 1..3 frames per song

# key-corpus: clips of noisy key-profile rotations
KEY_CLIPS = 32
KEY_CLIP_FRAMES = 48
# the clips are shaped like the published key profiles the checker holds
CLIP_PROFILES = tuple((major, minor) for major, minor, _ in PROFILES.values())

# wav-pipeline: mono int16 WAVs of chord-segment sine mixtures
WAV_RATE = 22050
WAV_SECONDS = (20, 40, 60)
WAV_SEGMENT_SECONDS = (1.0, 4.0)

# (intervals above the root, relative note weights) for the chord segments
CHORDS = (
    ((0, 4, 7), (1.0, 0.8, 0.9)),
    ((0, 3, 7), (1.0, 0.8, 0.9)),
    ((0, 4, 7, 10), (1.0, 0.7, 0.8, 0.6)),
    ((0, 3, 7, 10), (1.0, 0.7, 0.8, 0.6)),
    ((0, 3, 6), (1.0, 0.8, 0.8)),
    ((0, 5, 7), (1.0, 0.8, 0.9)),
    ((0, 4, 7, 11), (1.0, 0.7, 0.8, 0.6)),
)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _chord_template(rng: np.random.Generator) -> np.ndarray:
    intervals, weights = CHORDS[rng.integers(len(CHORDS))]
    root = int(rng.integers(12))
    template = np.full(12, 0.03)
    for interval, weight in zip(intervals, weights):
        pc = (root + interval) % 12
        template[pc] += weight
        template[(pc + 7) % 12] += 0.15 * weight  # third-harmonic leakage
    return template


def song_frames(rng: np.random.Generator, n_frames: int) -> np.ndarray:
    """Piecewise-stationary chord segments with multiplicative noise and a
    few short all-zero (silent) gaps."""
    frames = np.empty((n_frames, 12))
    pos = 0
    while pos < n_frames:
        length = int(rng.integers(*SEGMENT_FRAMES, endpoint=True))
        gain = rng.uniform(0.5, 2.0)
        block = frames[pos : pos + length]
        noise = rng.normal(0.0, 0.08, block.shape)
        block[:] = gain * _chord_template(rng) * np.abs(1.0 + noise)
        pos += length
    for start in rng.choice(n_frames - 3, size=SILENT_GAPS, replace=False):
        frames[start : start + rng.integers(1, 4)] = 0.0
    return frames


def clip_frames(rng: np.random.Generator) -> np.ndarray:
    """48 frames of one noisy, randomly rotated bundled key profile."""
    major, minor = CLIP_PROFILES[rng.integers(len(CLIP_PROFILES))]
    profile = np.roll(major if rng.integers(2) == 0 else minor, rng.integers(12))
    gains = rng.uniform(0.2, 3.0, (KEY_CLIP_FRAMES, 1))
    noise = rng.normal(0.0, 0.35, (KEY_CLIP_FRAMES, 12))
    return gains * np.asarray(profile) * np.abs(1.0 + noise)


def wav_samples(rng: np.random.Generator, seconds: int) -> np.ndarray:
    """int16 samples: chord segments of sine partials with a short fade at
    each boundary, plus a little white noise."""
    n = WAV_RATE * seconds
    signal = np.zeros(n)
    pos = 0
    while pos < n:
        length = min(n - pos, int(rng.uniform(*WAV_SEGMENT_SECONDS) * WAV_RATE))
        t = np.arange(length) / WAV_RATE
        intervals, weights = CHORDS[rng.integers(len(CHORDS))]
        midi_root = int(rng.integers(48, 60))
        segment = np.zeros(length)
        for interval, weight in zip(intervals, weights):
            f0 = 440.0 * 2.0 ** ((midi_root + interval - 69) / 12.0)
            for harmonic, amp in ((1, 1.0), (2, 0.5), (3, 0.25)):
                phase = rng.uniform(0.0, 2.0 * np.pi)
                segment += weight * amp * np.sin(2 * np.pi * harmonic * f0 * t + phase)
        fade = min(length // 2, WAV_RATE // 50)
        ramp = np.linspace(0.0, 1.0, fade)
        segment[:fade] *= ramp
        segment[length - fade :] *= ramp[::-1]
        signal[pos : pos + length] = segment
        pos += length
    signal += rng.normal(0.0, 0.01, n)
    signal *= 0.5 / np.max(np.abs(signal))
    return np.round(signal * 32767.0).astype("<i2")


def write_csv(path: Path, frames: np.ndarray, header: bool) -> None:
    lines = [CSV_HEADER] if header else []
    lines += [",".join(repr(float(v)) for v in row) for row in frames]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_wav(path: Path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(WAV_RATE)
        fh.writeframes(samples.tobytes())


def generate(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``directory``.

    Returns one entry per file, ``{"path", "frames"}`` (for a WAV,
    ``"samples"`` and ``"rate"`` instead of ``"frames"``), in the order
    the workload visits them.
    """
    rng = _rng(seed, workload)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    if workload == "analyze-csv":
        for i, n in enumerate(SONG_FRAMES):
            frames = song_frames(rng, n)
            path = directory / f"song{i:02d}.csv"
            write_csv(path, frames, header=i % 2 == 0)
            files.append({"path": path, "frames": frames})
    elif workload == "key-corpus":
        for i in range(KEY_CLIPS):
            frames = clip_frames(rng)
            path = directory / f"clip{i:02d}.csv"
            write_csv(path, frames, header=i % 4 == 0)
            files.append({"path": path, "frames": frames})
    elif workload == "wav-pipeline":
        for i, seconds in enumerate(WAV_SECONDS):
            samples = wav_samples(rng, seconds)
            path = directory / f"mix{i}.wav"
            write_wav(path, samples)
            files.append({"path": path, "samples": samples, "rate": WAV_RATE})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files
