"""Chroma file I/O, temporal aggregation, and a minimal WAV extractor.

Framewise chroma is the library's primary input and normally comes from a
dedicated extractor (HPCP, NNLS, ...) via CSV or JSON; the analysis code is
agnostic to how the chroma was produced.  The built-in WAV extractor here is
deliberately simple -- a Hann-windowed STFT whose bin energies are folded
into pitch classes, with no harmonic weighting or tuning estimation -- and
exists so the pipeline can be exercised end to end without an external MIR
dependency.  Prefer file input for real analyses.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .core import N_BINS, _frozen
from .errors import ChromaError, DegenerateInputError

# Built-in extractor defaults; override via function arguments / CLI flags.
DEFAULT_WINDOW_SIZE = 4096
DEFAULT_HOP_SIZE = 1024
DEFAULT_FMIN = 55.0
DEFAULT_FMAX = 5000.0
DEFAULT_A4 = 440.0


@dataclass(frozen=True, eq=False)
class ChromaSequence:
    """An ordered run of 12-bin chroma frames.

    ``frames`` is an (N, 12) float array of nonnegative finite values;
    ``frame_rate`` is frames per second when known (None otherwise);
    ``source`` records where the frames came from.
    """

    frames: np.ndarray
    frame_rate: float | None = None
    source: str = ""

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim == 1 and frames.size == 0:
            frames = frames.reshape(0, N_BINS)
        if frames.ndim != 2 or frames.shape[1] != N_BINS:
            raise ChromaError(
                f"chroma frames must form an (N, {N_BINS}) array, got shape {frames.shape}"
            )
        if frames.size:
            if not np.all(np.isfinite(frames)):
                raise ChromaError("chroma frames must be finite")
            if np.any(frames < 0):
                raise ChromaError("chroma frames must be nonnegative")
        if self.frame_rate is not None:
            rate = float(self.frame_rate)
            if not (np.isfinite(rate) and rate > 0):
                raise ChromaError("frame_rate must be a positive finite number")
            object.__setattr__(self, "frame_rate", rate)
        object.__setattr__(self, "frames", _frozen(frames))

    def __len__(self) -> int:
        return self.frames.shape[0]


def _parse_rows(rows, path) -> np.ndarray:
    """Validate (line_number, cells) pairs into an (N, 12) array in one
    vectorised pass; only on failure does the row loop name the bad row."""
    try:
        frames = np.array([[float(cell) for cell in cells] for _, cells in rows])
    except (TypeError, ValueError, OverflowError):
        frames = None
    if frames is not None and frames.shape[1:] == (N_BINS,):
        if np.all(np.isfinite(frames) & (frames >= 0)):
            return frames
    # the loop raises on the first bad row; it only completes without rows
    for line_num, cells in rows:
        if len(cells) != N_BINS:
            raise ChromaError(
                f"{path}: row {line_num}: expected {N_BINS} columns, got {len(cells)}"
            )
        try:
            values = [float(cell) for cell in cells]
        except (TypeError, ValueError):
            raise ChromaError(
                f"{path}: row {line_num}: non-numeric chroma value"
            ) from None
        except OverflowError:  # an integer beyond the float range
            values = [np.inf]
        if not all(np.isfinite(values)):
            raise ChromaError(f"{path}: row {line_num}: non-finite chroma value")
        if any(v < 0 for v in values):
            raise ChromaError(f"{path}: row {line_num}: negative chroma value")
    raise ChromaError(f"{path}: no chroma frames found")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def load_chroma_csv(path) -> ChromaSequence:
    """Load chroma frames from CSV: one row per frame, 12 numeric columns.

    An optional first header row is detected by a non-numeric first cell.
    Blank lines are skipped.  Malformed rows (wrong column count, negative,
    NaN, non-numeric) raise ChromaError naming the offending row.
    """
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for cells in reader:
                if not cells or all(not cell.strip() for cell in cells):
                    continue
                if not rows and not _is_number(cells[0]):
                    continue  # header row
                rows.append((reader.line_num, [cell.strip() for cell in cells]))
    except OSError as exc:
        raise ChromaError(f"cannot read chroma CSV {path}: {exc}") from exc
    except csv.Error as exc:
        raise ChromaError(f"{path}: malformed CSV: {exc}") from exc
    return ChromaSequence(_parse_rows(rows, path), frame_rate=None, source=str(path))


def chroma_csv_text(seq: ChromaSequence) -> str:
    """Chroma frames as headerless CSV text, full ``repr`` precision."""
    return "".join(",".join(map(repr, frame)) + "\n" for frame in seq.frames.tolist())


def save_chroma_csv(seq: ChromaSequence, path) -> None:
    """Write ``chroma_csv_text(seq)`` to ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(chroma_csv_text(seq))


def load_chroma_json(path) -> ChromaSequence:
    """Load chroma from JSON: {"frame_rate"?: number, "frames": [[12 numbers], ...]}."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ChromaError(f"cannot read chroma JSON {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChromaError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(data, dict) or "frames" not in data:
        raise ChromaError(f'{path}: expected a JSON object with a "frames" field')
    raw = data["frames"]
    if not isinstance(raw, list):
        raise ChromaError(f'{path}: "frames" must be a list of 12-element rows')
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise ChromaError(f"{path}: row {i}: expected a list of {N_BINS} numbers")
        rows.append((i, row))
    if not rows:
        raise ChromaError(f"{path}: no chroma frames found")
    frame_rate = data.get("frame_rate")
    if frame_rate is not None and not isinstance(frame_rate, (int, float)):
        raise ChromaError(f'{path}: "frame_rate" must be a number')
    return ChromaSequence(_parse_rows(rows, path), frame_rate=frame_rate, source=str(path))


def chroma_json_text(seq: ChromaSequence) -> str:
    """Chroma frames (and frame_rate when known) as JSON text."""
    data = {} if seq.frame_rate is None else {"frame_rate": seq.frame_rate}
    data["frames"] = seq.frames.tolist()
    return json.dumps(data, indent=2) + "\n"


def save_chroma_json(seq: ChromaSequence, path) -> None:
    """Write ``chroma_json_text(seq)`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chroma_json_text(seq))


def global_chroma(seq: ChromaSequence, start=None, stop=None) -> np.ndarray:
    """Element-wise mean of frames[start:stop] (defaults: the whole sequence).

    Averaging consecutive frames before the interval-vector computation
    trades instantaneous detail for a global summary of a passage.
    """
    n = len(seq)
    lo = 0 if start is None else int(start)
    hi = n if stop is None else int(stop)
    if lo < 0 or hi > n or lo >= hi:
        raise DegenerateInputError(
            f"empty or out-of-bounds frame range [{lo}, {hi}) for {n} frames"
        )
    block = seq.frames[lo:hi]
    # baseline + mean of deviations: bit-exact when all frames are equal;
    # the clip absorbs sub-ulp cancellation noise that could dip below zero
    mean = block[0] + (block - block[0]).mean(axis=0)
    return np.maximum(mean, 0.0)


def window_average(seq: ChromaSequence, n: int) -> ChromaSequence:
    """Average non-overlapping blocks of ``n`` consecutive frames.

    A ragged final block is averaged over its own length.  The frame rate
    divides by ``n``.  ``n`` = 1 returns the sequence unchanged.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ChromaError("window-average size must be a positive integer")
    if n == 1:
        return seq
    blocks = [
        seq.frames[i : i + n].mean(axis=0) for i in range(0, len(seq), n)
    ]
    rate = None if seq.frame_rate is None else seq.frame_rate / n
    return ChromaSequence(np.array(blocks), frame_rate=rate, source=seq.source)


def _to_float_samples(data: np.ndarray, path) -> np.ndarray:
    """Normalize WAV sample data to float64 in roughly [-1, 1]."""
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype == np.int16:
        return data.astype(np.float64) / 2.0**15
    if data.dtype == np.int32:  # also covers 24-bit PCM
        return data.astype(np.float64) / 2.0**31
    if data.dtype in (np.float32, np.float64):
        return data.astype(np.float64)
    raise ChromaError(f"{path}: unsupported WAV sample format {data.dtype}")


def extract_chroma_wav(
    path,
    window_size: int = DEFAULT_WINDOW_SIZE,
    hop_size: int = DEFAULT_HOP_SIZE,
    fmin: float = DEFAULT_FMIN,
    fmax: float = DEFAULT_FMAX,
    ref_a4: float = DEFAULT_A4,
) -> ChromaSequence:
    """Minimal WAV -> chroma extraction via a Hann-windowed STFT.

    Each spectral bin's power within [fmin, fmax] Hz is added to pitch class
    ``(round(12 * log2(f / ref_a4)) + 69) mod 12``; one frame is emitted per
    hop and ``frame_rate = sample_rate / hop_size``.  Stereo channels are
    averaged before analysis.  ``window_size`` must be a power of two.
    """
    if (
        not isinstance(window_size, (int, np.integer))
        or window_size < 2
        or window_size & (window_size - 1)
    ):
        raise ChromaError("window_size must be a power of two >= 2")
    if not isinstance(hop_size, (int, np.integer)) or hop_size < 1:
        raise ChromaError("hop_size must be a positive integer")
    if not (0 < fmin < fmax):
        raise ChromaError("need 0 < fmin < fmax")
    if not ref_a4 > 0:
        raise ChromaError("reference A4 frequency must be positive")

    from scipy.io import wavfile  # imported here: scipy.io is slow to import

    try:
        sample_rate, data = wavfile.read(path)
    except OSError as exc:
        raise ChromaError(f"cannot read WAV file {path}: {exc}") from exc
    except ValueError as exc:
        raise ChromaError(f"{path}: unsupported WAV file: {exc}") from exc
    samples = _to_float_samples(np.asarray(data), path)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if samples.ndim != 1:
        raise ChromaError(f"{path}: expected mono or stereo audio")
    if len(samples) < window_size:
        raise ChromaError(
            f"{path}: audio ({len(samples)} samples) is shorter than one "
            f"analysis window ({window_size} samples)"
        )

    freqs = np.fft.rfftfreq(window_size, 1.0 / sample_rate)
    band = (freqs >= fmin) & (freqs <= fmax)
    if not np.any(band):
        raise ChromaError("no spectral bins fall inside [fmin, fmax]")
    pitch_classes = (
        np.round(12.0 * np.log2(freqs[band] / ref_a4)).astype(int) + 69
    ) % N_BINS
    fold = np.zeros((band.sum(), N_BINS))
    fold[np.arange(band.sum()), pitch_classes] = 1.0

    window = np.hanning(window_size)
    segments = np.lib.stride_tricks.sliding_window_view(samples, window_size)
    segments = segments[::hop_size]
    power = np.abs(np.fft.rfft(segments * window, axis=1)) ** 2
    frames = power[:, band] @ fold
    frames[frames < 0] = 0.0  # guard against negative rounding dust
    return ChromaSequence(
        frames, frame_rate=sample_rate / hop_size, source=str(path)
    )
