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
import io
import json
from dataclasses import dataclass

import numpy as np

from .core import N_BINS, _as_floats, _frozen
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
        frames = _as_floats(self.frames, "chroma frames")
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
            try:
                rate = float(self.frame_rate)
            except OverflowError:  # an integer beyond the float range
                rate = np.inf
            if not (np.isfinite(rate) and rate > 0):
                raise ChromaError("frame_rate must be a positive finite number")
            object.__setattr__(self, "frame_rate", rate)
        object.__setattr__(self, "frames", _frozen(frames))

    def __len__(self) -> int:
        return self.frames.shape[0]


def _checked(rows):
    """``rows`` as an (N, 12) float array when they are finite nonnegative
    numbers, else None (a string or None cell gives a non-numeric dtype)."""
    try:
        frames = np.asarray(rows)
    except (ValueError, OverflowError):  # ragged or too deeply nested rows
        return None
    if frames.dtype.kind in "iuf" and frames.ndim == 2 and frames.shape[1] == N_BINS:
        frames = frames.astype(float, copy=False)
        if np.all(np.isfinite(frames) & (frames >= 0)):
            return frames
    return None


def _parse_rows(rows, path) -> np.ndarray:
    """Validate (line_number, cells) pairs into an (N, 12) array in one
    vectorised pass; only on failure does the row loop name the bad row."""
    try:
        frames = _checked([[float(cell) for cell in cells] for _, cells in rows])
    except (TypeError, ValueError, OverflowError):
        frames = None
    if frames is not None:
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


def _plain_csv_frames(text: str):
    """Frames of CSV text that needs none of the csv module's rules, else None
    (quotes, lone carriage returns, overlong fields, ragged or bad rows)."""
    if "\r" in text:  # a scan for one character is far cheaper than replace
        text = text.replace("\r\n", "\n")
    lines = list(filter(None, text.split("\n")))
    limit = csv.field_size_limit()
    if '"' in text or "\r" in text or max(map(len, lines), default=0) > limit:
        return None
    if lines and not _is_number(lines[0].split(",", 1)[0]):
        del lines[0]  # header row
    if {line.count(",") for line in lines} != {N_BINS - 1}:
        return None
    try:
        frames = np.array(list(map(float, ",".join(lines).split(","))))
    except ValueError:
        return None
    return _checked(frames.reshape(-1, N_BINS))


def load_chroma_csv(path) -> ChromaSequence:
    """Load chroma frames from UTF-8 CSV: one row per frame, 12 numeric columns.

    An optional first header row is detected by a non-numeric first cell.
    Blank and whitespace-only rows are skipped; cells may be quoted and may
    carry surrounding whitespace.  Malformed rows (wrong column count,
    negative, NaN, non-numeric) raise ChromaError naming the offending row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChromaError(f"cannot read chroma CSV {path}: {exc}") from exc
    frames = _plain_csv_frames(text)
    if frames is not None:
        return ChromaSequence(frames, frame_rate=None, source=str(path))
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for cells in reader:
            if not cells or all(not cell.strip() for cell in cells):
                continue
            if not rows and not _is_number(cells[0]):
                continue  # header row
            rows.append((reader.line_num, [cell.strip() for cell in cells]))
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
    """Load chroma from JSON: {"frame_rate"?: number, "frames": [[12 numbers], ...]}.

    JSON booleans and strings are not numbers, neither as ``frame_rate``
    nor as a cell.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise ChromaError(f"cannot read chroma JSON {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ChromaError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(data, dict) or "frames" not in data:
        raise ChromaError(f'{path}: expected a JSON object with a "frames" field')
    raw = data["frames"]
    if not isinstance(raw, list):
        raise ChromaError(f'{path}: "frames" must be a list of 12-element rows')
    # numpy reads a boolean as 1: only a text without one takes the fast path
    frames = None if "true" in text or "false" in text else _checked(raw)
    if frames is None:  # the row loop names the bad row
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise ChromaError(f"{path}: row {i}: expected a list of {N_BINS} numbers")
            # None makes _parse_rows call the row non-numeric
            rows.append((i, [None if isinstance(c, (bool, str)) else c for c in row]))
        frames = _parse_rows(rows, path)
    frame_rate = data.get("frame_rate")
    if frame_rate is not None and type(frame_rate) not in (int, float):
        raise ChromaError(f'{path}: "frame_rate" must be a number')
    return ChromaSequence(frames, frame_rate=frame_rate, source=str(path))


def _json_list(items, indent: int) -> str:
    """A list laid out as ``json.dumps(..., indent=2)`` lays it out at
    ``indent`` spaces, from items already encoded as JSON text."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def chroma_json_text(seq: ChromaSequence) -> str:
    """Chroma frames (and frame_rate when known) as JSON text, laid out as
    ``json.dumps(..., indent=2)``; ``repr`` is JSON's form of a finite float."""
    head = "" if seq.frame_rate is None else f'  "frame_rate": {seq.frame_rate!r},\n'
    rows = [_json_list(list(map(repr, row)), 4) for row in seq.frames.tolist()]
    return "{\n" + head + '  "frames": ' + _json_list(rows, 2) + "\n}\n"


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
    The STFT runs in blocks of about 1 MB of samples, so working memory
    beyond the samples is one frames x band-bins power buffer.
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
    # the bins in [fmin, fmax] are freqs[lo:hi], as freqs ascend
    lo, hi = np.searchsorted(freqs, fmin), np.searchsorted(freqs, fmax, "right")
    if lo == hi:
        raise ChromaError("no spectral bins fall inside [fmin, fmax]")
    pitch_classes = (
        np.round(12.0 * np.log2(freqs[lo:hi] / ref_a4)).astype(int) + 69
    ) % N_BINS
    fold = np.zeros((hi - lo, N_BINS))
    fold[np.arange(hi - lo), pitch_classes] = 1.0

    window = np.hanning(window_size)
    segments = np.lib.stride_tricks.sliding_window_view(samples, window_size)
    segments = segments[::hop_size]
    # F-ordered: from a C-ordered buffer BLAS sums in another order (last bits)
    power = np.empty((hi - lo, len(segments))).T
    block = max(1, 2**17 // window_size)  # frames per FFT, ~1 MB of samples
    for i in range(0, len(segments), block):
        spectrum = np.fft.rfft(segments[i : i + block] * window, axis=1)
        power[i : i + block] = np.abs(spectrum[:, lo:hi]) ** 2
    frames = power @ fold
    frames[frames < 0] = 0.0  # guard against negative rounding dust
    return ChromaSequence(
        frames, frame_rate=sample_rate / hop_size, source=str(path)
    )
