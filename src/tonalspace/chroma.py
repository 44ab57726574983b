"""Chroma file I/O, temporal aggregation, and a minimal WAV extractor.

Framewise chroma is the library's primary input and normally comes from a
dedicated extractor (HPCP, NNLS, ...) via CSV or JSON.  The built-in WAV
extractor -- its own RIFF reader, then a Hann-windowed STFT whose bin powers are
folded into pitch classes, with no harmonic weighting or tuning estimation --
runs the pipeline end to end on numpy alone.  Prefer file input for real analyses.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import struct
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .core import N_BINS, _as_bins, _as_floats, _as_int, _as_real, _frozen, _readonly, _row_blocks
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

    ``ChromaSequence(frames, frame_rate=None)``: ``frames`` is an (N, 12) float array
    of nonnegative finite values; ``frame_rate`` is frames per second when known.
    """

    frames: np.ndarray
    frame_rate: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "frames", _frozen(_as_bins(self.frames, ndims=(2,))))
        if self.frame_rate is not None:
            rate = _as_real(self.frame_rate, "frame_rate", positive=True)
            last = len(self) - 1  # every frame time i / rate must be finite
            if last > 0 and not math.isfinite(last / rate):
                raise ChromaError(f"frame_rate {rate!r}: the time of frame {last} overflows")
            object.__setattr__(self, "frame_rate", rate)

    def __len__(self) -> int:
        return self.frames.shape[0]


def _parse_rows(rows, path) -> np.ndarray:
    """(line_number, cells) pairs, taken one at a time, as an (N, 12) array
    packed into one float buffer; raises ChromaError naming the first bad
    row in file order."""
    values = array("d")
    for line_num, cells in rows:
        if len(cells) != N_BINS:
            raise ChromaError(
                f"{path}: row {line_num}: expected {N_BINS} columns, got {len(cells)}"
            )
        try:
            row = [float(cell) for cell in cells]
        except (TypeError, ValueError):
            raise ChromaError(f"{path}: row {line_num}: non-numeric chroma value") from None
        except OverflowError:  # an integer beyond the float range
            row = [np.inf]
        if not all(map(math.isfinite, row)):
            raise ChromaError(f"{path}: row {line_num}: non-finite chroma value")
        if min(row) < 0:
            raise ChromaError(f"{path}: row {line_num}: negative chroma value")
        values.extend(row)
    if not values:
        raise ChromaError(f"{path}: no chroma frames found")
    return np.frombuffer(values).reshape(-1, N_BINS)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def _lines_within(fh, limit: int):
    """The lines of ``fh`` that are not blank; ValueError at one of over ``limit``
    characters, a length the csv module refuses as a field."""
    for line in fh:
        if len(line) > limit:
            raise ValueError("line too long")
        if not line.isspace():
            yield line


def _plain_csv_frames(fh):
    """The unchecked (N, k) floats of CSV text ``fh`` (opened with
    ``newline=""``) when numpy's reader takes it, else None: anything that
    needs the csv module's rules (quotes, overlong fields), ragged or text
    rows, spellings ``float`` accepts and numpy does not (``1_0``), bytes
    that are not UTF-8, or no data row."""
    lines = _lines_within(fh, csv.field_size_limit())
    try:
        first = next(lines, "")
        if '"' in first:  # a quoted header may run on past its line
            return None
        if not _is_number(first.split(",", 1)[0].strip()):
            first = next(lines, "")  # the header row
        if not first:  # loadtxt would warn of no data
            return None
        return np.loadtxt(
            itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2
        )
    except ValueError:  # also UnicodeDecodeError
        return None


def load_chroma_csv(path) -> ChromaSequence:
    """Load chroma frames from UTF-8 CSV: one row per frame, 12 numeric columns.

    Cells may be quoted; each is stripped (``str.strip``) before any test.
    A row whose cells are all blank is skipped like a blank line, and only
    the first remaining row may be a header, skipped when its first cell is
    not a number.  A leading BOM is ignored.  Malformed rows
    (wrong column count, negative, NaN, text) raise ChromaError naming the
    first fault in file order.  A plain file is parsed line by line by
    ``np.loadtxt``; one that needs the csv module's rules, or holds a bad
    row, is streamed again through ``csv.reader`` (a pipe is read whole
    first, as it cannot be read twice).
    """
    try:
        with open(path, "rb") as raw:
            # a pipe cannot be read twice, and the row loop may need a second read
            fh = raw if raw.seekable() else io.BytesIO(raw.read())
            with io.TextIOWrapper(fh, encoding="utf-8-sig", newline="") as text_fh:
                frames = _plain_csv_frames(text_fh)
                if frames is not None:
                    try:
                        return ChromaSequence(_readonly(frames))
                    except ChromaError:
                        frames = None  # freed: the row loop below names the bad row
                text_fh.seek(0)
                # decoded whole once, so a bad byte is named by its offset, and dropped: parsing
                # it from memory (io.StringIO, 4 bytes a character) about doubles the peak
                text_fh.read()
                text_fh.seek(0)
                reader = csv.reader(text_fh)
                rows = ((reader.line_num, [cell.strip() for cell in cells]) for cells in reader)
                rows = (row for row in rows if any(row[1]))  # an all-blank row is a blank line
                try:
                    head = next(rows, None)  # the one row that may be a header
                    if head and _is_number(head[1][0]):
                        rows = itertools.chain([head], rows)
                    frames = _parse_rows(rows, path)
                except csv.Error as exc:
                    raise ChromaError(f"{path}: malformed CSV: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ChromaError(f"cannot read chroma CSV {path}: {exc}") from exc
    return ChromaSequence(frames)


def _rows(template: str, columns):
    """The rows of ``columns`` (of one length) as ``template % row`` texts, one
    iterator per block of rows.  ``%s`` of an int or a finite float is its
    ``repr`` (frame times are finite, see ``ChromaSequence``), which is also its
    JSON form; an object column holds text that is written as it is."""
    for rows in _row_blocks(len(columns[0])):
        yield map(template.__mod__, zip(*(column[rows].tolist() for column in columns)))


def _json_list(blocks, indent: int):
    """A list laid out as ``json.dumps(..., indent=2)`` lays it out at
    ``indent`` spaces, from ``blocks`` of items already encoded as JSON text;
    one piece per nonempty block."""
    pad = "\n" + " " * indent
    sep = "," + pad + "  "
    lead = "[" + pad + "  "
    for items in blocks:
        if text := sep.join(items):
            yield lead + text
            lead = sep
    yield "[]" if lead[0] == "[" else pad + "]"


def _write_text(pieces, path) -> None:
    """Write the text ``pieces`` to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


_ROW_CSV = ",".join(["%s"] * N_BINS) + "\n"


def chroma_csv_text(seq: ChromaSequence):
    """Chroma frames as headerless CSV text, full ``repr`` precision, in pieces."""
    return map("".join, _rows(_ROW_CSV, seq.frames.T))


def save_chroma_csv(seq: ChromaSequence, path) -> None:
    """Write ``chroma_csv_text(seq)`` to ``path``, or to stdout when ``path`` is None."""
    _write_text(chroma_csv_text(seq), path)


def _json_object(path, what: str, fields) -> dict:
    """The JSON object, with all of ``fields``, in UTF-8 file ``path`` (BOM ignored)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ChromaError(f"cannot read {what} {path}: {exc}") from exc  # also too deep
    if not isinstance(data, dict):
        raise ChromaError(f"{what} {path} must hold a JSON object")
    for field in fields:
        if field not in data:
            raise ChromaError(f"{what} {path} is missing field {field!r}")
    return data


def load_chroma_json(path) -> ChromaSequence:
    """Load chroma from JSON: {"frame_rate"?: number, "frames": [[12 numbers], ...]}.

    JSON booleans and strings are not numbers, neither as ``frame_rate`` (checked
    first) nor as a cell.  The file is read as profile files are (``_json_object``: a
    BOM is ignored, and a bad file refused in the same words).  Unlike the CSV loader,
    this one holds the whole file: the standard library's ``json`` has no incremental
    parser, so the full object tree (a Python float per cell) exists before the frames.
    """
    data = _json_object(path, "chroma JSON", ("frames",))
    raw = data["frames"]
    if not isinstance(raw, list):
        raise ChromaError(f'{path}: "frames" must be a list of 12-element rows')
    frame_rate = data.get("frame_rate")
    if frame_rate is not None:
        frame_rate = _as_real(frame_rate, f'{path}: "frame_rate"', positive=True)
    try:
        frames = _readonly(_as_floats(raw, "chroma bins"))  # a new array: held without a copy
        return ChromaSequence(frames, frame_rate=frame_rate)
    except ChromaError:
        pass  # the row loop names the bad row

    def rows():
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise ChromaError(f"{path}: row {i}: expected a list of {N_BINS} numbers")
            # None makes _parse_rows call the row non-numeric
            yield i, [None if isinstance(c, (bool, str)) else c for c in row]

    frames = _parse_rows(rows(), path)
    try:
        return ChromaSequence(frames, frame_rate=frame_rate)
    except ChromaError as exc:  # every row passed: the frame rate is refused
        raise ChromaError(f"{path}: {exc}") from None


_ROW_JSON = "[" + ",".join(["\n      %s"] * N_BINS) + "\n    ]"


def chroma_json_text(seq: ChromaSequence):
    """Chroma frames (and frame_rate when known) as JSON text laid out as
    ``json.dumps(..., indent=2)``, in pieces."""
    head = "" if seq.frame_rate is None else f'  "frame_rate": {seq.frame_rate!r},\n'
    yield "{\n" + head + '  "frames": '
    yield from _json_list(_rows(_ROW_JSON, seq.frames.T), 2)
    yield "\n}\n"


def save_chroma_json(seq: ChromaSequence, path) -> None:
    """Write ``chroma_json_text(seq)`` to ``path``, or to stdout when ``path`` is None."""
    _write_text(chroma_json_text(seq), path)


def global_chroma(seq: ChromaSequence, start=None, stop=None) -> np.ndarray:
    """Element-wise mean of frames[start:stop] (defaults: the whole sequence).

    Averaging frames before the interval-vector computation trades detail for
    a global summary of a passage; a mean that overflows raises ChromaError.
    """
    n = len(seq)
    lo = 0 if start is None else _as_int(start, "start")
    hi = n if stop is None else _as_int(stop, "stop")
    if lo < 0 or hi > n or lo >= hi:
        raise DegenerateInputError(
            f"empty or out-of-bounds frame range [{lo}, {hi}) for {n} frames"
        )
    block = seq.frames[lo:hi]
    # baseline + mean of deviations (ndarray.mean's sum and division, unwrapped): bit-exact
    # when all frames are equal; the clip absorbs sub-ulp noise that could dip below zero
    with np.errstate(over="ignore", invalid="ignore"):
        mean = block[0] + np.add.reduce(block - block[0], axis=0) / len(block)
    if not np.isfinite(mean).all():
        raise ChromaError("the frame mean overflows the float range")
    return np.maximum(mean, 0.0)


def window_average(seq: ChromaSequence, n: int) -> ChromaSequence:
    """Average non-overlapping blocks of ``n`` consecutive frames.

    A ragged final block is averaged over its own length.  The frame rate
    divides by ``n``.  ``n`` = 1 returns the sequence unchanged.  A block
    whose mean overflows the float range raises ChromaError.
    """
    n = _as_int(n, "window-average size", minimum=1)
    if n == 1:
        return seq
    frames = seq.frames
    full = len(frames) // n * n  # frames in whole blocks
    blocks = np.empty((-(-len(frames) // n), N_BINS))
    with np.errstate(over="ignore"):  # an overflowing mean is refused below
        if full:  # n may exceed what reshape takes when there is no whole block
            frames[:full].reshape(-1, n, N_BINS).mean(axis=1, out=blocks[: full // n])
        if full < len(frames):
            blocks[-1] = frames[full:].mean(axis=0)
    if not np.isfinite(blocks).all():
        raise ChromaError("the frame mean overflows the float range")
    rate = None if seq.frame_rate is None else seq.frame_rate / n
    return ChromaSequence(_readonly(blocks), frame_rate=rate)


_WAV_DTYPES = {(1, 1): "u1", (1, 2): "<i2", (1, 3): "<i4", (1, 4): "<i4", (1, 8): "<i8",
               (3, 4): "<f4", (3, 8): "<f8"}  # (format tag: 1 PCM, 3 float; sample bytes)


def _read_wav(path):
    """``(sample rate, samples)`` of a RIFF WAV file: ``(n,)`` samples for mono,
    ``(n, channels)`` otherwise, of the dtype ``_WAV_DTYPES`` gives its format."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ChromaError(f"cannot read WAV file {path}: {exc}") from exc
    refused = f"{path}: unsupported WAV file: "
    fmt, chunk, pos = b"", b"", 20  # pos: the body of the chunk whose header is at pos - 8
    while raw[:4] == b"RIFF" and raw[8:12] == b"WAVE" and pos <= len(raw):
        chunk, size = struct.unpack_from("<4sI", raw, pos - 8)
        if chunk == b"data":
            break
        if chunk == b"fmt ":
            fmt = raw[pos : pos + min(size, 40)]
        pos += size + size % 2 + 8
    if chunk != b"data" or len(fmt) < 16:
        raise ChromaError(refused + "not RIFF WAVE with a full fmt chunk before the data")
    tag, channels, rate, _, align = struct.unpack_from("<HHIIH", fmt)
    if tag == 0xFFFE and fmt[28:40] == bytes.fromhex("00001000800000aa00389b71"):
        tag = int.from_bytes(fmt[24:28], "little")  # the tag in an extensible subformat GUID
    width = align // channels if channels else 0
    dtype = _WAV_DTYPES.get((tag, width))
    if dtype is None:
        raise ChromaError(refused + f"format tag {tag:#x}, {channels} channels of {width} bytes")
    count = min(size, len(raw) - pos) // (width * channels) * channels
    # 3-byte samples: int32 read from the byte before each, which the mask clears
    data = (np.ndarray((count,), dtype, raw, pos - 1, (3,)) & -256 if width == 3
            else np.frombuffer(raw, dtype, count, pos))
    return rate, data if channels == 1 else data.reshape(-1, channels)


def _to_float_samples(data: np.ndarray, path) -> np.ndarray:
    """Normalize WAV samples to float64 in about [-1, 1]; b-bit PCM is scaled by 2**(1 - b)."""
    if data.dtype == np.uint8:  # unsigned, centred on 128
        return np.multiply(np.subtract(data, 128.0), 2.0**-7)
    if data.dtype in (np.int16, np.int32):  # int32 also covers 24-bit PCM
        return np.multiply(data, 2.0 ** (1 - 8 * data.itemsize))
    if data.dtype in (np.float32, np.float64):
        if not np.isfinite(data).all():
            raise ChromaError(f"{path}: WAV samples must be finite (no NaN or infinity)")
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
    beyond the samples is one frames x band-bins power buffer (WAV formats: ``errors.py``).
    """
    window_size = _as_int(window_size, "window_size", minimum=2)
    if window_size & (window_size - 1):
        raise ChromaError("window_size must be a power of two >= 2")
    hop_size = _as_int(hop_size, "hop_size", minimum=1)
    fmin = _as_real(fmin, "fmin", positive=True)
    fmax = _as_real(fmax, "fmax")
    if not fmin < fmax:
        raise ChromaError("need 0 < fmin < fmax")
    ref_a4 = _as_real(ref_a4, "reference A4 frequency", positive=True)
    if not math.isfinite(fmax / ref_a4):
        raise ChromaError(f"reference A4 frequency {ref_a4!r}: fmax / A4 overflows")

    sample_rate, data = _read_wav(path)
    sample_rate = _as_real(sample_rate, f"{path}: sample rate", positive=True)
    samples = _to_float_samples(data, path)
    if samples.ndim == 2:
        with np.errstate(over="ignore"):  # an infinite mean makes the frames non-finite: refused
            samples = samples.mean(axis=1)
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing power is refused below
        for i in range(0, len(segments), block):
            spectrum = np.fft.rfft(segments[i : i + block] * window, axis=1)
            power[i : i + block] = np.abs(spectrum[:, lo:hi]) ** 2
        frames = _readonly(power @ fold)
    if not np.isfinite(frames).all():
        raise ChromaError(f"{path}: the spectral power overflows the float range")
    return ChromaSequence(frames, frame_rate=sample_rate / hop_size)
