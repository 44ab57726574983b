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
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import N_BINS, _as_bins, _as_int, _as_real, _frozen
from .errors import ChromaError, DegenerateInputError

# Built-in extractor defaults; override via function arguments / CLI flags.
DEFAULT_WINDOW_SIZE = 4096
DEFAULT_HOP_SIZE = 1024
DEFAULT_FMIN = 55.0
DEFAULT_FMAX = 5000.0
DEFAULT_A4 = 440.0

# Bytes read at a time by the plain CSV parser.
_PIECE_BYTES = 1 << 16

# Rows rendered at a time by every text writer.
_BLOCK_ROWS = 4096


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
    """(line_number, cells) pairs as an (N, 12) array; raises ChromaError
    naming the first bad row."""
    frames = []
    for line_num, cells in rows:
        if len(cells) != N_BINS:
            raise ChromaError(
                f"{path}: row {line_num}: expected {N_BINS} columns, got {len(cells)}"
            )
        try:
            values = [float(cell) for cell in cells]
        except (TypeError, ValueError):
            raise ChromaError(f"{path}: row {line_num}: non-numeric chroma value") from None
        except OverflowError:  # an integer beyond the float range
            values = [np.inf]
        if not all(map(math.isfinite, values)):
            raise ChromaError(f"{path}: row {line_num}: non-finite chroma value")
        if min(values) < 0:
            raise ChromaError(f"{path}: row {line_num}: negative chroma value")
        frames.append(values)
    if not frames:
        raise ChromaError(f"{path}: no chroma frames found")
    return np.array(frames)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def _text_pieces(fh, max_line: int):
    """The text of binary UTF-8 ``fh`` in pieces of whole lines, without a
    leading BOM.  The file is read ``_PIECE_BYTES`` at a time and each piece
    is cut after its last ``\\n``, which splits no UTF-8 character and no
    ``\\r\\n``.  Raises UnicodeDecodeError, or ValueError for a line of over
    ``max_line`` bytes."""
    rest, encoding = b"", "utf-8-sig"
    while piece := fh.read(_PIECE_BYTES):
        data = rest + piece
        cut = data.rfind(b"\n") + 1
        data, rest = data[:cut], data[cut:]
        if len(rest) > max_line:
            raise ValueError("line too long")
        if data:
            yield data.decode(encoding)
            encoding = "utf-8"
    yield rest.decode(encoding)


def _plain_csv_frames(fh):
    """Unchecked (N, 12) floats of a binary CSV file that needs none of the csv
    module's rules, else None (quotes, lone CRs, overlong fields, ragged or
    text rows, bytes that are not UTF-8).  The file is read in pieces, and
    each piece's values are appended to one growing buffer."""
    limit = csv.field_size_limit()
    values = bytearray()  # the float64 values, appended piece by piece
    header_checked = False
    try:
        # a line of over 4 * limit + 8 bytes has over ``limit`` characters
        for text in _text_pieces(fh, 4 * limit + 8):
            if "\r" in text:  # a scan for one character is far cheaper than replace
                text = text.replace("\r\n", "\n")
            lines = list(filter(None, text.split("\n")))
            if '"' in text or "\r" in text or max(map(len, lines), default=0) > limit:
                return None
            if lines and not header_checked:
                header_checked = True
                if not _is_number(lines[0].split(",", 1)[0]):
                    del lines[0]  # header row
            if not lines:
                continue
            if {line.count(",") for line in lines} != {N_BINS - 1}:
                return None
            cells = ",".join(lines).split(",")
            values += np.fromiter(map(float, cells), float, len(cells)).tobytes()
    except (UnicodeDecodeError, ValueError):
        return None
    return np.frombuffer(values).reshape(-1, N_BINS) if values else None


def load_chroma_csv(path) -> ChromaSequence:
    """Load chroma frames from UTF-8 CSV: one row per frame, 12 numeric columns.

    An optional first header row is detected by a non-numeric first cell.
    Blank and whitespace-only rows are skipped; cells may be quoted and may
    carry surrounding whitespace; a leading BOM is ignored.  Malformed rows
    (wrong column count, negative, NaN, text) raise ChromaError naming it.
    A plain file is read in fixed-size pieces; one that needs the csv
    module's rules, or names a bad row, is read again as one text (a pipe
    is read whole first, as it cannot be read twice).
    """
    try:
        with open(path, "rb") as raw:
            # a pipe cannot be read twice, and the row loop may need a second read
            fh = raw if raw.seekable() else io.BytesIO(raw.read())
            frames = _plain_csv_frames(fh)
            if frames is not None:
                try:
                    return ChromaSequence(frames, source=str(path))
                except ChromaError:
                    frames = None  # freed: the row loop below names the bad row
            fh.seek(0)
            with io.TextIOWrapper(fh, encoding="utf-8-sig", newline="") as text_fh:
                text = text_fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChromaError(f"cannot read chroma CSV {path}: {exc}") from exc
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
    return ChromaSequence(_parse_rows(rows, path), source=str(path))


def _row_blocks(n: int):
    """Slices of ``_BLOCK_ROWS`` rows that cover ``range(n)``."""
    return (slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS))


def _cells(column, rows):
    """The cells ``column[rows]`` as text.  A column is an array, or one text
    that stands for each of its cells.  ``repr`` is the one encoder: every
    cell is an int or a finite float (frame times are finite, see
    ``ChromaSequence``), whose ``repr`` is also its JSON form."""
    if isinstance(column, str):
        return itertools.repeat(column)
    return map(repr, column[rows].tolist())


def _csv_lines(n: int, columns):
    """The ``n`` rows of ``columns`` as CSV lines, one piece per block of rows."""
    for rows in _row_blocks(n):
        cells = zip(*(_cells(column, rows) for column in columns))
        yield "\n".join(map(",".join, cells)) + "\n"


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


def chroma_csv_text(seq: ChromaSequence):
    """Chroma frames as headerless CSV text, full ``repr`` precision, in pieces."""
    return _csv_lines(len(seq), list(seq.frames.T))


def save_chroma_csv(seq: ChromaSequence, path) -> None:
    """Write ``chroma_csv_text(seq)`` to ``path``."""
    _write_text(chroma_csv_text(seq), path)


def load_chroma_json(path) -> ChromaSequence:
    """Load chroma from JSON: {"frame_rate"?: number, "frames": [[12 numbers], ...]}.

    JSON booleans and strings are not numbers, neither as ``frame_rate``
    (checked first) nor as a cell.  A leading BOM is ignored.  Unlike the
    CSV loader, this one holds the whole file: the standard library's
    ``json`` has no incremental parser, so the full object tree (a Python
    float per cell) exists before the frames are built.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ChromaError(f"cannot read chroma JSON {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ChromaError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(data, dict) or "frames" not in data:
        raise ChromaError(f'{path}: expected a JSON object with a "frames" field')
    raw = data["frames"]
    if not isinstance(raw, list):
        raise ChromaError(f'{path}: "frames" must be a list of 12-element rows')
    frame_rate = data.get("frame_rate")
    if frame_rate is not None:
        frame_rate = _as_real(frame_rate, f'{path}: "frame_rate"', positive=True)
    try:
        return ChromaSequence(raw, frame_rate=frame_rate, source=str(path))
    except ChromaError:
        pass  # the row loop names the bad row
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise ChromaError(f"{path}: row {i}: expected a list of {N_BINS} numbers")
        # None makes _parse_rows call the row non-numeric
        rows.append((i, [None if isinstance(c, (bool, str)) else c for c in row]))
    return ChromaSequence(_parse_rows(rows, path), frame_rate=frame_rate, source=str(path))


_ROW_JSON = "[" + ",".join(["\n      %s"] * N_BINS) + "\n    ]"


def chroma_json_text(seq: ChromaSequence):
    """Chroma frames (and frame_rate when known) as JSON text laid out as
    ``json.dumps(..., indent=2)``, in pieces."""
    head = "" if seq.frame_rate is None else f'  "frame_rate": {seq.frame_rate!r},\n'
    yield "{\n" + head + '  "frames": '
    columns = list(seq.frames.T)
    blocks = (zip(*(_cells(column, rows) for column in columns)) for rows in _row_blocks(len(seq)))
    yield from _json_list((map(_ROW_JSON.__mod__, cells) for cells in blocks), 2)
    yield "\n}\n"


def save_chroma_json(seq: ChromaSequence, path) -> None:
    """Write ``chroma_json_text(seq)`` to ``path``."""
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
    # baseline + mean of deviations: bit-exact when all frames are equal;
    # the clip absorbs sub-ulp cancellation noise that could dip below zero
    with np.errstate(over="ignore", invalid="ignore"):
        mean = block[0] + (block - block[0]).mean(axis=0)
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
    return ChromaSequence(blocks, frame_rate=rate, source=seq.source)


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
    window_size = _as_int(window_size, "window_size", minimum=2)
    if window_size & (window_size - 1):
        raise ChromaError("window_size must be a power of two >= 2")
    hop_size = _as_int(hop_size, "hop_size", minimum=1)
    fmin = _as_real(fmin, "fmin", positive=True)
    fmax = _as_real(fmax, "fmax")
    if not fmin < fmax:
        raise ChromaError("need 0 < fmin < fmax")
    ref_a4 = _as_real(ref_a4, "reference A4 frequency", positive=True)

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
