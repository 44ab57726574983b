"""Output checker that shares no code with ``tonalspace``.

The reference is computed in batch straight from the generated frames:
interval vectors are ``np.fft.fft(F / e, axis=1)[:, 1:7] * w``, the
qualities and harmonic change are column operations on them, and the key
is a plain nearest-of-24 search with alpha applied to the query for the
minor references.  Per-frame qualities and lambda must agree within 1e-9
(relative above 1); frame counts, peak indices and key indices must be
equal.  Report fields the checker does not know are ignored, so additive
report changes do not count as failures.
"""

from __future__ import annotations

import json

import numpy as np

WEIGHTS = np.array([3.0, 8.0, 11.5, 15.0, 14.5, 7.5])
HARTE = (3, 4, 5)
QUALITIES = ("chromaticity", "diatonicity", "wholetoneness", "dissonance")
TOLERANCE = 1e-9
PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

# (major, minor, alpha): Temperley 1999 and Sha'ath 2011, as published
PROFILES = {
    "temperley": (
        (5.0, 2.0, 3.5, 2.0, 4.5, 4.0, 2.0, 4.5, 2.0, 3.5, 1.5, 4.0),
        (5.0, 2.0, 3.5, 4.5, 2.0, 4.0, 2.0, 4.5, 3.5, 2.0, 1.5, 4.0),
        0.2,
    ),
    "shaath": (
        (6.6, 2.0, 3.5, 2.3, 4.6, 4.0, 2.5, 5.2, 2.4, 3.7, 2.3, 3.4),
        (6.5, 2.7, 3.5, 5.4, 2.6, 3.5, 2.5, 5.2, 4.0, 2.7, 4.3, 3.2),
        0.55,
    ),
}


# ------------------------------------------------------------ reference


def interval_vectors(frames: np.ndarray, w: np.ndarray = WEIGHTS) -> np.ndarray:
    """(N, 6) complex weighted DFT coefficients; silent rows are zero."""
    frames = np.atleast_2d(np.asarray(frames, dtype=float))
    energy = frames.sum(axis=1, keepdims=True)
    silent = energy[:, 0] == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        coeffs = np.fft.fft(frames / energy, axis=1)[:, 1:7] * w
    coeffs[silent] = 0.0
    return coeffs


def qualities(coeffs: np.ndarray, w: np.ndarray = WEIGHTS) -> np.ndarray:
    """(N, 4) chromaticity, diatonicity, wholetoneness, dissonance."""
    mags = np.abs(coeffs)
    return np.column_stack(
        [
            mags[:, 0] / w[0],
            mags[:, 4] / w[4],
            mags[:, 5] / w[5],
            1.0 - np.sqrt((mags**2).sum(axis=1)) / np.sqrt((w**2).sum()),
        ]
    )


def harmonic_change(coeffs: np.ndarray, subset=None):
    """lambda_m = |T(m-1) - T(m+1)| and the strict-left local maxima at or
    above the adaptive mean + std floor; returns (lambda, peaks)."""
    if subset is not None:
        coeffs = coeffs[:, [k - 1 for k in subset]]
    lam = np.zeros(len(coeffs))
    if len(coeffs) < 3:
        return lam, np.zeros(0, dtype=int)
    lam[1:-1] = np.sqrt((np.abs(coeffs[2:] - coeffs[:-2]) ** 2).sum(axis=1))
    floor = lam.mean() + lam.std()
    mid = lam[1:-1]
    is_peak = (lam[:-2] < mid) & (mid >= lam[2:]) & (mid >= floor)
    return lam, np.flatnonzero(is_peak) + 1


def key_index(chroma: np.ndarray, profile: str, w: np.ndarray = WEIGHTS) -> int:
    """Index 0..23 (C..B major, C..B minor) of the nearest key reference."""
    major, minor, alpha = PROFILES[profile]
    refs = interval_vectors(
        [np.roll(major, r) for r in range(12)] + [np.roll(minor, r) for r in range(12)], w
    )
    query = interval_vectors(chroma, w)[0]
    scaled = np.where(np.arange(24)[:, None] < 12, 1.0, alpha) * query
    return int(np.argmin(np.sqrt((np.abs(scaled - refs) ** 2).sum(axis=1))))


def key_label(index: int) -> str:
    return f"{PITCH_CLASS_NAMES[index % 12]} {'major' if index < 12 else 'minor'}"


def analyze_reference(frames: np.ndarray, profile: str = "temperley", subset=None) -> dict:
    """Everything ``check_analyze`` compares, for one analyze run."""
    coeffs = interval_vectors(frames)
    lam, peaks = harmonic_change(coeffs, subset)
    global_chroma = frames.mean(axis=0)
    return {
        "qualities": qualities(coeffs),
        "lambda": lam,
        "peaks": peaks,
        "global": qualities(interval_vectors(global_chroma))[0],
        "key": key_index(global_chroma, profile),
    }


def extract_chroma(samples, rate, window=4096, hop=1024, fmin=55.0, fmax=5000.0, a4=440.0):
    """Hann-windowed STFT power folded into pitch classes, one frame per hop,
    for int16 mono samples; returns (frames, frame_rate)."""
    x = np.asarray(samples).astype(np.float64) / 2.0**15
    freqs = np.fft.rfftfreq(window, 1.0 / rate)
    band = np.flatnonzero((freqs >= fmin) & (freqs <= fmax))
    pcs = (np.round(12.0 * np.log2(freqs[band] / a4)).astype(int) + 69) % 12
    starts = np.arange(0, len(x) - window + 1, hop)
    frames = np.zeros((len(starts), 12))
    hann = np.hanning(window)
    for lo in range(0, len(starts), 512):
        idx = starts[lo : lo + 512, None] + np.arange(window)
        power = np.abs(np.fft.rfft(x[idx] * hann, axis=1)) ** 2
        np.add.at(frames[lo : lo + 512].T, pcs, power[:, band].T)
    return frames, rate / hop


# ------------------------------------------------------------- parsing


def parse_csv_report(text: str) -> dict:
    """Normalise an ``analyze`` CSV report to the fields the checker knows."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            name, _, value = line[2:].partition(": ")
            try:
                meta[name] = json.loads(value)
            except ValueError:
                meta[name] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError("no column header")
    columns = {name: i for i, name in enumerate(header)}
    report = {
        "frames": meta.get("frames"),
        "rows": len(rows),
        "peaks": meta.get("hchange-peaks"),
        "key": meta.get("key"),
        "global": [meta.get(f"global-{name}") for name in QUALITIES],
    }
    for name in QUALITIES + ("lambda",):
        report[name] = np.array([float(row[columns[name]]) for row in rows])
    return report


def parse_json_report(text: str) -> dict:
    """Normalise an ``analyze`` JSON report to the fields the checker knows."""
    data = json.loads(text)
    frames = data["frames"]
    report = {
        "frames": data["metadata"]["frames"],
        "rows": len(frames),
        "peaks": data["hchange"]["peaks"],
        "key": data["global"]["key"],
        "global": [data["global"][name] for name in QUALITIES],
    }
    for name in QUALITIES + ("lambda",):
        report[name] = np.array([frame[name] for frame in frames], dtype=float)
    return report


# ------------------------------------------------------------ checking


def _close(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= TOLERANCE * np.maximum(1.0, np.abs(want))))


def check_analyze(report: dict, ref: dict) -> list[str]:
    """Problems found in a normalised analyze report; empty means correct."""
    n = len(ref["lambda"])
    problems = []
    if report["frames"] != n or report["rows"] != n:
        problems.append(f"frames: got {report['frames']}/{report['rows']} rows, want {n}")
        return problems
    for i, name in enumerate(QUALITIES):
        if not _close(report[name], ref["qualities"][:, i]):
            problems.append(f"per-frame {name} differs from the reference")
    if not _close(report["lambda"], ref["lambda"]):
        problems.append("per-frame lambda differs from the reference")
    if report["peaks"] != [int(p) for p in ref["peaks"]]:
        problems.append("harmonic-change peaks differ from the reference")
    if None in report["global"] or not _close(report["global"], ref["global"]):
        problems.append("global qualities differ from the reference")
    key = report["key"]
    if not isinstance(key, dict) or key.get("index") != int(ref["key"]):
        problems.append(f"key: got {key}, want index {int(ref['key'])}")
    return problems


def check_key_line(text: str, want: int) -> list[str]:
    """``key`` prints '<index> <tonic> <mode>'; trailing fields are ignored."""
    fields = text.split()
    if fields[:1] != [str(want)] or " ".join(fields[1:3]) != key_label(want):
        return [f"key: got {text.strip()!r}, want '{want} {key_label(want)}'"]
    return []


def check_chroma_json(text: str, frames: np.ndarray, frame_rate: float) -> list[str]:
    """Extracted chroma must match the reference STFT within tolerance."""
    data = json.loads(text)
    got = np.asarray(data["frames"], dtype=float)
    problems = []
    if data.get("frame_rate") != frame_rate:
        problems.append(f"frame_rate: got {data.get('frame_rate')}, want {frame_rate}")
    scale = float(np.max(frames))
    if got.shape != frames.shape or not np.all(np.abs(got - frames) <= TOLERANCE * scale):
        problems.append("extracted chroma differs from the reference STFT")
    return problems
