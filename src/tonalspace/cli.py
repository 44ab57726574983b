"""Batch command-line front end.

Subcommands compose the library into file-in/file-out pipelines:

  analyze         chroma (CSV/JSON) or WAV in -> per-frame descriptor table,
                  harmonic-change curve/peaks, global qualities + key estimate
  key             global key estimate per input, printed as "<index> <label>"
                  (one "<path><TAB><index> <label>" line per input given several)
  combine         energy-weighted mix of the inputs' interval vectors
  distance        Euclidean or cosine distance between two inputs
  extract-chroma  minimal WAV -> chroma extraction to CSV/JSON

Every command is a thin composition of library calls -- no descriptor math
lives here.  Output is deterministic: identical inputs and flags produce
byte-identical bytes (full-precision ``repr`` floats, no timestamps).

Exit codes: 0 success, 1 runtime/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

import numpy as np

from .chroma import (
    DEFAULT_A4,
    DEFAULT_FMAX,
    DEFAULT_FMIN,
    DEFAULT_HOP_SIZE,
    DEFAULT_WINDOW_SIZE,
    ChromaSequence,
    _cells,
    _csv_lines,
    _json_list,
    _row_blocks,
    _write_text,
    chroma_csv_text,
    chroma_json_text,
    extract_chroma_wav,
    global_chroma,
    load_chroma_csv,
    load_chroma_json,
    window_average,
)
from .core import DEFAULT_WEIGHTS, _as_real, as_weights, combine, tiv_from_chroma
from .descriptors import (
    HARTE_COEFFS,
    chromaticity,
    cosine_distance,
    cosine_similarity,
    diatonicity,
    dissonance,
    euclid,
    harmonic_change,
    wholetoneness,
)
from .errors import ChromaError, DegenerateInputError, TonalSpaceError, UnknownProfileError
from .key import build_profile_set, estimate_key

ANALYZE_COLUMNS = (
    "frame",
    "time",
    "chromaticity",
    "diatonicity",
    "wholetoneness",
    "dissonance",
    "lambda",
)


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 2."""


_ERRORS = (UsageError, TonalSpaceError, OSError)


def _report(exc, prefix: str = "") -> int:
    """Print one of ``_ERRORS`` as one stderr line; returns its exit code."""
    print(f"tonalspace: error: {prefix}{exc}", file=sys.stderr)
    return 2 if isinstance(exc, (UsageError, UnknownProfileError)) else 1


# ---------------------------------------------------------------- plumbing


_FORMATS = {".csv": "csv", ".json": "json", ".wav": "wav", ".wave": "wav"}


def _load_sequence(path: str, fmt: str, args) -> tuple[ChromaSequence, str]:
    if fmt == "auto":
        fmt = _FORMATS.get(os.path.splitext(path)[1].lower())
        if fmt is None:
            raise UsageError(
                f"cannot infer input format from {path!r}; pass --format csv|json|wav"
            )
    if fmt == "wav":
        seq = extract_chroma_wav(path, window_size=args.window_size, hop_size=args.hop_size)
    else:
        seq = (load_chroma_csv if fmt == "csv" else load_chroma_json)(path)
    return seq, fmt


def _parse_weights(text):
    if text is None:
        return DEFAULT_WEIGHTS
    parts = text.split(",")
    if len(parts) != 6:
        raise UsageError("--weights takes 6 comma-separated positive numbers")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise UsageError(f"--weights: non-numeric entry in {text!r}") from None
    try:
        return as_weights(values)
    except ChromaError as exc:
        raise UsageError(f"--weights: {exc}") from None


def _parse_threshold(text):
    if text == "adaptive":
        return "adaptive"
    try:
        value = float(text)
    except ValueError:
        raise UsageError(
            f"--threshold must be 'adaptive' or a number, got {text!r}"
        ) from None
    try:
        return _as_real(value, "--threshold")
    except ChromaError:
        raise UsageError("--threshold must be finite") from None


def _parse_alpha(value):
    try:
        return None if value is None else _as_real(value, "--alpha", positive=True)
    except ChromaError:
        raise UsageError("--alpha must be a positive finite number") from None


_FRAME_JSON = "{" + ",".join(f'\n      "{c}": %s' for c in ANALYZE_COLUMNS) + "\n    }"


def _json_report(head: dict, peaks: list, n: int, columns):
    """``json.dumps(report, indent=2) + "\\n"`` of the analyze report in
    pieces, from its ``head`` (metadata, global), the peaks and the
    ANALYZE_COLUMNS columns; only the small head goes through the slow
    pure-Python indenting encoder."""
    # lambda is written twice, so its text is kept rather than encoded twice
    lam = [list(_cells(columns[-1], rows)) for rows in _row_blocks(n)]
    blocks = ([_cells(column, rows) for column in columns[:-1]] for rows in _row_blocks(n))
    frames = (map(_FRAME_JSON.__mod__, zip(*cells, text)) for cells, text in zip(blocks, lam))
    yield json.dumps(head, indent=2)[:-2] + ',\n  "hchange": {\n    "lambda": '
    yield from _json_list(lam, 4)
    yield f',\n    "peaks": {"".join(_json_list([map(repr, peaks)], 4))}\n  }},\n  "frames": '
    yield from _json_list(frames, 2)
    yield "\n}\n"


# ------------------------------------------------------------- subcommands


def cmd_analyze(args) -> int:
    weights = _parse_weights(args.weights)
    threshold = _parse_threshold(args.threshold)
    profiles = build_profile_set(args.profile, _parse_alpha(args.alpha), weights=weights)
    if args.window_avg < 1:
        raise UsageError("--window-avg must be a positive integer")

    seq, fmt = _load_sequence(args.input, args.format, args)
    seq = window_average(seq, args.window_avg)
    n = len(seq)
    tivs = tiv_from_chroma(seq.frames, weights)
    qualities = (chromaticity, diatonicity, wholetoneness, dissonance)
    columns = [quality(tivs) for quality in qualities]

    if n >= 3:
        subset = HARTE_COEFFS if args.hchange_coeffs == "harte" else None
        series = harmonic_change(tivs, threshold=threshold, coeffs=subset)
        columns.append(series.values)
        peaks = series.peaks.tolist()
    else:
        columns.append(np.zeros(n))
        peaks = []
    del tivs  # freed before the report, which needs only the columns

    g_tiv = tiv_from_chroma(global_chroma(seq), weights)
    g_qualities = dict(zip(ANALYZE_COLUMNS[2:6], (q(g_tiv) for q in qualities)))
    try:
        key_json = estimate_key(g_tiv, profiles).to_dict()
    except DegenerateInputError:  # silence or uniform chroma: no key
        key_json = None

    rate = seq.frame_rate
    no_time = "null" if args.out_format == "json" else ""  # each time at an unknown rate
    columns = [np.arange(n), no_time if rate is None else np.arange(n) / rate, *columns]
    metadata = {
        "command": "analyze",
        "input": args.input,
        "input_format": fmt,
        "frames": n,
        "frame_rate": rate,
        "window_avg": args.window_avg,
        "weights": [float(w) for w in weights],
        "profile": profiles.name,
        "alpha": profiles.alpha,
        "threshold": threshold,
        "hchange_coeffs": args.hchange_coeffs,
    }

    if args.out_format == "json":
        head = {
            "metadata": metadata,
            "global": {"tiv": g_tiv.to_dict(), **g_qualities, "key": key_json},
        }
        _write_text(_json_report(head, peaks, n, columns), args.out)
        return 0

    head = [f"# {key}: {json.dumps(value)}" for key, value in metadata.items()]
    head.append(f"# global-tiv: {json.dumps(g_tiv.to_dict())}")
    head += [f"# global-{kind}: {value!r}" for kind, value in g_qualities.items()]
    head.append(f"# key: {json.dumps(key_json)}")
    head.append(f"# hchange-peaks: {json.dumps(peaks)}")
    head.append(",".join(ANALYZE_COLUMNS))
    _write_text(itertools.chain(["\n".join(head) + "\n"], _csv_lines(n, columns)), args.out)
    return 0


def _global_tiv(path, args, weights):
    seq, _ = _load_sequence(path, args.format, args)
    return tiv_from_chroma(global_chroma(seq), weights)


def cmd_key(args) -> int:
    """One key per input; a bad input reports its error and the rest still run."""
    weights = _parse_weights(args.weights)
    profiles = build_profile_set(args.profile, _parse_alpha(args.alpha), weights=weights)
    several = len(args.inputs) > 1
    code = 0
    for path in args.inputs:
        try:
            result = estimate_key(_global_tiv(path, args, weights), profiles)
        except _ERRORS as exc:
            code = max(code, _report(exc, f"{path}: " if several else ""))
            continue
        line = f"{result.index} {result.label}\n"
        sys.stdout.write(f"{path}\t{line}" if several else line)
    return code


def cmd_combine(args) -> int:
    weights = _parse_weights(args.weights)
    tivs = [_global_tiv(path, args, weights) for path in args.inputs]
    mixed = tivs[0] if len(tivs) == 1 else combine(tivs)
    _write_text([json.dumps(mixed.to_dict(), indent=2) + "\n"], args.out)
    return 0


def cmd_distance(args) -> int:
    weights = _parse_weights(args.weights)
    tivs = [_global_tiv(path, args, weights) for path in (args.a, args.b)]
    metric = {"euclid": euclid, "cosine": cosine_distance, "cosine-sim": cosine_similarity}
    value = metric[args.metric](*tivs)
    sys.stdout.write(repr(float(value)) + "\n")
    return 0


def cmd_extract_chroma(args) -> int:
    seq = extract_chroma_wav(
        args.input,
        window_size=args.window_size,
        hop_size=args.hop_size,
        fmin=args.fmin,
        fmax=args.fmax,
        ref_a4=args.a4,
    )
    render = chroma_csv_text if args.out_format == "csv" else chroma_json_text
    _write_text(render(seq), args.out)
    return 0


# ------------------------------------------------------------------ parser


def _add_input_options(sp) -> None:
    sp.add_argument(
        "--format",
        choices=("auto", "csv", "json", "wav"),
        default="auto",
        help="input format (default: by file extension)",
    )
    sp.add_argument(
        "--weights",
        default=None,
        metavar="W1,...,W6",
        help="override the 6 interval weights (default 3,8,11.5,15,14.5,7.5)",
    )
    _add_stft_options(sp)


def _add_stft_options(sp) -> None:
    sp.add_argument(
        "--window-size",
        type=int,
        default=DEFAULT_WINDOW_SIZE,
        help="STFT window for WAV input (power of two)",
    )
    sp.add_argument(
        "--hop-size", type=int, default=DEFAULT_HOP_SIZE, help="STFT hop for WAV input"
    )


def _add_output_options(sp, *, out_format=True) -> None:
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    if out_format:
        sp.add_argument(
            "--out-format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default: csv)",
        )


def _add_profile_options(sp) -> None:
    sp.add_argument(
        "--profile",
        default="temperley",
        help="key profile set: temperley, shaath, or <name> for <name>.json in "
        "$TONALSPACE_PROFILE_DIR (default: temperley)",
    )
    sp.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="override the profile set's minor-mode bias",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonalspace",
        description="Tonal analysis of chroma sequences in a weighted interval space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="per-frame qualities, harmonic change, global key"
    )
    analyze.add_argument("input")
    analyze.add_argument(
        "--window-avg",
        type=int,
        default=1,
        metavar="N",
        help="average N consecutive chroma frames before analysis",
    )
    _add_profile_options(analyze)
    analyze.add_argument(
        "--threshold",
        default="adaptive",
        help="harmonic-change peak threshold: 'adaptive' (mean+std) or a number",
    )
    analyze.add_argument(
        "--hchange-coeffs",
        choices=("all", "harte"),
        default="all",
        help="coefficients for harmonic change: all six, or the 3/4/5 subset",
    )
    _add_input_options(analyze)
    _add_output_options(analyze)
    analyze.set_defaults(func=cmd_analyze)

    key = sub.add_parser(
        "key",
        help="estimate each input's global key; prints '<index> <label>', "
        "prefixed by '<path><TAB>' given several inputs",
    )
    key.add_argument("inputs", nargs="+", metavar="input")
    _add_profile_options(key)
    _add_input_options(key)
    key.set_defaults(func=cmd_key)

    comb = sub.add_parser(
        "combine",
        help="energy-weighted mix of the inputs' interval vectors "
        "(one input prints its own global vector)",
    )
    comb.add_argument("inputs", nargs="+")
    _add_input_options(comb)
    _add_output_options(comb, out_format=False)
    comb.set_defaults(func=cmd_combine)

    dist = sub.add_parser("distance", help="distance between two inputs")
    dist.add_argument("a")
    dist.add_argument("b")
    dist.add_argument(
        "--metric",
        choices=("euclid", "cosine", "cosine-sim"),
        default="euclid",
        help="euclid, cosine (distance, 1 - similarity), or cosine-sim",
    )
    _add_input_options(dist)
    dist.set_defaults(func=cmd_distance)

    extract = sub.add_parser("extract-chroma", help="WAV -> chroma CSV/JSON")
    extract.add_argument("input")
    _add_stft_options(extract)
    extract.add_argument("--fmin", type=float, default=DEFAULT_FMIN)
    extract.add_argument("--fmax", type=float, default=DEFAULT_FMAX)
    extract.add_argument("--a4", type=float, default=DEFAULT_A4)
    _add_output_options(extract)
    extract.set_defaults(func=cmd_extract_chroma)

    return parser


_parser = functools.cache(build_parser)  # built by the first main(), then reused


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 for bad flags
        return exc.code
    try:
        return args.func(args)
    except _ERRORS as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
