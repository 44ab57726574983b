"""Batch command-line front end.

Subcommands compose the library into file-in/file-out pipelines:

  analyze         chroma (CSV/JSON) or WAV in -> per-frame descriptor table,
                  harmonic-change curve/peaks, global descriptors + key estimate
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
    _json_list,
    _rows,
    _write_text,
    extract_chroma_wav,
    global_chroma,
    load_chroma_csv,
    load_chroma_json,
    save_chroma_csv,
    save_chroma_json,
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
from .key import BUNDLED_PROFILES, build_profile_set, estimate_key

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
_FRAME_CSV = ",".join(["%s"] * len(ANALYZE_COLUMNS)) + "\n"


def _json_report(head: dict, peaks: list, columns):
    """``json.dumps(report, indent=2) + "\\n"`` of the analyze report in
    pieces, from its ``head`` (metadata, global), the peaks and the
    ANALYZE_COLUMNS columns; only the small head goes through the slow
    pure-Python indenting encoder."""
    # lambda is written twice, so its text is kept rather than encoded twice
    lam = np.array(list(map(repr, columns[-1].tolist())), dtype=object)
    yield json.dumps(head, indent=2)[:-2] + ',\n  "hchange": {\n    "lambda": '
    yield from _json_list(_rows("%s", [lam]), 4)
    yield f',\n    "peaks": {"".join(_json_list([map(repr, peaks)], 4))}\n  }},\n  "frames": '
    yield from _json_list(_rows(_FRAME_JSON, [*columns[:-1], lam]), 2)
    yield "\n}\n"


# ------------------------------------------------------------- subcommands


def cmd_analyze(args) -> int:
    weights = _parse_weights(args.weights)
    threshold = _parse_threshold(args.threshold)
    profiles = build_profile_set(args.profile, _parse_alpha(args.alpha))
    if args.window_avg < 1:
        raise UsageError("--window-avg must be a positive integer")

    seq, fmt = _load_sequence(args.input, args.format, args)
    seq = window_average(seq, args.window_avg)
    n = len(seq)
    tivs = tiv_from_chroma(seq.frames, weights)
    subset = HARTE_COEFFS if args.hchange_coeffs == "harte" else None
    series = harmonic_change(tivs, threshold=threshold, coeffs=subset)
    columns = [chromaticity(tivs), diatonicity(tivs), wholetoneness(tivs), dissonance(tivs),
               series.values]
    peaks = series.peaks.tolist()
    del tivs  # freed before the report, which needs only the columns

    g_tiv = tiv_from_chroma(global_chroma(seq), weights)
    try:
        key_json = estimate_key(g_tiv, profiles).to_dict()
    except DegenerateInputError:  # silence or uniform chroma: no key
        key_json = None

    rate = seq.frame_rate
    no_time = "null" if args.out_format == "json" else ""  # each time at an unknown rate
    times = np.full(n, no_time, dtype=object) if rate is None else np.arange(n) / rate
    columns = [np.arange(n), times, *columns]
    head = {
        "metadata": {
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
        },
        "global": {
            "tiv": g_tiv.to_dict(),
            **dict(zip(ANALYZE_COLUMNS[2:6], (chromaticity(g_tiv), diatonicity(g_tiv),
                                              wholetoneness(g_tiv), dissonance(g_tiv)))),
            "key": key_json,
        },
    }
    if args.out_format == "json":
        _write_text(_json_report(head, peaks, columns), args.out)
        return 0

    # the CSV head: "# <name>: <JSON value>" per head field, global-<name> for all but the key
    global_fields = {k if k == "key" else f"global-{k}": v for k, v in head["global"].items()}
    fields = {**head["metadata"], **global_fields, "hchange-peaks": peaks}
    text = "".join(f"# {name}: {json.dumps(value)}\n" for name, value in fields.items())
    rows = map("".join, _rows(_FRAME_CSV, columns))
    _write_text(itertools.chain([text + ",".join(ANALYZE_COLUMNS) + "\n"], rows), args.out)
    return 0


def _global_tiv(path, args, weights):
    seq, _ = _load_sequence(path, args.format, args)
    return tiv_from_chroma(global_chroma(seq), weights)


def cmd_key(args) -> int:
    """One key per input; a bad input reports its error and the rest still run."""
    weights = _parse_weights(args.weights)
    profiles = build_profile_set(args.profile, _parse_alpha(args.alpha))
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
    (save_chroma_csv if args.out_format == "csv" else save_chroma_json)(seq, args.out)
    return 0


# ------------------------------------------------------------------ parser

# One _COMMANDS row per subcommand: name, function, help, arguments in --help
# order.  An argument is a (flag or positional name, add_argument keywords)
# pair; the groups hold the options that several subcommands share.
_STFT_OPTIONS = (
    ("--window-size", dict(type=int, default=DEFAULT_WINDOW_SIZE,
                           help="STFT window for WAV input (power of two)")),
    ("--hop-size", dict(type=int, default=DEFAULT_HOP_SIZE, help="STFT hop for WAV input")),
)
_INPUT_OPTIONS = (
    ("--format", dict(choices=("auto", "csv", "json", "wav"), default="auto",
                      help="input format (default: by file extension)")),
    ("--weights", dict(metavar="W1,...,W6", help="override the 6 interval weights (default "
                       f"{','.join(f'{w:g}' for w in DEFAULT_WEIGHTS)})")),
    *_STFT_OPTIONS,
)
_PROFILE_OPTIONS = (
    ("--profile", dict(default="temperley", help="key profile set: "
                       f"{', '.join(BUNDLED_PROFILES)}, or <name> for <name>.json in "
                       "$TONALSPACE_PROFILE_DIR (default: temperley)")),
    ("--alpha", dict(type=float, help="override the profile set's minor-mode bias")),
)
_OUT = ("--out", dict(help="output file (default: stdout)"))
_OUT_FORMAT = ("--out-format", dict(choices=("csv", "json"), default="csv",
                                    help="output format (default: csv)"))

_COMMANDS = (
    ("analyze", cmd_analyze, "per-frame qualities, harmonic change, global key", (
        ("input", {}),
        ("--window-avg", dict(type=int, default=1, metavar="N",
                              help="average N consecutive chroma frames before analysis")),
        *_PROFILE_OPTIONS,
        ("--threshold", dict(default="adaptive", help="harmonic-change peak threshold: "
                             "'adaptive' (mean+std) or a number")),
        ("--hchange-coeffs", dict(choices=("all", "harte"), default="all", help="coefficients "
                                  "for harmonic change: all six, or the 3/4/5 subset")),
        *_INPUT_OPTIONS, _OUT, _OUT_FORMAT)),
    ("key", cmd_key, "estimate each input's global key; prints '<index> <label>', prefixed "
     "by '<path><TAB>' given several inputs", (
        ("inputs", dict(nargs="+", metavar="input")), *_PROFILE_OPTIONS, *_INPUT_OPTIONS)),
    ("combine", cmd_combine, "energy-weighted mix of the inputs' interval vectors "
     "(one input prints its own global vector)", (
        ("inputs", dict(nargs="+")), *_INPUT_OPTIONS, _OUT)),
    ("distance", cmd_distance, "distance between two inputs", (
        ("a", {}),
        ("b", {}),
        ("--metric", dict(choices=("euclid", "cosine", "cosine-sim"), default="euclid",
                          help="euclid, cosine (distance, 1 - similarity), or cosine-sim")),
        *_INPUT_OPTIONS)),
    ("extract-chroma", cmd_extract_chroma, "WAV -> chroma CSV/JSON", (
        ("input", {}),
        *_STFT_OPTIONS,
        ("--fmin", dict(type=float, default=DEFAULT_FMIN)),
        ("--fmax", dict(type=float, default=DEFAULT_FMAX)),
        ("--a4", dict(type=float, default=DEFAULT_A4)),
        _OUT, _OUT_FORMAT)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonalspace",
        description="Tonal analysis of chroma sequences in a weighted interval space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, arguments in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
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
