"""In-memory span tracing around the library calls ``tonalspace.cli`` makes.

The tracer replaces the public functions that ``tonalspace.cli`` binds in
its own namespace with timing wrappers, so spans come from outside the
program.  ``cli.main`` is the root span of every op.  Per-frame functions
are aggregated: one span per op and parent that carries the summed busy
time and the call count.  Spans stay in memory until the run ends.

A span's self time is its busy time minus the busy time of its direct
children, so the self times of one op's spans add up to its root spans.
The workload process writes the spans out when the run ends and the
entry point (run.py) reduces them to the per-layer metrics.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# name bound in tonalspace.cli -> (layer metric prefix, aggregated per op)
WRAPPED = {
    "load_chroma_csv": ("chroma.load_csv", False),
    "load_chroma_json": ("chroma.load_json", False),
    "extract_chroma_wav": ("chroma.extract_wav", False),
    "window_average": ("chroma.aggregate", False),
    "global_chroma": ("chroma.aggregate", False),
    "tiv_from_chroma": ("core.tiv", True),
    "chromaticity": ("descriptors.quality", True),
    "diatonicity": ("descriptors.quality", True),
    "wholetoneness": ("descriptors.quality", True),
    "dissonance": ("descriptors.quality", True),
    "harmonic_change": ("descriptors.hchange", False),
    "build_profile_set": ("key.profile", False),
    "estimate_key": ("key.estimate", False),
}
ROOT = "cli.main"
LAYERS = ("cli", "chroma", "core", "descriptors", "key")

# per-layer metric -> unit, in report order
METRICS = {
    "core.tiv_s": "s/op",
    "core.tiv_calls": "calls/op",
    "chroma.load_csv_s": "s/op",
    "chroma.load_json_s": "s/op",
    "chroma.load_calls": "calls/op",
    "chroma.load_bytes": "B/op",
    "chroma.extract_wav_s": "s/op",
    "chroma.extract_frames": "frames/op",
    "chroma.aggregate_s": "s/op",
    "descriptors.quality_s": "s/op",
    "descriptors.quality_calls": "calls/op",
    "descriptors.hchange_s": "s/op",
    "descriptors.hchange_calls": "calls/op",
    "key.profile_s": "s/op",
    "key.profile_calls": "calls/op",
    "key.estimate_s": "s/op",
    "key.estimate_calls": "calls/op",
    "cli.main_s": "s/op",
    "cli.self_s": "s/op",
    "cli.out_bytes": "B/op",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    busy: float
    calls: int = 1


def self_times(spans) -> dict[int, float]:
    """Span id -> busy time minus the busy time of its direct children."""
    own = {s.id: s.busy for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.busy
    return own


def layer_metrics(spans, counters, ops: int) -> dict[str, float]:
    """Per-op means of layer self time, calls and counters over ``ops``
    traced ops (error counts are totals)."""
    own = self_times(spans)
    totals: Counter = Counter()
    for span in spans:
        if span.name == ROOT:
            totals["cli.main_s"] += span.busy
            totals["cli.self_s"] += own[span.id]
        else:
            totals[f"{span.name}_s"] += own[span.id]
            totals[f"{span.name}_calls"] += span.calls
    totals["chroma.load_calls"] = totals["chroma.load_csv_calls"] + totals["chroma.load_json_calls"]
    totals.update(counters)
    metrics = {}
    for name in METRICS:
        if name.endswith(".errors"):
            metrics[name] = totals[name]
        elif name != "trace.overhead_ratio":
            metrics[name] = totals[name] / ops
    return metrics


class Tracer:
    """Collects spans and boundary counters for the ops it is told about."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[Span] = []
        self._aggregates: dict[tuple, Span] = {}
        self._op = None

    def begin_op(self, op: int) -> None:
        self._op = op
        self._aggregates = {}

    def end_op(self) -> None:
        self._op = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._op, len(self.spans), parent, name, perf_counter(), 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start
        self._stack.pop()

    def _error(self, layer: str) -> None:
        self.counters[f"{layer}.errors"] += 1

    def wrap(self, name: str, fn, aggregate: bool = False):
        """Time every call of ``fn`` as a span called ``name``."""
        layer = name.split(".")[0]
        if aggregate:
            return self._wrap_aggregate(name, layer, fn)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except self.error_type:
                self._error(layer)
                raise
            finally:
                self._close(span)
            self._count(name, args, result)
            return result

        return traced

    def _wrap_aggregate(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except self.error_type:
                self._error(layer)
                raise
            finally:
                end = perf_counter()
                parent = self._stack[-1].id if self._stack else None
                span = self._aggregates.get((parent, name))
                if span is None:
                    span = Span(self._op, len(self.spans), parent, name, start, end, 0.0, 0)
                    self.spans.append(span)
                    self._aggregates[(parent, name)] = span
                span.end = end
                span.busy += end - start
                span.calls += 1

        return traced

    def _count(self, name: str, args, result) -> None:
        if name in ("chroma.load_csv", "chroma.load_json"):
            self.counters["chroma.load_bytes"] += os.path.getsize(args[0])
        elif name == "chroma.extract_wav":
            self.counters["chroma.extract_frames"] += len(result)

    def wrappers(self, cli) -> dict[str, object]:
        """Traced versions of the functions ``cli`` binds, by attribute name.

        Names the module no longer binds are skipped, so the trace keeps
        working when the program stops calling one of them.
        """
        return {
            attr: self.wrap(name, getattr(cli, attr), aggregate)
            for attr, (name, aggregate) in WRAPPED.items()
            if hasattr(cli, attr)
        }
