"""A fixed reference workload that measures how fast the machine is right now.

The benchmark runs on shared machines whose speed changes by up to 2x over
minutes, as other tenants' load comes and goes.  Such a change slows the
program and this calibration alike, so each run times the calibration
between its ops and scales the op times by REFERENCE_S over the run's
median calibration time: the metrics then read as times on a machine
where the calibration takes REFERENCE_S.  The calibration does the kinds
of work the CLI does (parsing CSV text into floats, small numpy calls per
frame, formatting and sorting strings, a vectorised STFT block) with numpy
and the standard library only, so no change to ``tonalspace`` moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the calibration's median time on an uncontended 2-vCPU Xeon VM at
# 2.0 GHz (Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.025

_rng = np.random.default_rng(20081152)
_TEXT = "\n".join(",".join("%.6f" % v for v in row) for row in _rng.random((1500, 12)))
_WEIGHTS = np.array([3.0, 8.0, 11.5, 15.0, 14.5, 7.5])
_BLOCKS = _rng.standard_normal((32, 2048))
_HANN = np.hanning(2048)
_FOLD = (np.arange(1025)[:, None] % 12 == np.arange(12)).astype(float)


def calibration_s() -> float:
    """Seconds one pass of the reference workload takes."""
    start = perf_counter()
    rows = [[float(x) for x in line.split(",")] for line in _TEXT.splitlines()]
    summary = []
    for frame in np.asarray(rows):
        magnitudes = np.abs(np.fft.fft(frame / frame.sum())[1:7] * _WEIGHTS)
        summary.append((float(magnitudes.max()), float(magnitudes.sum())))
    sorted({i: "%.6f,%.6f" % pair for i, pair in enumerate(summary)}.values())
    (np.abs(np.fft.rfft(_BLOCKS * _HANN, axis=1)) ** 2) @ _FOLD
    return perf_counter() - start
