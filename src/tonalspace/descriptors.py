"""Harmonic descriptors and distances over interval vectors.

``qualities`` normalises each of the six coefficient magnitudes to
[0, 1], and ``chromaticity``, ``diatonicity`` and ``wholetoneness`` name
three of its columns; dissonance collapses the full weighted magnitude
into one indicator.  All depend only on magnitudes, so they are invariant
under transposition of the source chroma.  Each takes one vector or a
batch (see ``core``) and is bit-identical row by row.
``harmonic_change`` turns a frame sequence into a novelty curve whose
peaks mark transitions between harmonically stable regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (N_COEFFS, Tiv, _as_int, _as_real, _frozen, _readonly,
                   _require_same_weights, _require_single)
from .errors import ChromaError, DegenerateInputError, InsufficientInputError

# Coefficient subset matching Harte-style change detection: circles of
# minor thirds (k=3), major thirds (k=4) and fifths (k=5).
HARTE_COEFFS = (3, 4, 5)


def _per_vector(values):
    """A float for one vector, the (N,) array for a batch."""
    return float(values) if np.ndim(values) == 0 else values


def _sqnorm(coeffs):
    """Squared l2 norm over the last axis, summed per row in ``np.linalg.norm``'s
    order (real squares, then imaginary); ``norm(axis=1)`` differs in the last bit."""
    re = coeffs.real[..., None, :]
    im = coeffs.imag[..., None, :]
    return (re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0]


def qualities(t: Tiv) -> np.ndarray:
    """The six qualities |T(k)| / w(k) in k order, in [0, 1]: (6,) or (N, 6).
    TIV.lib names them chromaticity, dyadicity, triadicity, diminished quality,
    diatonicity and whole-toneness; Amiot (*Music Through Fourier Space*, 2016)
    and Yust (JMT 2015) give their readings.  Silence reports 0."""
    return np.abs(t.coeffs) / t.weights


def chromaticity(t: Tiv):
    """Concentration on one region of the chromatic pitch circle, in [0, 1].

    Near 0 for evenly spread sonorities (tonal chords, scales), near 1
    for compact semitone clusters.  Silence reports 0.  Like every named
    quality: a float for one vector, an (N,) array for a batch.
    """
    return _per_vector(qualities(t)[..., 0])


def diatonicity(t: Tiv):
    """Concentration on one region of the circle of fifths, in [0, 1].
    Silence reports 0."""
    return _per_vector(qualities(t)[..., 4])


def wholetoneness(t: Tiv):
    """Proximity to one of the two whole-tone collections, in [0, 1].
    Silence reports 0."""
    return _per_vector(qualities(t)[..., 5])


def dissonance(t: Tiv):
    """Intervallic dissonance in [0, 1]: the weighted coefficient norm,
    normalised by the weight norm, subtracted from unity.

    A single pitch class scores 0; the uniform (fully chromatic) profile
    and silence score 1.  The l2 norm is taken over all six complex
    coefficients.
    """
    return _per_vector(1.0 - np.sqrt(_sqnorm(t.coeffs)) / np.linalg.norm(t.weights))


def euclid(t1: Tiv, t2: Tiv):
    """Euclidean distance between two interval vectors (row-wise for
    batches of one length, which broadcast against one vector).

    Tracks voice-leading proximity: parsimonious moves between pitch
    profiles land close together.
    """
    _require_same_weights(t1, t2)
    if t1.coeffs.ndim == t2.coeffs.ndim == 2 and len(t1) != len(t2):
        raise ChromaError(f"euclid needs batches of one length, got {len(t1)} and {len(t2)}")
    return _per_vector(np.sqrt(_sqnorm(t1.coeffs - t2.coeffs)))


def cosine_similarity(t1: Tiv, t2: Tiv) -> float:
    """Cosine of the angle between two interval vectors, in [-1, 1].

    Real part of the Hermitian inner product over the six complex
    coefficients divided by the product of norms; identical to the
    12-dimensional real cosine.  Indicates how well two pitch profiles
    fit or mix.  Raises for a zero-norm operand (silence or the uniform
    profile), where the angle is undefined.
    """
    _require_single("cosine_similarity", t1, t2)
    n1 = np.linalg.norm(t1.coeffs)
    n2 = np.linalg.norm(t2.coeffs)
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateInputError("cosine is undefined for a zero-norm vector")
    return float(np.real(np.vdot(t1.coeffs, t2.coeffs)) / (n1 * n2))


def cosine_distance(t1: Tiv, t2: Tiv) -> float:
    """1 - cosine_similarity, in [0, 2]."""
    return 1.0 - cosine_similarity(t1, t2)


@dataclass(frozen=True, eq=False)
class HarmonicChangeSeries:
    """Framewise harmonic change values and the picked peak indices.

    ``values`` has one entry per input frame (boundary frames are 0 by
    convention since they lack a neighbour on one side); ``peaks`` holds
    indices of strict local maxima at or above ``threshold``.
    """

    values: np.ndarray
    peaks: np.ndarray
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "peaks", _frozen(np.asarray(self.peaks, dtype=int)))


def harmonic_change(tivs, threshold="adaptive", coeffs=None) -> HarmonicChangeSeries:
    """Harmonic change curve over a sequence of interval vectors.

    The change value at frame m is the Euclidean distance between frames
    m-1 and m+1, so a single chord change produces one clear maximum
    instead of two.

    Parameters
    ----------
    tivs : batched Tiv, or sequence of single Tivs
        At least three frames, all sharing one weight vector.
    threshold : "adaptive" or float
        Peak floor.  "adaptive" uses mean + 1 std of the curve, which is
        scale-free across chroma sources; a finite number is used as-is.
    coeffs : iterable of int, optional
        1-based coefficient subset to measure over (e.g. ``HARTE_COEFFS``);
        default uses all six.
    """
    if isinstance(tivs, Tiv):
        matrix = tivs.coeffs.reshape(-1, N_COEFFS)
    else:
        ts = list(tivs)
        _require_single("harmonic_change's list", *ts)
        matrix = np.array([t.coeffs for t in ts])
    n = len(matrix)
    if n < 3:
        raise InsufficientInputError(f"harmonic change needs at least 3 frames, got {n}")
    if coeffs is not None:
        try:
            ks = [_as_int(k, "coefficient", minimum=1) for k in coeffs]
        except (ChromaError, TypeError):  # a bool, a non-integer or no iterable
            ks = []
        if not ks or max(ks) > N_COEFFS:
            raise ChromaError("coefficient subset must be integers drawn from 1..6")
        matrix = matrix[:, np.unique(ks) - 1]

    values = np.zeros(n)
    values[1:-1] = np.sqrt(np.sum(np.abs(matrix[2:] - matrix[:-2]) ** 2, axis=1))

    if isinstance(threshold, str) and threshold == "adaptive":  # arrays compare per item
        with np.errstate(over="ignore"):  # an infinite floor picks no peak
            floor = float(values.mean() + values.std())
    else:
        floor = _as_real(threshold, "threshold")

    middle = values[1:-1]
    is_peak = (values[:-2] < middle) & (middle >= values[2:]) & (middle >= floor)
    return HarmonicChangeSeries(
        values=_readonly(values), peaks=_readonly(np.flatnonzero(is_peak) + 1), threshold=floor
    )
