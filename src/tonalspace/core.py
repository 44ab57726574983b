"""Chroma-to-interval-vector transform and its algebra.

A 12-bin chroma vector is mapped to the six complex coefficients k = 1..6
of the DFT of the L1-normalised chroma, each coefficient scaled by a
perceptual interval weight (coefficients 7..11 are conjugate-symmetric and
carry no extra information).  Magnitudes describe interval content and are
transposition-invariant; phases identify which transposition is at hand.
The discarded DC numerator (the raw chroma sum) is kept as ``energy`` so
vectors can later be mixed in proportion to their loudness.

Values are read-only and operations pure, so both can be shared across threads.
A value holds a read-only array that owns its data (as every array the library
builds for one does) as it is and copies any other, so a caller's later writes
to a writeable array never reach it.  A writeable view made before the array
was marked read-only still writes through, and numpy cannot tell; pass a copy.

Batch shapes: ``tiv_from_chroma`` takes one (12,) chroma vector or an
(N, 12) frame matrix and transforms the rows in blocks.  One vector
is a ``Tiv`` with ``coeffs`` of shape (6,) and a float ``energy``; a batch
is a ``Tiv`` with (N, 6) ``coeffs`` and an (N,) ``energy`` array.  The
one-vector ``Tiv`` is the N = 1 case: ``batch[i]`` is the vector of row i,
bit-identical to transforming that row alone.  ``mag``, ``phases``,
``transpose``, the qualities, dissonance and ``euclid`` (two batches of one
length, or a batch and a vector) act row-wise on a batch; ``combine``'s
operands, the items of a list given to ``harmonic_change``, the cosine,
``estimate_key`` and ``Tiv.to_dict`` take one vector and refuse a batch
with ChromaError.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ChromaError, DegenerateInputError, WeightMismatchError

N_BINS = 12
N_COEFFS = 6

# Interval weights for audio, one per coefficient k = 1..6, derived from
# empirical dyad-consonance ratings.
DEFAULT_WEIGHTS = np.array([3.0, 8.0, 11.5, 15.0, 14.5, 7.5])
DEFAULT_WEIGHTS.flags.writeable = False

# Coefficient magnitudes below this carry no usable phase information.
PHASE_EPS = 1e-10

# A Tiv holds |T(k)| <= w(k) * _SLACK: rounding takes built vectors up to 2 ulp past w(k).
_SLACK = 1 + 2**-40

# Rows per block of every blocked loop: the FFT in tiv_from_chroma (~400 kB
# of frames) and every text writer.
_BLOCK_ROWS = 4096

_BOOL_TYPES = frozenset((bool, np.bool_))


def as_chroma(bins) -> np.ndarray:
    """Validate and return a chroma vector as a float array of shape (12,).

    Bin n holds the nonnegative energy of pitch class n, with n = 0 for C
    and ascending in semitones.
    """
    return _as_bins(bins, ndims=(1,))


def _as_floats(values, what: str, kinds: str = "iuf") -> np.ndarray:
    """``values`` as a float array, or a complex one when ``kinds`` admits
    "c"; booleans (also one among numbers in a list or tuple), strings
    (which ``dtype=float`` would parse), mappings, None and ragged rows
    raise ChromaError."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged rows, or more than 64 dimensions
        raise ChromaError(f"{what} must be numbers: {exc}") from None
    if arr.dtype.kind not in kinds:
        raise ChromaError(f"{what} must be numbers, got {arr.dtype} values")
    # np.asarray reads a boolean among numbers as 0 or 1
    if isinstance(values, (list, tuple)) and arr.ndim in (1, 2):
        cells = values if arr.ndim == 1 else itertools.chain.from_iterable(values)
        if not _BOOL_TYPES.isdisjoint(map(type, cells)):
            raise ChromaError(f"{what} must be numbers, got a boolean")
    return arr.astype(complex if "c" in kinds else float, copy=False)


def _as_real(value, what: str, positive: bool = False) -> float:
    """``value``, a ``numbers.Real`` but no bool, as a finite float (> 0 if ``positive``)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ChromaError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = np.inf
    if not np.isfinite(x) or (positive and x <= 0):
        kind = "positive finite" if positive else "finite"
        raise ChromaError(f"{what} must be a {kind} number, got {x!r}")
    return x


def _as_int(value, what: str, minimum: int | None = None) -> int:
    """``value``, a ``numbers.Integral`` but no bool, as an int of at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ChromaError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ChromaError(f"{what} must be at least {minimum}")
    return int(value)


def _as_bins(bins, ndims) -> np.ndarray:
    arr = _as_floats(bins, "chroma bins")
    if arr.ndim not in ndims or arr.shape[-1] != N_BINS:
        raise ChromaError(f"chroma must have exactly {N_BINS} bins, got shape {arr.shape}")
    # one min/max pair finds NaN (it propagates into both), infinities and negatives
    lo, hi = float(arr.min(initial=math.inf)), float(arr.max(initial=-math.inf))
    if not (-math.inf < lo and hi < math.inf):
        raise ChromaError("chroma bins must be finite (no NaN or infinity)")
    if lo < 0:
        raise ChromaError("chroma bins must be nonnegative")
    return arr


def as_weights(weights) -> np.ndarray:
    """Validate and return an interval weight vector of shape (6,)."""
    if weights is DEFAULT_WEIGHTS:  # the read-only default needs no check
        return weights
    arr = _as_floats(weights, "weights")
    if arr.shape != (N_COEFFS,):
        raise ChromaError(f"weights must have exactly {N_COEFFS} entries, got shape {arr.shape}")
    if not 0 < float(arr.min()) <= float(arr.max()) < math.inf:  # a NaN fails it
        raise ChromaError("weights must be finite and strictly positive")
    with np.errstate(over="ignore"):  # a squared distance is at most 4 w.w * _SLACK**2
        if not math.isfinite(4.0 * _SLACK**2 * float(_dot(arr, arr))):
            raise ChromaError("weights are too large: 4 * sum(w**2) overflows the float range")
    return arr


def _dot(a: np.ndarray, b: np.ndarray):
    """Re<a, b> over the last axis: real and imaginary products each summed left to right
    by ``np.add.reduce``, then added, so no bit depends on the batch or the BLAS kernel."""
    return np.add.reduce(a.real * b.real, axis=-1) + np.add.reduce(a.imag * b.imag, axis=-1)


def _row_blocks(n: int):
    """Slices of ``_BLOCK_ROWS`` rows that cover ``range(n)``."""
    return (slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS))


def _require_single(what: str, *tivs) -> None:
    """Refuse a batch among ``tivs``, then an operand whose weights differ from the first's."""
    if any(t.coeffs.ndim != 1 for t in tivs):
        raise ChromaError(f"{what} takes one interval vector, not a batch")
    for t in tivs[1:]:
        _require_same_weights(tivs[0], t)


def _frozen(arr) -> np.ndarray:
    if isinstance(arr, np.ndarray) and arr.flags.owndata and not arr.flags.writeable:
        return arr
    return _readonly(np.array(arr, copy=True))


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr``, which no one else holds yet, marked read-only: a value holds it as it is."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Tiv:
    """Tonal interval vector, or a batch of them, plus source energy.

    ``coeffs[..., k-1]`` is the weighted DFT coefficient for k = 1..6;
    ``energy`` is the sum of the source chroma bins.  ``energy == 0`` marks
    silence, in which case all coefficients are exactly zero.  Each |T(k)|
    is at most w(k), up to rounding.  Shapes: see the module docstring.
    """

    coeffs: np.ndarray
    energy: float | np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        coeffs = _as_floats(self.coeffs, "coeffs", kinds="iufc")
        energy = _as_floats(self.energy, "energy")
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != N_COEFFS:
            raise ChromaError(f"coeffs must have shape (6,) or (N, 6), got {coeffs.shape}")
        if energy.shape != coeffs.shape[:-1]:
            raise ChromaError("energy must hold one value per vector")
        if not 0 <= float(energy.min(initial=0.0)) <= float(energy.max(initial=0.0)) < math.inf:
            raise ChromaError("energy must be finite and nonnegative")
        w = _frozen(as_weights(self.weights))
        if not (np.abs(coeffs) <= w * _SLACK).all():  # a NaN fails it
            raise ChromaError("coeffs must be finite, each |T(k)| at most its weight w(k)")
        if not energy.all() and coeffs[energy == 0].any():  # energy.all() skips the mask
            raise ChromaError("a silent vector (energy 0) must have all coeffs 0")
        object.__setattr__(self, "coeffs", _frozen(coeffs))
        object.__setattr__(self, "energy", float(energy) if energy.ndim == 0 else _frozen(energy))
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        if self.coeffs.ndim == 1:
            raise TypeError("a single interval vector has no length")
        return self.coeffs.shape[0]

    def __getitem__(self, index) -> "Tiv":
        """Row ``index`` of a batch as one vector (a slice gives a batch)."""
        if self.coeffs.ndim == 1:
            raise TypeError("a single interval vector cannot be indexed")
        return Tiv(self.coeffs[index], self.energy[index], self.weights)

    @property
    def is_silent(self) -> bool | np.ndarray:
        return self.energy == 0.0

    def to_dict(self) -> dict:
        """JSON-ready form of one vector: {"coeffs": [[re, im] x 6], "energy": x}."""
        _require_single("to_dict", self)
        return {
            "coeffs": [[z.real, z.imag] for z in self.coeffs],
            "energy": self.energy,
        }

    @classmethod
    def from_dict(cls, data: dict, weights=DEFAULT_WEIGHTS) -> "Tiv":
        """Inverse of ``to_dict``; booleans and strings raise ChromaError."""
        try:
            pairs, energy = _as_floats(data["coeffs"], "coeffs"), data["energy"]
        except (KeyError, TypeError) as exc:
            raise ChromaError(f"malformed interval vector dict: {exc!r}") from None
        if pairs.shape != (N_COEFFS, 2):
            raise ChromaError(f"malformed interval vector dict: coeffs of shape {pairs.shape}")
        # each [re, im] row as one complex, with the bits of both parts (also -0.0)
        coeffs = np.ascontiguousarray(pairs).view(complex)[:, 0]
        return cls(coeffs=coeffs, energy=energy, weights=weights)


@dataclass(frozen=True, eq=False)
class PhaseVector:
    """Per-coefficient phase in radians, (-pi, pi], with a validity flag.

    Entries whose source coefficient magnitude is below ``PHASE_EPS`` are
    flagged invalid and zeroed: the angle of numerical noise is meaningless.
    """

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "valid", _frozen(np.asarray(self.valid, dtype=bool)))


def tiv_from_chroma(chroma, weights=DEFAULT_WEIGHTS) -> Tiv:
    """Build interval vectors from one (12,) chroma or an (N, 12) batch.

    Each chroma row is L1-normalised, its DFT coefficients k = 1..6 are
    taken and scaled by ``weights``.  The rows go through the FFT in blocks
    of ``_BLOCK_ROWS`` into one (N, 6) array, so working memory beyond the
    result is one block; each row is transformed on its own, so blocks do
    not change the bits.  An all-zero row divides by 1.0 into the zero vector with energy 0
    (silence convention; ``Tiv`` checks it) so framewise pipelines stay total over real
    audio.  A row whose sum overflows raises ChromaError.
    """
    c = _as_bins(chroma, ndims=(1, 2))
    w = as_weights(weights)
    frames = c.reshape(-1, N_BINS)
    with np.errstate(over="ignore"):  # an infinite energy is refused by Tiv
        energy = frames.sum(axis=1)
    silent = energy == 0.0
    scale = (energy + silent)[:, None]  # a silent row divides by 1.0, any other by its energy
    out = np.empty(c.shape[:-1] + (N_COEFFS,), complex)
    coeffs = out.reshape(-1, N_COEFFS)  # the rows of ``out``, also of one vector
    for rows in _row_blocks(len(frames)):
        spectrum = np.fft.fft(frames[rows] / scale[rows], axis=1)
        coeffs[rows] = spectrum[:, 1 : N_COEFFS + 1] * w
    energy = energy[0] if c.ndim == 1 else _readonly(energy)
    return Tiv(coeffs=_readonly(out), energy=energy, weights=w)


def mag(t: Tiv) -> np.ndarray:
    """Coefficient magnitudes; invariant under transposition and inversion
    of the source chroma."""
    return np.abs(t.coeffs)


def phases(t: Tiv) -> PhaseVector:
    """Coefficient phases; entries with magnitude below ``PHASE_EPS`` are
    flagged invalid."""
    valid = mag(t) >= PHASE_EPS
    values = np.where(valid, np.angle(t.coeffs), 0.0)
    return PhaseVector(values=_readonly(values), valid=_readonly(valid))


def _require_same_weights(a: Tiv, b: Tiv) -> None:
    if a.weights is not b.weights and not np.array_equal(a.weights, b.weights):
        raise WeightMismatchError("operands use different interval weight vectors")


def combine(tivs) -> Tiv:
    """Mix two or more vectors, each weighted by its share of the summed energy.

    As one vector built from the summed raw chromas.  Silence is zeros (``Tiv`` checks it), so a
    mix with silence or of two equal halves returns the operand's coefficients exactly.  The
    energy is the sum of the operand energies; a sum beyond the float range raises ChromaError.
    """
    ts = list(tivs)
    if len(ts) < 2:
        raise DegenerateInputError("combine needs at least two operands")
    _require_single("combine", *ts)
    energies = np.array([t.energy for t in ts])
    if not energies.any():
        raise DegenerateInputError("cannot combine: all operands are silent")
    with np.errstate(over="ignore"):  # Tiv refuses an infinite total
        total = float(energies.sum())
    coeffs = sum(t.coeffs * (a / total) for t, a in zip(ts, energies))
    return Tiv(coeffs=_readonly(coeffs), energy=total, weights=ts[0].weights)


def transpose(t: Tiv, semitones: int) -> Tiv:
    """Transpose by an integer number of semitones (reduced mod 12).

    Rotates each coefficient k by -2*pi*k*p/12; exactly equivalent to building
    the vector from the circularly rotated chroma.  Energy and magnitudes are
    unchanged up to rounding: a |T(k)| rounded past the ``Tiv`` bound is w(k).
    """
    p = _as_int(semitones, "semitones") % N_BINS
    if p == 0:
        return t
    coeffs = t.coeffs * np.exp(-2j * np.pi * np.arange(1, N_COEFFS + 1) * p / N_BINS)
    over = np.abs(coeffs) > t.weights * _SLACK  # the bound Tiv checks
    coeffs[over] *= np.broadcast_to(t.weights, over.shape)[over] / np.abs(coeffs[over])
    return Tiv(coeffs=_readonly(coeffs), energy=t.energy, weights=t.weights)
