"""Chroma-to-interval-vector transform and its algebra.

A 12-bin chroma vector is mapped to the six complex coefficients k = 1..6
of the DFT of the L1-normalised chroma, each coefficient scaled by a
perceptual interval weight (coefficients 7..11 are conjugate-symmetric and
carry no extra information).  Magnitudes describe interval content and are
transposition-invariant; phases identify which transposition is at hand.
The discarded DC numerator (the raw chroma sum) is kept as ``energy`` so
vectors can later be mixed in proportion to their loudness.

All values are immutable after construction and all operations are pure,
so they can be shared freely across threads.

Batch shapes: ``tiv_from_chroma`` takes one (12,) chroma vector or an
(N, 12) frame matrix and transforms every row in one FFT call.  One vector
is a ``Tiv`` with ``coeffs`` of shape (6,) and a float ``energy``; a batch
is a ``Tiv`` with (N, 6) ``coeffs`` and an (N,) ``energy`` array.  The
one-vector ``Tiv`` is the N = 1 case: ``batch[i]`` is the vector of row i,
bit-identical to transforming that row alone.  ``mag``, ``phases``,
``transpose``, the four qualities and ``euclid`` act row-wise on a batch;
``combine``'s operands, the cosine, ``estimate_key`` and ``Tiv.to_dict``
take one vector and refuse a batch with ChromaError.
"""

from __future__ import annotations

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


def as_chroma(bins) -> np.ndarray:
    """Validate and return a chroma vector as a float array of shape (12,).

    Bin n holds the nonnegative energy of pitch class n, with n = 0 for C
    and ascending in semitones.
    """
    return _as_bins(bins, ndims=(1,))


def _as_floats(values, what: str) -> np.ndarray:
    """``values`` as a float array; strings (which ``dtype=float`` would
    parse), mappings, None and ragged rows raise ChromaError."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged rows, or more than 64 dimensions
        raise ChromaError(f"{what} must be numbers: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise ChromaError(f"{what} must be numbers, got {arr.dtype} values")
    return arr.astype(float, copy=False)


def _as_bins(bins, ndims) -> np.ndarray:
    arr = _as_floats(bins, "chroma bins")
    if arr.ndim not in ndims or arr.shape[-1] != N_BINS:
        raise ChromaError(
            f"chroma must have exactly {N_BINS} bins, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ChromaError("chroma bins must be finite (no NaN or infinity)")
    if np.any(arr < 0):
        raise ChromaError("chroma bins must be nonnegative")
    return arr


def as_weights(weights) -> np.ndarray:
    """Validate and return an interval weight vector of shape (6,)."""
    arr = _as_floats(weights, "weights")
    if arr.shape != (N_COEFFS,):
        raise ChromaError(
            f"weights must have exactly {N_COEFFS} entries, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ChromaError("weights must be finite and strictly positive")
    return arr


def _require_single(what: str, *tivs) -> None:
    if any(t.coeffs.ndim != 1 for t in tivs):
        raise ChromaError(f"{what} takes one interval vector, not a batch")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Tiv:
    """Tonal interval vector, or a batch of them, plus source energy.

    ``coeffs[..., k-1]`` is the weighted DFT coefficient for k = 1..6;
    ``energy`` is the sum of the source chroma bins.  ``energy == 0`` marks
    silence, in which case all coefficients are exactly zero.  Shapes: see
    the module docstring.
    """

    coeffs: np.ndarray
    energy: float | np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        energy = np.asarray(self.energy, dtype=float)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != N_COEFFS:
            raise ChromaError(f"coeffs must have shape (6,) or (N, 6), got {coeffs.shape}")
        if energy.shape != coeffs.shape[:-1]:
            raise ChromaError("energy must hold one value per vector")
        if not (np.all(np.isfinite(coeffs.real)) and np.all(np.isfinite(coeffs.imag))):
            raise ChromaError("coeffs must be finite")
        if not (np.all(np.isfinite(energy)) and np.all(energy >= 0)):
            raise ChromaError("energy must be finite and nonnegative")
        object.__setattr__(self, "coeffs", _frozen(coeffs))
        object.__setattr__(
            self, "energy", float(energy) if energy.ndim == 0 else _frozen(energy)
        )
        object.__setattr__(self, "weights", _frozen(as_weights(self.weights)))

    def __len__(self) -> int:
        if self.coeffs.ndim == 1:
            raise TypeError("a single interval vector has no length")
        return self.coeffs.shape[0]

    def __getitem__(self, index) -> "Tiv":
        """Row ``index`` of a batch as one vector (a slice gives a batch)."""
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
        try:
            coeffs = np.array([complex(re, im) for re, im in data["coeffs"]])
            energy = float(data["energy"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ChromaError(f"malformed interval vector dict: {exc!r}") from None
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
    taken and scaled by ``weights``; all rows go through one FFT call.  An
    all-zero row yields the zero vector with energy 0 (silence convention)
    so framewise pipelines stay total over real audio.  A row whose sum
    overflows raises ChromaError.
    """
    c = _as_bins(chroma, ndims=(1, 2))
    w = as_weights(weights)
    frames = c.reshape(-1, N_BINS)
    with np.errstate(over="ignore"):  # an infinite energy is refused by Tiv
        energy = frames.sum(axis=1)
    silent = energy == 0.0
    spectrum = np.fft.fft(frames / np.where(silent, 1.0, energy)[:, None], axis=1)
    coeffs = spectrum[:, 1 : N_COEFFS + 1] * w
    coeffs[silent] = 0.0
    if c.ndim == 1:
        return Tiv(coeffs=coeffs[0], energy=energy[0], weights=w)
    return Tiv(coeffs=coeffs, energy=energy, weights=w)


def mag(t: Tiv) -> np.ndarray:
    """Coefficient magnitudes; invariant under transposition and inversion
    of the source chroma."""
    return np.abs(t.coeffs)


def phases(t: Tiv) -> PhaseVector:
    """Coefficient phases; entries with magnitude below ``PHASE_EPS`` are
    flagged invalid."""
    magnitude = np.abs(t.coeffs)
    valid = magnitude >= PHASE_EPS
    values = np.where(valid, np.angle(t.coeffs), 0.0)
    return PhaseVector(values=values, valid=valid)


def _require_same_weights(a: Tiv, b: Tiv) -> None:
    if not np.array_equal(a.weights, b.weights):
        raise WeightMismatchError("operands use different interval weight vectors")


def combine(tivs) -> Tiv:
    """Mix two or more vectors, each weighted by its energy.

    Equivalent to building one vector from the summed raw chromas, computed
    directly in coefficient space.  The result's energy is the sum of the
    operand energies.
    """
    ts = list(tivs)
    if len(ts) < 2:
        raise DegenerateInputError("combine needs at least two operands")
    _require_single("combine", *ts)
    for t in ts[1:]:
        _require_same_weights(ts[0], t)
    energies = np.array([t.energy for t in ts])
    total = float(energies.sum())
    if total == 0.0:
        raise DegenerateInputError("cannot combine: all operands are silent")
    coeffs = np.zeros(N_COEFFS, dtype=complex)
    for t, a in zip(ts, energies):
        coeffs += t.coeffs * a
    return Tiv(coeffs=coeffs / total, energy=total, weights=ts[0].weights)


def transpose(t: Tiv, semitones: int) -> Tiv:
    """Transpose by an integer number of semitones (reduced mod 12).

    Rotates each coefficient k by -2*pi*k*p/12; exactly equivalent to
    building the vector from the circularly rotated chroma.  Energy and
    magnitudes are unchanged.
    """
    if not isinstance(semitones, (int, np.integer)) or isinstance(semitones, bool):
        raise ChromaError(f"semitones must be an integer, got {semitones!r}")
    p = int(semitones) % N_BINS
    if p == 0:
        return t
    k = np.arange(1, N_COEFFS + 1)
    rotation = np.exp(-2j * np.pi * k * p / N_BINS)
    return Tiv(coeffs=t.coeffs * rotation, energy=t.energy, weights=t.weights)
