"""24-key estimation by nearest reference vector in interval space.

Reference vectors are the interval vectors of the 12 rotations of a major
and a minor key profile.  Distances to the minor references are measured
after scaling the query by the profile set's ``alpha`` bias, which balances
the systematically different geometry of the major and minor templates.
``KeyResult`` derives the winning index r from the 24 distances, and tonic
and mode from r: 0..11 are C..B major, 12..23 are C..B minor.

Profile tables ship as JSON data files (``profiles/``) rather than inline
constants so their provenance stays auditable; ``TONALSPACE_PROFILE_DIR``
points the loader at an alternative directory.  ``build_profile_set`` reads
the named file on every call, so an edited override file takes effect at once.
A ``KeyProfileSet`` is the one check of its profiles (a refusal names the
``major`` or ``minor`` one) and alpha.  ``estimate_key`` compares a query with
the set's 24 references under the query's own weights; they are memoised by
the contents of the profiles and weights, so a process computes them once each.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .chroma import _json_object
from .core import (
    DEFAULT_WEIGHTS,
    Tiv,
    _as_floats,
    _as_real,
    _dot,
    _frozen,
    _readonly,
    _require_single,
    as_chroma,
    as_weights,
    tiv_from_chroma,
)
from .errors import ChromaError, DegenerateInputError, UnknownProfileError

PROFILE_DIR_ENV = "TONALSPACE_PROFILE_DIR"
BUNDLED_PROFILES = ("temperley", "shaath")
_BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "profiles")

PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


@dataclass(frozen=True, eq=False)
class KeyProfileSet:
    """``KeyProfileSet(name, major_profile, minor_profile, alpha)``: a named, checked
    major/minor profile pair and bias."""

    name: str
    major_profile: np.ndarray
    minor_profile: np.ndarray
    alpha: float

    def __post_init__(self):
        for mode in ("major", "minor"):  # an array the check made is held without a copy
            name = f"{mode}_profile"
            given = getattr(self, name)
            try:
                arr = as_chroma(given)
            except ChromaError as exc:
                raise ChromaError(f"{mode}: {exc}") from None
            object.__setattr__(self, name, _frozen(arr if arr is given else _readonly(arr)))
        object.__setattr__(self, "alpha", _as_real(self.alpha, "alpha", positive=True))
        self.references()  # refuses a profile whose bin sum overflows, as a chroma is refused

    def references(self, weights=DEFAULT_WEIGHTS) -> Tiv:
        """The 24 references under ``weights``, one batch (rows 0..11 major, 12..23 minor)."""
        return _references(self.major_profile.tobytes(), self.minor_profile.tobytes(),
                            as_weights(weights).tobytes())


@dataclass(frozen=True, eq=False)
class KeyResult:
    """``KeyResult(distances)``: the (24,) distances to the references and the
    nearest, ``index`` (ties to the lowest), with its ``tonic`` and ``mode``."""

    distances: np.ndarray
    index: int = field(init=False)
    tonic: int = field(init=False)
    mode: str = field(init=False)

    def __post_init__(self):
        distances = _frozen(_as_floats(self.distances, "key distances"))
        if distances.shape != (24,):
            raise ChromaError(f"key distances must have shape (24,), got {distances.shape}")
        if not (distances >= 0).all():  # a NaN fails it; inf is an overflowed distance
            raise ChromaError("key distances must be nonnegative, not NaN")
        index = int(distances.argmin())
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "tonic", index % 12)
        object.__setattr__(self, "mode", "major" if index <= 11 else "minor")

    @property
    def label(self) -> str:
        return f"{PITCH_CLASS_NAMES[self.tonic]} {self.mode}"

    def to_dict(self) -> dict:
        return {"index": self.index, "tonic": self.tonic, "mode": self.mode, "label": self.label}


def _profile_path(name: str) -> str:
    """The file holding profile set ``name``: ``<name>.json`` in the override directory
    when it is there and ``name`` is a bare file name, else the bundled file of that name."""
    directory = os.environ.get(PROFILE_DIR_ENV) if os.path.basename(name) == name else None
    candidate = directory and os.path.join(directory, f"{name}.json")
    if candidate and os.path.exists(candidate):
        return candidate
    if name not in BUNDLED_PROFILES:
        raise UnknownProfileError(
            f"unknown profile {name!r}; use one of {', '.join(BUNDLED_PROFILES)} "
            f"or provide {name}.json in ${PROFILE_DIR_ENV}"
        )
    return os.path.join(_BUNDLED_DIR, f"{name}.json")


def build_profile_set(name: str, alpha_override=None) -> KeyProfileSet:
    """Load the named key profile set: one of ``BUNDLED_PROFILES`` or, for a bare name, any
    ``<name>.json`` under ``TONALSPACE_PROFILE_DIR``; another name raises UnknownProfileError.
    The file holds {"name": str, "major": [12 numbers], "minor": [12 numbers], "alpha":
    positive finite number}, extra keys (e.g. "source") and a leading BOM ignored; a refusal
    of its fields starts ``profile file <path>: ``.  ``alpha_override``, when given, replaces
    the file's alpha (still checked).  The set holds no weights: its references follow each
    query's.  A set of other arrays is a ``KeyProfileSet``.
    """
    path = _profile_path(name)
    data = _json_object(path, "profile file", ("name", "major", "minor", "alpha"))
    try:
        ps = KeyProfileSet(name, data["major"], data["minor"], data["alpha"])
    except ChromaError as exc:
        raise ChromaError(f"profile file {path}: {exc}") from None
    if alpha_override is None:
        return ps
    return KeyProfileSet(name, ps.major_profile, ps.minor_profile, alpha_override)


@functools.lru_cache(maxsize=16)
def _references(major: bytes, minor: bytes, weights: bytes) -> Tiv:
    """The 24 reference vectors of a profile pair, from the float64 bytes of
    the profiles and weights; row r of each half is ``np.roll(profile, r)``."""
    rotate = (np.arange(12) - np.arange(12)[:, None]) % 12
    profiles = [np.frombuffer(profile)[rotate] for profile in (major, minor)]
    return tiv_from_chroma(np.concatenate(profiles), np.frombuffer(weights))


def estimate_key(t: Tiv, profiles: KeyProfileSet) -> KeyResult:
    """Nearest-reference key estimate for one (unbatched) interval vector.

    The query is compared against all 24 references, under its own weights,
    by Euclidean distance; for the minor references (index >= 12) the query's
    coefficients are first scaled by ``profiles.alpha``.  Ties break toward
    the lowest index.  The result is scale-invariant in the source chroma, since the
    coefficients themselves are.  Silence and a zero-norm vector (uniform
    chroma, equally far from all 12 references of a mode) are refused.
    """
    _require_single("estimate_key", t)
    if t.is_silent:
        raise DegenerateInputError("cannot estimate a key for silence")
    if _dot(t.coeffs, t.coeffs) == 0.0:
        raise DegenerateInputError("cannot estimate a key for a zero-norm vector")
    references = profiles.references(t.weights).coeffs
    with np.errstate(over="ignore"):  # an overflowing alpha * T makes a minor distance inf
        d = t.coeffs * np.array([1.0, profiles.alpha]).repeat(12)[:, None] - references
        return KeyResult(_readonly(np.sqrt(_dot(d, d))))
