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
``major`` or ``minor`` one), alpha and weights, and derives its 24 references,
memoised by their contents, so a process computes them once per distinct set.
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
    _frozen,
    _readonly,
    _require_same_weights,
    _require_single,
    as_chroma,
    as_weights,
    tiv_from_chroma,
)
from .descriptors import _sqnorm
from .errors import ChromaError, DegenerateInputError, UnknownProfileError

PROFILE_DIR_ENV = "TONALSPACE_PROFILE_DIR"
BUNDLED_PROFILES = ("temperley", "shaath")
_BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "profiles")

PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


@dataclass(frozen=True, eq=False)
class KeyProfileSet:
    """``KeyProfileSet(name, major_profile, minor_profile, alpha, weights)``: a named,
    checked major/minor profile pair and bias, and their 24 references as one batched
    Tiv, ``profile_tivs`` (row r: 0..11 major rotations, 12..23 minor rotations)."""

    name: str
    major_profile: np.ndarray
    minor_profile: np.ndarray
    alpha: float
    weights: np.ndarray = field(default_factory=lambda: DEFAULT_WEIGHTS)
    profile_tivs: Tiv = field(init=False)

    def __post_init__(self):
        out = {}
        for mode in ("major", "minor"):  # an array the check made is held without a copy
            given = getattr(self, f"{mode}_profile")
            try:
                arr = as_chroma(given)
            except ChromaError as exc:
                raise ChromaError(f"{mode}: {exc}") from None
            out[f"{mode}_profile"] = _frozen(arr if arr is given else _readonly(arr))
        alpha = _as_real(self.alpha, "alpha", positive=True)
        tivs = _references(*(a.tobytes() for a in (*out.values(), as_weights(self.weights))))
        for name, value in dict(out, alpha=alpha, weights=tivs.weights, profile_tivs=tivs).items():
            object.__setattr__(self, name, value)


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
    """The file holding profile set ``name``: ``<name>.json`` in the override
    directory when it is there, else the bundled file of that name."""
    directory = os.environ.get(PROFILE_DIR_ENV)
    candidate = directory and os.path.join(directory, f"{name}.json")
    if candidate and os.path.exists(candidate):
        return candidate
    if name not in BUNDLED_PROFILES:
        raise UnknownProfileError(
            f"unknown profile {name!r}; use one of {', '.join(BUNDLED_PROFILES)} "
            f"or provide {name}.json in ${PROFILE_DIR_ENV}"
        )
    return os.path.join(_BUNDLED_DIR, f"{name}.json")


def _read_profile_set(path, name: str) -> KeyProfileSet:
    """The set in a profile file; a refusal of its fields starts ``profile file <path>: ``."""
    data = _json_object(path, "profile file", ("name", "major", "minor", "alpha"))
    try:
        return KeyProfileSet(name, data["major"], data["minor"], data["alpha"])
    except ChromaError as exc:
        raise ChromaError(f"profile file {path}: {exc}") from None


def load_profile_file(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Read and check a profile data file into float ``(major, minor, alpha)``.

    Schema: {"name": str, "major": [12 numbers], "minor": [12 numbers],
    "alpha": positive finite number}; extra keys (e.g. "source") and a
    leading BOM are ignored.  They are checked once, by the KeyProfileSet they build.
    """
    ps = _read_profile_set(path, os.fspath(path))
    return ps.major_profile, ps.minor_profile, ps.alpha


def build_profile_set(name: str, alpha_override=None, *, weights=DEFAULT_WEIGHTS) -> KeyProfileSet:
    """Load the named key profile set: one of the bundled sets ("temperley",
    alpha 0.2; "shaath", alpha 0.55) or any ``<name>.json`` under
    ``TONALSPACE_PROFILE_DIR``; another name raises UnknownProfileError.
    ``alpha_override``, when given, replaces the file's alpha (still checked).
    A set of other arrays is built with ``KeyProfileSet`` itself.
    """
    ps = _read_profile_set(_profile_path(name), name)
    if alpha_override is None and weights is DEFAULT_WEIGHTS:
        return ps
    alpha = ps.alpha if alpha_override is None else alpha_override
    return KeyProfileSet(name, ps.major_profile, ps.minor_profile, alpha, weights)


@functools.lru_cache(maxsize=16)
def _references(major: bytes, minor: bytes, weights: bytes) -> Tiv:
    """The 24 reference vectors of a profile pair, from the float64 bytes of
    the profiles and weights; row r of each half is ``np.roll(profile, r)``."""
    rotate = (np.arange(12) - np.arange(12)[:, None]) % 12
    profiles = [np.frombuffer(profile)[rotate] for profile in (major, minor)]
    w = DEFAULT_WEIGHTS if weights == DEFAULT_WEIGHTS.tobytes() else np.frombuffer(weights)
    return tiv_from_chroma(np.concatenate(profiles), w)


def estimate_key(t: Tiv, profiles: KeyProfileSet) -> KeyResult:
    """Nearest-reference key estimate for one (unbatched) interval vector.

    The query is compared against all 24 references by Euclidean distance;
    for the minor references (index >= 12) the query's coefficients are
    first scaled by ``profiles.alpha``.  Ties break toward the lowest
    index.  The result is scale-invariant in the source chroma, since the
    coefficients themselves are.  Silence and a zero-norm vector (uniform
    chroma, equally far from all 12 references of a mode) are refused.
    """
    _require_single("estimate_key", t)
    if t.is_silent:
        raise DegenerateInputError("cannot estimate a key for silence")
    if _sqnorm(t.coeffs) == 0.0:
        raise DegenerateInputError("cannot estimate a key for a zero-norm vector")
    _require_same_weights(t, profiles.profile_tivs)
    with np.errstate(over="ignore"):  # an overflowing alpha * T makes a minor distance inf
        queries = t.coeffs * np.array([1.0, profiles.alpha]).repeat(12)[:, None]
        return KeyResult(_readonly(np.sqrt(_sqnorm(queries - profiles.profile_tivs.coeffs))))
