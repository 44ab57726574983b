"""24-key estimation by nearest reference vector in interval space.

Reference vectors are the interval vectors of the 12 rotations of a major
and a minor key profile.  Distances to the minor references are measured
after scaling the query by the profile set's ``alpha`` bias, which balances
the systematically different geometry of the major and minor templates.
The winning index r encodes tonic and mode: 0..11 are C..B major, 12..23
are C..B minor.

Profile tables ship as JSON data files (``profiles/``) rather than inline
constants so their provenance stays auditable; ``TONALSPACE_PROFILE_DIR``
points the loader at an alternative directory.

``build_profile_set`` reads and validates the profile file on every call,
so an edited or malformed override file takes effect at once; the 24
reference vectors are memoised by the profiles' and weights' contents, so a
process estimating many keys computes them once per distinct profile set.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_WEIGHTS,
    Tiv,
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
    """A named major/minor profile pair, its bias, and the 24 reference
    vectors as one batched Tiv (row r: 0..11 major rotations, 12..23 minor
    rotations)."""

    name: str
    major_profile: np.ndarray
    minor_profile: np.ndarray
    alpha: float
    profile_tivs: Tiv

    def __post_init__(self):
        object.__setattr__(self, "major_profile", _frozen(self.major_profile))
        object.__setattr__(self, "minor_profile", _frozen(self.minor_profile))


@dataclass(frozen=True, eq=False)
class KeyResult:
    """Winning key index plus the full 24-entry distance vector."""

    index: int
    tonic: int
    mode: str
    distances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "distances", _frozen(self.distances))

    @property
    def label(self) -> str:
        return f"{PITCH_CLASS_NAMES[self.tonic]} {self.mode}"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "tonic": self.tonic,
            "mode": self.mode,
            "label": self.label,
        }


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


def load_profile_file(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Read and check a profile data file into float ``(major, minor, alpha)``.

    Schema: {"name": str, "major": [12 numbers], "minor": [12 numbers],
    "alpha": positive finite number}; extra keys (e.g. "source") and a
    leading BOM are ignored.  The arrays are read-only, so a KeyProfileSet holds them.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ChromaError(f"cannot read profile file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ChromaError(f"profile file {path} must hold a JSON object")
    for field in ("name", "major", "minor", "alpha"):
        if field not in data:
            raise ChromaError(f"profile file {path} is missing field {field!r}")
    for field in ("major", "minor"):
        try:
            data[field] = _readonly(as_chroma(data[field]))
        except ChromaError as exc:
            raise ChromaError(f"profile file {path}: {field}: {exc}") from None
    alpha = _as_real(data["alpha"], f"profile file {path}: alpha", positive=True)
    return data["major"], data["minor"], alpha


def build_profile_set(
    name: str,
    alpha_override=None,
    *,
    major_profile=None,
    minor_profile=None,
    weights=DEFAULT_WEIGHTS,
) -> KeyProfileSet:
    """Load (or assemble) a key profile set and precompute its 24 vectors.

    ``name`` is one of the bundled sets ("temperley", alpha 0.2;
    "shaath", alpha 0.55) or any ``<name>.json`` under
    ``TONALSPACE_PROFILE_DIR``; another name raises UnknownProfileError.
    "custom" given ``major_profile`` or ``minor_profile`` is assembled from
    them instead, and requires both plus ``alpha_override``.
    """
    if name == "custom" and (major_profile is not None or minor_profile is not None):
        if major_profile is None or minor_profile is None or alpha_override is None:
            raise ChromaError(
                "custom profile set requires major_profile, minor_profile and alpha_override"
            )
        major, minor, alpha = as_chroma(major_profile), as_chroma(minor_profile), None
    else:
        major, minor, alpha = load_profile_file(_profile_path(name))
    if alpha_override is not None:
        alpha = _as_real(alpha_override, "alpha", positive=True)
    w = as_weights(weights)
    return KeyProfileSet(
        name=name,
        major_profile=major,
        minor_profile=minor,
        alpha=alpha,
        profile_tivs=_references(major.tobytes(), minor.tobytes(), w.tobytes()),
    )


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
        distances = _readonly(np.sqrt(_sqnorm(queries - profiles.profile_tivs.coeffs)))
    index = int(distances.argmin())
    return KeyResult(
        index=index,
        tonic=index % 12,
        mode="major" if index <= 11 else "minor",
        distances=distances,
    )
