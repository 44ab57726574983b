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
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import (
    DEFAULT_WEIGHTS,
    Tiv,
    _frozen,
    _require_same_weights,
    _require_single,
    as_chroma,
    tiv_from_chroma,
)
from .descriptors import _sqnorm
from .errors import ChromaError, DegenerateInputError, UnknownProfileError

PROFILE_DIR_ENV = "TONALSPACE_PROFILE_DIR"
BUNDLED_PROFILES = ("temperley", "shaath")

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
    return str(resources.files("tonalspace").joinpath("profiles", f"{name}.json"))


def load_profile_file(path) -> dict:
    """Read and validate a profile data file.

    Schema: {"name": str, "major": [12 numbers], "minor": [12 numbers],
    "alpha": positive finite number}; extra keys (e.g. "source") are ignored.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ChromaError(f"cannot read profile file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ChromaError(f"profile file {path} must hold a JSON object")
    for field in ("name", "major", "minor", "alpha"):
        if field not in data:
            raise ChromaError(f"profile file {path} is missing field {field!r}")
    as_chroma(data["major"])
    as_chroma(data["minor"])
    if bool in map(type, data["major"] + data["minor"]):  # as_chroma reads 0 or 1
        raise ChromaError(f"profile file {path}: major and minor must hold numbers")
    alpha = data["alpha"]  # type(): a JSON boolean is no number
    if type(alpha) not in (int, float) or not 0 < alpha <= sys.float_info.max:
        raise ChromaError(f"profile file {path}: alpha must be a positive finite number")
    return data


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
        data = {"major": major_profile, "minor": minor_profile}
    else:
        data = load_profile_file(_profile_path(name))
    major, minor = as_chroma(data["major"]), as_chroma(data["minor"])
    alpha = float(data["alpha"] if alpha_override is None else alpha_override)
    if not (np.isfinite(alpha) and alpha > 0):
        raise ChromaError("alpha must be a positive finite number")

    rotations = [np.roll(profile, r) for profile in (major, minor) for r in range(12)]
    return KeyProfileSet(
        name=name,
        major_profile=major,
        minor_profile=minor,
        alpha=alpha,
        profile_tivs=tiv_from_chroma(np.array(rotations), weights),
    )


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
    if np.linalg.norm(t.coeffs) == 0.0:
        raise DegenerateInputError("cannot estimate a key for a zero-norm vector")
    _require_same_weights(t, profiles.profile_tivs)
    queries = np.array([t.coeffs] * 12 + [t.coeffs * profiles.alpha] * 12)
    distances = np.sqrt(_sqnorm(queries - profiles.profile_tivs.coeffs))
    index = int(np.argmin(distances))
    return KeyResult(
        index=index,
        tonic=index % 12,
        mode="major" if index <= 11 else "minor",
        distances=distances,
    )
