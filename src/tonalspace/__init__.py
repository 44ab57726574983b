"""Tonal analysis of chroma vectors in a weighted interval space.

12-bin chroma vectors are mapped to six complex interval coefficients (a
weighted DFT of the L1-normalized chroma) on which the library computes
six harmonic qualities (chromaticity to whole-toneness), intervallic
dissonance, energy-weighted mixing, Euclidean/cosine distances, framewise
harmonic-change detection, and 24-key estimation.  ``tonalspace.cli``
provides a batch command-line front end over chroma CSV/JSON files and a
minimal built-in WAV extractor.
"""

from types import ModuleType as _ModuleType

from .chroma import (
    ChromaSequence,
    extract_chroma_wav,
    global_chroma,
    load_chroma_csv,
    load_chroma_json,
    save_chroma_csv,
    save_chroma_json,
    window_average,
)
from .core import (
    DEFAULT_WEIGHTS,
    PHASE_EPS,
    PhaseVector,
    Tiv,
    as_chroma,
    as_weights,
    combine,
    mag,
    phases,
    tiv_from_chroma,
    transpose,
)
from .descriptors import (
    HARTE_COEFFS,
    HarmonicChangeSeries,
    chromaticity,
    cosine_distance,
    cosine_similarity,
    diatonicity,
    dissonance,
    euclid,
    harmonic_change,
    qualities,
    wholetoneness,
)
from .errors import (
    ChromaError,
    DegenerateInputError,
    InsufficientInputError,
    TonalSpaceError,
    UnknownProfileError,
    WeightMismatchError,
)
from .key import (
    PITCH_CLASS_NAMES,
    KeyProfileSet,
    KeyResult,
    build_profile_set,
    estimate_key,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are not API
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
