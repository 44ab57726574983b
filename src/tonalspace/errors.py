"""Exception types shared across the package, and the degenerate-input policy.

Everything derives from ValueError so callers who do not care about the
distinction can catch the builtin.  The library raises one of these, never
a stray numpy error or warning:

- Silence (all-zero chroma) is the zero vector with energy 0: qualities
  report 0, dissonance 1, distances treat it as the origin.  Key estimation,
  the cosine and a ``combine`` of only silence raise DegenerateInputError,
  as key estimation and the cosine do for a zero-norm (uniform) chroma.
- ChromaError: NaN, infinite or negative bins; bins whose sum overflows the
  float range; a NaN or infinite threshold; NaN, infinite or non-positive
  weights and alphas; a batch passed to a function of one vector
  (``estimate_key``, the cosine, ``combine``'s operands, ``Tiv.to_dict``).
- Booleans and strings are not numbers: chroma, weight and profile arrays
  refuse strings (numpy reads ``"1"`` as 1.0), ``harmonic_change`` a boolean
  threshold, and JSON chroma files and profile files both.  CSV cells are
  text by nature and are parsed as numbers.
- A profile name that is neither bundled nor a ``<name>.json`` in
  ``$TONALSPACE_PROFILE_DIR`` raises UnknownProfileError (CLI exit 2); a
  malformed profile file raises ChromaError (exit 1).
"""


class TonalSpaceError(ValueError):
    """Base class for all tonalspace errors."""


class ChromaError(TonalSpaceError):
    """Malformed chroma input: wrong length, negative or non-finite bins,
    or an unparseable file row."""


class UnknownProfileError(ChromaError):
    """A key profile name that no bundled set or profile file provides."""


class WeightMismatchError(TonalSpaceError):
    """Operands were built with different interval weight vectors."""


class DegenerateInputError(TonalSpaceError):
    """Operation is undefined for this input (silence, zero norm, empty range)."""


class InsufficientInputError(TonalSpaceError):
    """Too few frames for a temporal operation."""
