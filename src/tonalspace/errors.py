"""Exception types shared across the package, and the degenerate-input policy.

Everything derives from ValueError so callers who do not care about the
distinction can catch the builtin.  The library raises one of these, never
a stray numpy error or warning:

- Silence (all-zero chroma) is the zero vector with energy 0: qualities
  report 0, dissonance 1, distances treat it as the origin.  Key estimation,
  the cosine and a ``combine`` of only silence raise DegenerateInputError,
  as key estimation and the cosine do for a zero-norm (uniform) chroma.
- ChromaError: NaN, infinite or negative bins; bin sums, frame means and
  ``combine`` energy sums beyond the float range (a mix whose energy sum is
  finite is computed, however large its operands); NaN, infinite or
  non-positive weights, and weights for which 4 * sum(w**2) overflows
  (|T(k)| <= w(k), so that sum bounds every squared distance between two
  vectors; below it distances, norms and cosines are finite, and an
  adaptive harmonic-change floor whose variance overflows is infinite, so
  no frame is a peak); a batch given to a function of one vector
  (``estimate_key``, the cosine, ``combine``'s and ``harmonic_change``'s
  list items, ``Tiv.to_dict``); two batches of different lengths given to
  ``euclid``; and any argument that breaks the next rules.
- Counts, indices and shifts (window and hop sizes, ``global_chroma``
  bounds, ``transpose``'s semitones) are integers.  Thresholds, rates,
  frequencies and alphas are finite reals.  Booleans and strings are
  neither, and an integer beyond the float range is not finite.  A WAV
  header's sample rate is a positive number, and ``fmax / ref_a4`` must be
  finite.  An alpha so large that alpha * T overflows makes every minor
  distance infinite, so a major key wins (the alpha -> infinity limit).
- Boolean and string arrays are not chroma, weights, profiles or ``Tiv``
  values (numpy reads ``"1"`` as 1.0); JSON chroma and profile files refuse
  booleans and strings as values.  CSV cells are text by nature and are
  parsed as numbers.  A leading BOM in any of these files is ignored.
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
