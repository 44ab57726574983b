"""Exception types shared across the package, and the degenerate-input policy.

Everything derives from ValueError so callers who do not care about the
distinction can catch the builtin.  The library raises one of these, never
a stray numpy error or warning:

- Silence (all-zero chroma) is the zero vector with energy 0, and a ``Tiv`` of
  energy 0 has every coefficient 0: qualities report 0, dissonance 1, distances
  treat it as the origin.  Key estimation, the cosine and a ``combine`` of only
  silence raise DegenerateInputError, as the first two do for a zero-norm chroma.
- ChromaError: NaN, infinite or negative bins; bin sums, frame means and
  ``combine`` energy sums beyond the float range (a mix whose energy sum is
  finite is computed, however large its operands); NaN, infinite or
  non-positive weights, and weights for which 4 * sum(w**2) overflows
  (every ``Tiv`` holds |T(k)| <= w(k), up to rounding, and refuses other
  coefficients, so that sum bounds every squared distance between two
  vectors; below it distances, norms and cosines are finite, and an
  adaptive harmonic-change floor whose variance overflows is infinite, so
  no frame is a peak); a batch given to a function of one vector
  (``estimate_key``, the cosine, ``combine``'s and ``harmonic_change``'s
  list items, ``Tiv.to_dict``); two batches of different lengths given to
  ``euclid``; NaN or negative key distances; and any argument that breaks the next rules.
- Counts, indices and shifts (window and hop sizes, ``global_chroma``
  bounds, ``transpose``'s semitones) are integers.  Thresholds, rates,
  frequencies and alphas are finite reals.  Booleans and strings are
  neither, and an integer beyond the float range is not finite.  A WAV
  header's sample rate is a positive number, and ``fmax / ref_a4`` must be
  finite.  Float WAV samples are finite, and a channel mean or spectral
  power that overflows the float range is refused; both errors name the
  file.  A WAV is RIFF with ``fmt `` before ``data`` (other chunks skipped, a short ``data``
  read to its last whole frame) of PCM of 1-4 bytes (3 as left-justified int32) or float of
  4 or 8 (extensible: its subformat); other formats, 0 channels, RIFX and RF64 are refused.
  An alpha so large that alpha * T overflows makes every minor distance
  infinite, so a major key wins (the alpha -> infinity limit).  ``KeyProfileSet`` is
  the one check of a set, by hand or loaded: profiles (named), then alpha.
- Boolean and string arrays are not chroma, weights, profiles, ``Tiv``, key
  distances or change values (numpy reads ``"1"`` as 1.0); JSON files refuse
  booleans and strings as values.  CSV cells are text by nature and are
  parsed as numbers.  A leading BOM in any of these files is ignored.
- A profile name that is neither bundled nor a bare name (no directory part) with a
  ``<name>.json`` in ``$TONALSPACE_PROFILE_DIR`` raises UnknownProfileError (exit 2).  A file that
  cannot be read, decoded or parsed as JSON raises ChromaError (exit 1) worded
  ``cannot read <what> <path>: <reason>``; a JSON non-object or missing field says so.
  Other refusals of a chroma file's content start ``<path>: `` (a CSV or JSON
  row's: ``<path>: row <i>: <reason>``), of a profile file's ``profile file <path>: ``.
- Harmonic change of 1 or 2 frames is all 0, with no peak; of 0, InsufficientInputError.
"""


class TonalSpaceError(ValueError):
    """Base class for all tonalspace errors."""


class ChromaError(TonalSpaceError):
    """Malformed chroma input: wrong length, negative or non-finite bins,
    or an unparseable file row."""


class UnknownProfileError(ChromaError):
    """A key profile name that no bundled set or profile file provides."""


class WeightMismatchError(TonalSpaceError):
    """Operands of euclid, the cosine, combine or a harmonic_change list differ in weights."""


class DegenerateInputError(TonalSpaceError):
    """Operation is undefined for this input (silence, zero norm, empty range)."""


class InsufficientInputError(TonalSpaceError):
    """Too few frames for a temporal operation."""
