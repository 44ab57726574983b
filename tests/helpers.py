"""Shared test utilities: an independent oracle and chroma builders.

The oracle computes interval-vector coefficients by naive O(N^2) summation
with ``cmath`` -- deliberately sharing no code path with the library's FFT
implementation -- so equivalence tests are meaningful.
"""

import cmath
import functools
import operator
import struct

import numpy as np

WEIGHTS = (3.0, 8.0, 11.5, 15.0, 14.5, 7.5)


def oracle_coeffs(chroma, weights=WEIGHTS):
    """Naive summation DFT of the L1-normalized chroma, coefficients 1..6."""
    c = [float(x) for x in chroma]
    total = sum(c)
    if total == 0.0:
        return [0j] * 6
    out = []
    for k in range(1, 7):
        acc = 0j
        for n in range(12):
            acc += (c[n] / total) * cmath.exp(-2j * cmath.pi * k * n / 12)
        out.append(weights[k - 1] * acc)
    return out


def fixed_order_dot(a, b) -> float:
    """Re<a, b> of two vectors in plain Python: the real products summed left to
    right from the first, then the imaginary products, then the two sums added."""
    pairs = [(complex(x), complex(y)) for x, y in zip(a, b)]
    re = functools.reduce(operator.add, [x.real * y.real for x, y in pairs])
    im = functools.reduce(operator.add, [x.imag * y.imag for x, y in pairs])
    return re + im


def binary_chroma(pitch_classes):
    """Binary 12-bin chroma with ones at the given pitch classes."""
    c = np.zeros(12)
    c[list(pitch_classes)] = 1.0
    return c


CLUSTER = binary_chroma([0, 1, 2])            # 3-note chromatic cluster
MAJOR_TRIAD = binary_chroma([0, 4, 7])        # C major triad
MINOR_TRIAD = binary_chroma([0, 3, 7])        # C minor triad
MAJOR_SCALE = binary_chroma([0, 2, 4, 5, 7, 9, 11])   # C major scale
WHOLE_TONE = binary_chroma([0, 2, 4, 6, 8, 10])       # whole-tone collection
MINOR_COLLECTION = binary_chroma([0, 2, 3, 5, 7, 8, 10])  # C natural minor


def random_chroma(rng, allow_zero=False):
    """Random nonnegative chroma; guaranteed non-silent unless allow_zero."""
    c = rng.uniform(0.0, 1.0, 12)
    if not allow_zero and c.sum() == 0.0:
        c[0] = 1.0
    return c


def pcm16_wav_bytes(sample_rate, samples, width=2):
    """A mono PCM WAV file, 16-bit unless ``width`` gives another sample size
    in bytes (3 for 24-bit): the 44-byte RIFF header, written out field by
    field so that any header rate, 0 included, can be given."""
    # the low ``width`` bytes of each sample as a little-endian int32
    data = np.asarray(samples, dtype="<i4").view(np.uint8).reshape(-1, 4)[:, :width].tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16, 1, 1,
        sample_rate, width * sample_rate, width, 8 * width, b"data", len(data),
    )
    return header + data
