"""Batched interval vectors against the single-frame path and loop references.

A batch of N chroma rows must give, bit for bit, what N single-frame calls
give, and both must match the naive-DFT oracle.  Dissonance, harmonic-change
peaks and key distances are also compared with the per-vector formulas they
replaced (a plain-Python left-to-right sum per vector, a Python peak loop),
which fixes the floating-point summation order the batched forms must keep.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tonalspace import (
    HARTE_COEFFS,
    ChromaError,
    build_profile_set,
    chromaticity,
    combine,
    cosine_distance,
    cosine_similarity,
    diatonicity,
    dissonance,
    estimate_key,
    harmonic_change,
    qualities,
    tiv_from_chroma,
    wholetoneness,
)
from tonalspace import core

from helpers import fixed_order_dot, oracle_coeffs

QUALITIES = (chromaticity, diatonicity, wholetoneness, dissonance)


@st.composite
def chroma_batches(draw, min_rows=1):
    """(N, 12) nonnegative chroma with some rows forced silent."""
    n = draw(st.integers(min_value=min_rows, max_value=40))
    bins = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    frames = draw(arrays(float, (n, 12), elements=bins))
    frames[draw(arrays(bool, n))] = 0.0
    return frames


@given(chroma_batches())
@settings(max_examples=80, deadline=None)
def test_batch_equals_single_frames_and_oracle(frames):
    batch = tiv_from_chroma(frames)
    rows = [tiv_from_chroma(row) for row in frames]
    assert len(batch) == len(rows)
    assert np.array_equal(batch.coeffs, np.array([t.coeffs for t in rows]))
    assert np.array_equal(batch.energy, np.array([t.energy for t in rows]))
    assert np.array_equal(batch.is_silent, [t.is_silent for t in rows])
    for quality in QUALITIES:
        assert np.array_equal(quality(batch), [quality(t) for t in rows])
    assert np.array_equal(qualities(batch), [qualities(t) for t in rows])
    for i, row in enumerate(frames):
        assert np.array_equal(batch[i].coeffs, rows[i].coeffs)
        assert np.allclose(rows[i].coeffs, oracle_coeffs(row), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_fft_blocks_change_no_bits(rng, monkeypatch, rows):
    frames = rng.uniform(0, 1, (50, 12))
    frames[[4, 20, 21]] = 0.0
    want = tiv_from_chroma(frames)
    monkeypatch.setattr(core, "_BLOCK_ROWS", rows)
    got = tiv_from_chroma(frames)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert np.array_equal(got.energy, want.energy)


def test_blocked_fft_equals_one_shot(rng):
    """Three blocks against the one FFT call over every row that they replaced."""
    frames = rng.uniform(0, 1, (2 * core._BLOCK_ROWS + 5, 12))
    frames[::97] = 0.0
    energy = frames.sum(axis=1)
    silent = energy == 0.0
    spectrum = np.fft.fft(frames / np.where(silent, 1.0, energy)[:, None], axis=1)
    want = spectrum[:, 1:7] * core.DEFAULT_WEIGHTS
    want[silent] = 0.0
    assert np.array_equal(tiv_from_chroma(frames).coeffs, want)


@given(chroma_batches(min_rows=3), st.sampled_from([None, HARTE_COEFFS]))
@settings(max_examples=60, deadline=None)
def test_harmonic_change_batch_equals_sequence_and_loop(frames, coeffs):
    batch = tiv_from_chroma(frames)
    rows = [tiv_from_chroma(row) for row in frames]
    got = harmonic_change(batch, coeffs=coeffs)
    want = harmonic_change(rows, coeffs=coeffs)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.peaks, want.peaks)
    assert got.threshold == want.threshold
    lam = got.values
    loop_peaks = [
        m
        for m in range(1, len(lam) - 1)
        if lam[m - 1] < lam[m] >= lam[m + 1] and lam[m] >= got.threshold
    ]
    assert got.peaks.tolist() == loop_peaks


def test_dissonance_matches_per_vector_norm(rng):
    frames = rng.uniform(0.0, 1.0, (5000, 12)) * rng.uniform(1e-3, 1e3, (5000, 1))
    frames[rng.uniform(size=frames.shape) < 0.2] = 0.0
    batch = tiv_from_chroma(frames)
    w_norm = math.sqrt(fixed_order_dot(batch.weights, batch.weights))
    want = [1.0 - math.sqrt(fixed_order_dot(c, c)) / w_norm for c in batch.coeffs]
    assert np.array_equal(dissonance(batch), want)


def test_key_distances_match_per_reference_norm(rng):
    for name in ("temperley", "shaath"):
        profiles = build_profile_set(name)
        refs = profiles.references().coeffs
        for r in range(12):
            major = tiv_from_chroma(np.roll(profiles.major_profile, r))
            minor = tiv_from_chroma(np.roll(profiles.minor_profile, r))
            assert np.array_equal(refs[r], major.coeffs)
            assert np.array_equal(refs[12 + r], minor.coeffs)
        for _ in range(200):
            t = tiv_from_chroma(rng.uniform(0.0, 1.0, 12))
            q = t.coeffs
            want = [
                math.sqrt(fixed_order_dot(d, d))
                for d in [(q * profiles.alpha if r >= 12 else q) - refs[r] for r in range(24)]
            ]
            assert np.array_equal(estimate_key(t, profiles).distances, want)


def test_a_single_vector_has_no_length_and_no_index():
    one = tiv_from_chroma(np.ones(12))
    with pytest.raises(TypeError, match="a single interval vector has no length"):
        len(one)
    for index in (0, slice(None), -1):
        with pytest.raises(TypeError, match="a single interval vector cannot be indexed"):
            one[index]


ONE_VECTOR_CALLS = {
    "estimate_key": lambda b: estimate_key(b, build_profile_set("temperley")),
    "cosine_similarity": lambda b: cosine_similarity(b, b),
    "cosine_distance": lambda b: cosine_distance(b[0], b),
    "combine": lambda b: combine([b, b]),
    "to_dict": lambda b: b.to_dict(),
    "harmonic_change": lambda b: harmonic_change([b, b, b]),
}


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("name", sorted(ONE_VECTOR_CALLS))
def test_one_vector_functions_refuse_a_batch(name, rows):
    batch = tiv_from_chroma(np.random.default_rng(rows).uniform(size=(rows, 12)))
    with pytest.raises(ChromaError, match="not a batch"):
        ONE_VECTOR_CALLS[name](batch)
