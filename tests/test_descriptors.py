"""Tests for harmonic qualities, distances, and harmonic change."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonalspace import (
    HARTE_COEFFS,
    ChromaError,
    DegenerateInputError,
    InsufficientInputError,
    WeightMismatchError,
    chromaticity,
    cosine_distance,
    cosine_similarity,
    diatonicity,
    dissonance,
    euclid,
    harmonic_change,
    qualities,
    tiv_from_chroma,
    transpose,
    wholetoneness,
)

from helpers import (
    CLUSTER,
    MAJOR_SCALE,
    MAJOR_TRIAD,
    MINOR_TRIAD,
    WHOLE_TONE,
    binary_chroma,
    random_chroma,
)

# Regression constants, derived before the build by an independent naive
# DFT oracle and frozen here.
CHROMATICITY_CLUSTER = 0.9106836025229589
CHROMATICITY_TRIAD = 0.1725460300683472
CHROMATICITY_SCALE = 0.03827845606158887
DIATONICITY_CLUSTER = 0.24401693585629247
DIATONICITY_TRIAD = 0.6439505508593788
DIATONICITY_SCALE = 0.5331501153669828
DISSONANCE_SEMITONE = 0.4738878797876247
DISSONANCE_FIFTH = 0.27409528998845234
EUCLID_MAJOR_MINOR = 14.965052715589064
EUCLID_MAJOR_STEPS = 21.615966321217286

QUALITIES = (chromaticity, diatonicity, wholetoneness, dissonance)
# the named qualities and the function of all six columns
ALL_QUALITIES = (*QUALITIES[:3], qualities)


class TestQualityValues:
    @pytest.mark.parametrize("quality", ALL_QUALITIES)
    def test_one_hot_is_one(self, quality):
        assert quality(tiv_from_chroma(binary_chroma([0]))) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("quality", ALL_QUALITIES)
    def test_uniform_is_zero(self, quality):
        assert quality(tiv_from_chroma(np.ones(12))) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_dissonance_zero(self):
        assert dissonance(tiv_from_chroma(binary_chroma([0]))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_uniform_dissonance_one(self):
        assert dissonance(tiv_from_chroma(np.ones(12))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_silence_convention(self):
        silent = tiv_from_chroma(np.zeros(12))
        assert np.array_equal(qualities(silent), np.zeros(6))
        assert chromaticity(silent) == 0.0
        assert diatonicity(silent) == 0.0
        assert wholetoneness(silent) == 0.0
        assert dissonance(silent) == 1.0

    @pytest.mark.parametrize(
        "chroma,expected",
        [
            (CLUSTER, CHROMATICITY_CLUSTER),
            (MAJOR_TRIAD, CHROMATICITY_TRIAD),
            (MAJOR_SCALE, CHROMATICITY_SCALE),
        ],
    )
    def test_chromaticity_regression(self, chroma, expected):
        assert chromaticity(tiv_from_chroma(chroma)) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize(
        "chroma,expected",
        [
            (CLUSTER, DIATONICITY_CLUSTER),
            (MAJOR_TRIAD, DIATONICITY_TRIAD),
            (MAJOR_SCALE, DIATONICITY_SCALE),
        ],
    )
    def test_diatonicity_regression(self, chroma, expected):
        assert diatonicity(tiv_from_chroma(chroma)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_cluster_is_most_chromatic(self):
        # the semitone cluster dominates both tonal sonorities on chromaticity
        c = chromaticity(tiv_from_chroma(CLUSTER))
        assert c > chromaticity(tiv_from_chroma(MAJOR_TRIAD)) + 0.05
        assert c > chromaticity(tiv_from_chroma(MAJOR_SCALE)) + 0.05

    def test_tonal_sonorities_beat_cluster_on_diatonicity(self):
        d = diatonicity(tiv_from_chroma(CLUSTER))
        assert diatonicity(tiv_from_chroma(MAJOR_SCALE)) > d + 0.05
        assert diatonicity(tiv_from_chroma(MAJOR_TRIAD)) > d + 0.05

    def test_whole_tone_collection_forces_one(self):
        t = tiv_from_chroma(WHOLE_TONE)
        assert wholetoneness(t) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(t.coeffs[:5]) <= 1e-12)

    def test_full_chromatic_wholetoneness_zero(self):
        assert wholetoneness(tiv_from_chroma(np.ones(12))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_semitone_more_dissonant_than_fifth(self):
        semitone = dissonance(tiv_from_chroma(binary_chroma([0, 1])))
        fifth = dissonance(tiv_from_chroma(binary_chroma([0, 7])))
        assert semitone == pytest.approx(DISSONANCE_SEMITONE, abs=1e-12)
        assert fifth == pytest.approx(DISSONANCE_FIFTH, abs=1e-12)
        assert semitone > fifth

    def test_qualities_in_unit_interval(self, rng):
        for _ in range(200):
            t = tiv_from_chroma(random_chroma(rng))
            for quality in QUALITIES:
                assert -1e-12 <= quality(t) <= 1.0 + 1e-12
            q = qualities(t)
            assert q.shape == (6,)
            assert np.all((q >= -1e-12) & (q <= 1.0 + 1e-12))

    def test_qualities_transposition_invariant(self, rng):
        functions = (*QUALITIES, qualities)
        for _ in range(20):
            t = tiv_from_chroma(random_chroma(rng))
            base = [quality(t) for quality in functions]
            for p in range(12):
                tt = transpose(t, p)
                for quality, want in zip(functions, base):
                    assert quality(tt) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "weights", [None, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [7.5, 1e-3, 2.0, 1e3, 0.5, 3.0]]
    )
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_named_qualities_are_columns_of_qualities(self, rng, weights, scale):
        frames = rng.uniform(0.0, 1.0, (500, 12)) * scale
        frames[rng.uniform(size=500) < 0.2] = 0.0
        kwargs = {} if weights is None else {"weights": weights}
        batch = tiv_from_chroma(frames, **kwargs)
        q = qualities(batch)
        assert q.shape == (500, 6)
        for k, quality in ((0, chromaticity), (4, diatonicity), (5, wholetoneness)):
            assert np.array_equal(q[:, k], quality(batch))
            for i in (0, 1, 499):
                one = tiv_from_chroma(frames[i], **kwargs)
                assert np.array_equal(qualities(one)[k], quality(one))
                assert type(quality(one)) is float


class TestDistances:
    def test_euclid_identity_and_symmetry(self, rng):
        t1 = tiv_from_chroma(random_chroma(rng))
        t2 = tiv_from_chroma(random_chroma(rng))
        assert euclid(t1, t1) == 0.0
        assert euclid(t1, t2) == pytest.approx(euclid(t2, t1), abs=1e-15)

    def test_euclid_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (tiv_from_chroma(random_chroma(rng)) for _ in range(3))
            assert euclid(a, c) <= euclid(a, b) + euclid(b, c) + 1e-9

    def test_euclid_batches_of_different_lengths_rejected(self, rng):
        five = tiv_from_chroma(rng.uniform(0.0, 1.0, (5, 12)))
        two = tiv_from_chroma(rng.uniform(0.0, 1.0, (2, 12)))
        for a, b in ((five, two), (two, five)):
            with pytest.raises(ChromaError, match=f"got {len(a)} and {len(b)}"):
                euclid(a, b)
        # a batch against one vector still broadcasts, either way round
        want = [euclid(five[i], two[0]) for i in range(5)]
        assert np.array_equal(euclid(five, two[0]), want)
        assert np.array_equal(euclid(two[0], five), want)

    def test_parsimonious_voice_leading_is_closer(self):
        major = tiv_from_chroma(MAJOR_TRIAD)
        minor = tiv_from_chroma(MINOR_TRIAD)
        steps = tiv_from_chroma(binary_chroma([1, 2, 3]))
        assert euclid(major, minor) == pytest.approx(EUCLID_MAJOR_MINOR, abs=1e-12)
        assert euclid(major, steps) == pytest.approx(EUCLID_MAJOR_STEPS, abs=1e-12)
        assert euclid(major, minor) < euclid(major, steps)

    def test_euclid_weight_mismatch(self):
        t1 = tiv_from_chroma(MAJOR_TRIAD)
        t2 = tiv_from_chroma(MAJOR_TRIAD, np.arange(1.0, 7.0))
        with pytest.raises(WeightMismatchError):
            euclid(t1, t2)

    def test_cosine_self_similarity_is_one(self, rng):
        t = tiv_from_chroma(random_chroma(rng))
        assert cosine_similarity(t, t) == pytest.approx(1.0, abs=1e-12)
        assert cosine_distance(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_range_and_complement(self, rng):
        for _ in range(100):
            t1 = tiv_from_chroma(random_chroma(rng))
            t2 = tiv_from_chroma(random_chroma(rng))
            sim = cosine_similarity(t1, t2)
            assert -1.0 - 1e-12 <= sim <= 1.0 + 1e-12
            assert cosine_distance(t1, t2) == pytest.approx(1.0 - sim, abs=1e-15)

    def test_tritone_one_hot_closed_form(self):
        t = tiv_from_chroma(binary_chroma([0]))
        w = np.asarray(t.weights)
        closed = float(
            np.sum(w**2 * np.cos(np.pi * np.arange(1, 7))) / np.sum(w**2)
        )
        assert cosine_similarity(t, transpose(t, 6)) == pytest.approx(
            closed, abs=1e-12
        )

    def test_cosine_scaling_invariance(self, rng):
        c1, c2 = random_chroma(rng), random_chroma(rng)
        base = cosine_similarity(tiv_from_chroma(c1), tiv_from_chroma(c2))
        scaled = cosine_similarity(tiv_from_chroma(5 * c1), tiv_from_chroma(0.1 * c2))
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_cosine_joint_rotation_invariance(self, rng):
        t1 = tiv_from_chroma(random_chroma(rng))
        t2 = tiv_from_chroma(random_chroma(rng))
        base = cosine_similarity(t1, t2)
        for p in range(12):
            got = cosine_similarity(transpose(t1, p), transpose(t2, p))
            assert got == pytest.approx(base, abs=1e-9)

    def test_cosine_rejects_zero_norm(self):
        t = tiv_from_chroma(MAJOR_TRIAD)
        uniform = tiv_from_chroma(np.ones(12))
        with pytest.raises(DegenerateInputError):
            cosine_similarity(t, uniform)
        with pytest.raises(DegenerateInputError):
            cosine_similarity(tiv_from_chroma(np.zeros(12)), t)

    def test_silence_sits_at_origin_for_euclid(self, rng):
        t = tiv_from_chroma(random_chroma(rng))
        silent = tiv_from_chroma(np.zeros(12))
        assert euclid(t, silent) == pytest.approx(
            float(np.linalg.norm(t.coeffs)), abs=1e-12
        )

    def test_nearest_neighbour_ranking_matches_brute_force(self, rng):
        pool = [tiv_from_chroma(random_chroma(rng)) for _ in range(60)]
        query = tiv_from_chroma(random_chroma(rng))
        by_lib = sorted(range(60), key=lambda i: cosine_distance(query, pool[i]))
        sims = [
            float(
                np.real(np.vdot(query.coeffs, p.coeffs))
                / (np.linalg.norm(query.coeffs) * np.linalg.norm(p.coeffs))
            )
            for p in pool
        ]
        by_hand = sorted(range(60), key=lambda i: 1.0 - sims[i])
        assert by_lib == by_hand


def test_weights_just_under_the_overflow_bound_give_finite_answers():
    """|T(k)| <= w(k) keeps every squared distance below 4 * sum(w**2), which
    these weights keep finite; only the adaptive floor's variance overflows."""
    w = [2.7e153] * 6
    a, b = tiv_from_chroma(binary_chroma([0]), w), tiv_from_chroma(binary_chroma([6]), w)
    assert euclid(a, b) == pytest.approx(2 * np.sqrt(3) * 2.7e153, rel=1e-12)
    assert cosine_similarity(a, b) == pytest.approx(0.0, abs=1e-12)
    assert dissonance(a) == pytest.approx(0.0, abs=1e-12)
    frames = np.array([binary_chroma([0])] * 3 + [binary_chroma([6])] * 3)
    series = harmonic_change(tiv_from_chroma(np.tile(frames, (20, 1)), w))
    assert np.isfinite(series.values).all()
    assert series.threshold == np.inf and len(series.peaks) == 0


class TestHarmonicChange:
    def test_constant_sequence_is_flat(self):
        tivs = [tiv_from_chroma(MAJOR_TRIAD)] * 7
        series = harmonic_change(tivs)
        assert np.array_equal(series.values, np.zeros(7))
        assert series.peaks.size == 0

    def test_two_block_sequence_single_straddle_peak(self):
        a = tiv_from_chroma(MAJOR_TRIAD)
        b = tiv_from_chroma(binary_chroma([2, 5, 9]))
        series = harmonic_change([a, a, a, b, b, b])
        d = euclid(a, b)
        assert np.allclose(series.values, [0, 0, d, d, 0, 0], atol=1e-12)
        assert list(series.peaks) == [2]

    def test_values_match_straddling_euclid(self, rng):
        tivs = [tiv_from_chroma(random_chroma(rng)) for _ in range(15)]
        series = harmonic_change(tivs)
        assert series.values[0] == 0.0
        assert series.values[-1] == 0.0
        for m in range(1, 14):
            assert series.values[m] == pytest.approx(
                euclid(tivs[m - 1], tivs[m + 1]), abs=1e-12
            )

    def test_peaks_are_strict_local_maxima_above_threshold(self, rng):
        tivs = [tiv_from_chroma(random_chroma(rng)) for _ in range(40)]
        series = harmonic_change(tivs)
        lam = series.values
        for p in series.peaks:
            assert lam[p - 1] < lam[p] >= lam[p + 1]
            assert lam[p] >= series.threshold

    def test_adaptive_threshold_value(self, rng):
        tivs = [tiv_from_chroma(random_chroma(rng)) for _ in range(20)]
        series = harmonic_change(tivs)
        lam = series.values
        assert series.threshold == pytest.approx(
            float(lam.mean() + lam.std()), abs=1e-12
        )

    def test_fixed_threshold(self):
        a = tiv_from_chroma(MAJOR_TRIAD)
        b = tiv_from_chroma(binary_chroma([2, 5, 9]))
        seq = [a, a, a, b, b, b]
        high = harmonic_change(seq, threshold=1e6)
        assert high.peaks.size == 0
        low = harmonic_change(seq, threshold=0.0)
        assert list(low.peaks) == [2]

    def test_harte_subset_uses_three_coefficients(self):
        a = tiv_from_chroma(MAJOR_TRIAD)
        b = tiv_from_chroma(binary_chroma([2, 5, 9]))
        series = harmonic_change([a, a, b, b], coeffs=HARTE_COEFFS)
        sub = np.array([3, 4, 5]) - 1
        expected = float(np.linalg.norm(a.coeffs[sub] - b.coeffs[sub]))
        assert series.values[1] == pytest.approx(expected, abs=1e-12)
        assert series.values[2] == pytest.approx(expected, abs=1e-12)

    def test_bad_coefficient_subset_rejected(self):
        tivs = [tiv_from_chroma(MAJOR_TRIAD)] * 3
        for bad in ([0], [7], [], [2.7], ["3"], [3, None], [True, 2], 5):
            with pytest.raises(ChromaError):
                harmonic_change(tivs, coeffs=bad)

    def test_non_numeric_threshold_rejected(self):
        tivs = [tiv_from_chroma(MAJOR_TRIAD)] * 3
        with pytest.raises(ChromaError, match="threshold"):
            harmonic_change(tivs, threshold="foo")

    @pytest.mark.parametrize(
        "bad",
        [
            np.nan, np.inf, -np.inf, True, np.True_, "0.5", 10**400,
            np.array([0.5, 0.6]),
        ],
        ids=["nan", "inf", "-inf", "bool", "numpy-bool", "string", "huge-int", "array"],
    )
    def test_threshold_must_be_a_finite_number(self, bad):
        tivs = [tiv_from_chroma(MAJOR_TRIAD)] * 3
        with pytest.raises(ChromaError, match="threshold"):
            harmonic_change(tivs, threshold=bad)

    def test_too_few_frames_rejected(self):
        t = tiv_from_chroma(MAJOR_TRIAD)
        with pytest.raises(InsufficientInputError):
            harmonic_change([t, t])

    def test_weight_mismatch_rejected(self):
        t1 = tiv_from_chroma(MAJOR_TRIAD)
        t2 = tiv_from_chroma(MAJOR_TRIAD, np.arange(1.0, 7.0))
        with pytest.raises(WeightMismatchError):
            harmonic_change([t1, t1, t2])

    @given(st.integers(min_value=3, max_value=25), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_series_shape_invariants(self, n, seed):
        rng = np.random.default_rng(seed)
        tivs = [tiv_from_chroma(rng.uniform(0, 1, 12) + 1e-6) for _ in range(n)]
        series = harmonic_change(tivs)
        assert len(series.values) == n
        assert np.all(series.values >= 0)
        assert all(1 <= p <= n - 2 for p in series.peaks)
        assert np.array_equal(series.peaks, np.sort(series.peaks))
