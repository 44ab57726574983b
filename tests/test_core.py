"""Tests for the chroma-to-interval-vector transform and its algebra."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonalspace import (
    DEFAULT_WEIGHTS,
    PHASE_EPS,
    ChromaError,
    ChromaSequence,
    DegenerateInputError,
    HarmonicChangeSeries,
    KeyProfileSet,
    KeyResult,
    PhaseVector,
    Tiv,
    WeightMismatchError,
    as_chroma,
    as_weights,
    build_profile_set,
    combine,
    estimate_key,
    extract_chroma_wav,
    global_chroma,
    harmonic_change,
    load_chroma_csv,
    load_chroma_json,
    mag,
    phases,
    save_chroma_csv,
    save_chroma_json,
    tiv_from_chroma,
    transpose,
    window_average,
)

import tonalspace.chroma as chroma_module
import tonalspace.core as core_module
import tonalspace.descriptors as descriptors_module
import tonalspace.key as key_module
from helpers import WHOLE_TONE, binary_chroma, fixed_order_dot, oracle_coeffs, random_chroma

chroma_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=12,
    max_size=12,
)


class TestValidation:
    def test_as_chroma_accepts_lists_and_arrays(self):
        assert as_chroma([0.0] * 12).shape == (12,)
        assert as_chroma(np.ones(12)).dtype == float

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones(11),
            np.ones(13),
            np.ones((3, 12)),
            [1.0] * 11,
            np.full(12, np.nan),
            np.full(12, np.inf),
            -np.ones(12),
            {"a": 1},
            [1j] * 12,
            [10**400] * 12,
            "abc",
            ["1"] * 12,
            [None] * 12,
            [True] * 12,
            np.ones(12, dtype=bool),
        ],
    )
    def test_as_chroma_rejects_invalid(self, bad):
        with pytest.raises(ChromaError):
            as_chroma(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones(5),
            np.zeros(6),
            -np.ones(6),
            np.full(6, np.nan),
            ["a"] * 6,
            ["1"] * 6,
            {"a": 1},
            [[1.0] * 6, [1.0] * 5],
            [1e154] * 6,  # 4 * sum(w**2), the largest squared distance, overflows
        ],
    )
    def test_as_weights_rejects_invalid(self, bad):
        with pytest.raises(ChromaError):
            as_weights(bad)


TONE_WAV = Path(__file__).parent / "data" / "golden" / "tone.wav"
FIVE_FRAMES = ChromaSequence(np.ones((5, 12)))
ONE_HOT_DICT = {"coeffs": [[w, 0.0] for w in DEFAULT_WEIGHTS], "energy": 1.0}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: build_profile_set("temperley", "abc"), id="alpha-abc"),
        pytest.param(lambda: build_profile_set("temperley", "0.5"), id="alpha-string"),
        pytest.param(lambda: build_profile_set("temperley", True), id="alpha-bool"),
        pytest.param(lambda: global_chroma(FIVE_FRAMES, 1.5), id="start-float"),
        pytest.param(lambda: global_chroma(FIVE_FRAMES, True), id="start-bool"),
        pytest.param(lambda: global_chroma(FIVE_FRAMES, "2"), id="start-string"),
        pytest.param(lambda: global_chroma(FIVE_FRAMES, 0, 1.5), id="stop-float"),
        pytest.param(lambda: ChromaSequence(np.ones((2, 12)), "x"), id="rate-text"),
        pytest.param(lambda: ChromaSequence(np.ones((2, 12)), "5"), id="rate-string"),
        pytest.param(lambda: ChromaSequence(np.ones((2, 12)), True), id="rate-bool"),
        pytest.param(lambda: extract_chroma_wav(TONE_WAV, fmin="55"), id="fmin-string"),
        pytest.param(lambda: extract_chroma_wav(TONE_WAV, fmin=True), id="fmin-bool"),
        pytest.param(lambda: extract_chroma_wav(TONE_WAV, fmax="55"), id="fmax-string"),
        pytest.param(lambda: extract_chroma_wav(TONE_WAV, fmax=True), id="fmax-bool"),
        pytest.param(lambda: extract_chroma_wav(TONE_WAV, fmax=np.inf), id="fmax-inf"),
        pytest.param(lambda: extract_chroma_wav(TONE_WAV, ref_a4="440"), id="a4-string"),
        pytest.param(lambda: extract_chroma_wav(TONE_WAV, ref_a4=True), id="a4-bool"),
        pytest.param(lambda: extract_chroma_wav(TONE_WAV, hop_size=True), id="hop-bool"),
        pytest.param(lambda: Tiv(["1"] * 6, 1.0, DEFAULT_WEIGHTS), id="tiv-coeffs-string"),
        pytest.param(lambda: Tiv([True] * 6, 1.0, DEFAULT_WEIGHTS), id="tiv-coeffs-bool"),
        pytest.param(lambda: Tiv([1.0] * 6, "1", DEFAULT_WEIGHTS), id="tiv-energy-string"),
        pytest.param(
            lambda: Tiv.from_dict({**ONE_HOT_DICT, "energy": "2"}), id="dict-energy-string"
        ),
        pytest.param(
            lambda: Tiv.from_dict({**ONE_HOT_DICT, "coeffs": [[True, 0]] * 6}),
            id="dict-coeffs-bool",
        ),
        pytest.param(lambda: as_weights(np.ones(6, dtype=bool)), id="weights-bool-array"),
        pytest.param(lambda: ChromaSequence(np.ones((2, 12), dtype=bool)), id="frames-bool"),
        pytest.param(lambda: ChromaSequence([]), id="frames-1d-empty"),
        pytest.param(lambda: as_chroma([True] + [0.5] * 11), id="chroma-list-mixed-bool"),
        pytest.param(lambda: as_weights([True, 2, 3, 4, 5, 6.0]), id="weights-list-mixed-bool"),
        pytest.param(
            lambda: as_weights((np.True_, 2, 3, 4, 5, 6.0)), id="weights-tuple-numpy-bool"
        ),
        pytest.param(
            lambda: ChromaSequence([[0.5] * 12, [False] + [0.5] * 11]),
            id="frames-list-mixed-bool",
        ),
        pytest.param(
            lambda: tiv_from_chroma([(0.5,) * 12, (np.False_,) + (0.5,) * 11]),
            id="frames-tuples-numpy-bool",
        ),
        pytest.param(
            lambda: Tiv([True] + [1.0] * 5, 1.0, DEFAULT_WEIGHTS), id="tiv-coeffs-mixed-bool"
        ),
    ],
)
def test_non_numbers_are_refused(call):
    """Every library argument that must be a number of some kind refuses
    booleans, strings and the wrong kind of number with ChromaError."""
    with pytest.raises(ChromaError):
        call()


class TestTivConstruction:
    def test_uniform_chroma_gives_zero_coeffs(self):
        t = tiv_from_chroma(np.ones(12))
        assert np.allclose(t.coeffs, 0.0, atol=1e-15)
        assert t.energy == 12.0
        assert not t.is_silent

    def test_one_hot_chroma_gives_weights_exactly(self):
        t = tiv_from_chroma(binary_chroma([0]))
        assert np.array_equal(t.coeffs.real, np.asarray(DEFAULT_WEIGHTS))
        assert np.array_equal(t.coeffs.imag, np.zeros(6))
        assert t.energy == 1.0

    def test_major_triad_matches_oracle(self):
        t = tiv_from_chroma(binary_chroma([0, 4, 7]))
        expected = oracle_coeffs(binary_chroma([0, 4, 7]))
        assert np.allclose(t.coeffs, expected, atol=1e-9)

    def test_silence_yields_zero_vector(self):
        t = tiv_from_chroma(np.zeros(12))
        assert t.is_silent
        assert t.energy == 0.0
        assert np.array_equal(t.coeffs, np.zeros(6, dtype=complex))

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_bits_equal_the_reference_formula(self, rng, scale):
        """Each row divided by ``np.where(silent, 1.0, energy)``, then every silent
        row zeroed: the same bytes, so a -0.0 left in a silent row fails."""
        def reference(frames, w=DEFAULT_WEIGHTS):
            energy = frames.sum(axis=1)
            silent = energy == 0.0
            spectrum = np.fft.fft(frames / np.where(silent, 1.0, energy)[:, None], axis=1)
            coeffs = spectrum[:, 1:7] * w
            coeffs[silent] = 0.0
            return coeffs, energy

        batch = rng.random((64, 12)) * scale
        batch[rng.random(64) < 0.25] = 0.0
        batch[5], batch[9] = -0.0, np.where(np.arange(12) % 2, -0.0, 0.0)
        for frames in (batch, batch[~batch.any(axis=1)], batch[batch.any(axis=1)]):
            t, (coeffs, energy) = tiv_from_chroma(frames), reference(frames)
            assert t.coeffs.tobytes() == coeffs.tobytes()
            assert t.energy.tobytes() == energy.tobytes()
        for row in (*batch[:12], np.zeros(12), -np.zeros(12), binary_chroma([0]) * scale):
            t, (coeffs, energy) = tiv_from_chroma(row), reference(row[None, :])
            assert t.coeffs.tobytes() == coeffs[0].tobytes()
            assert np.float64(t.energy).tobytes() == energy[0].tobytes()

    def test_oracle_equivalence_on_random_chroma(self, rng):
        for _ in range(200):
            c = random_chroma(rng)
            t = tiv_from_chroma(c)
            assert np.allclose(t.coeffs, oracle_coeffs(c), atol=1e-9)

    def test_magnitude_bounded_by_weights(self, rng):
        for _ in range(100):
            t = tiv_from_chroma(random_chroma(rng))
            assert np.all(mag(t) <= np.asarray(DEFAULT_WEIGHTS) + 1e-12)

    def test_scale_invariance_of_coeffs(self, rng):
        c = random_chroma(rng)
        t1 = tiv_from_chroma(c)
        t2 = tiv_from_chroma(3.7 * c)
        assert np.allclose(t1.coeffs, t2.coeffs, atol=1e-12)
        assert np.isclose(t2.energy, 3.7 * t1.energy)

    def test_custom_weights(self):
        w = np.arange(1.0, 7.0)
        t = tiv_from_chroma(binary_chroma([0]), w)
        assert np.allclose(t.coeffs.real, w)

    @pytest.mark.parametrize("batched", [False, True])
    def test_overflowing_sum_is_refused(self, batched):
        huge = np.full(12, 1e308)
        chroma = np.vstack([np.ones(12), huge]) if batched else huge
        with pytest.raises(ChromaError, match="energy"):
            tiv_from_chroma(chroma)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda: Tiv(np.full(6, 1e200 + 1e200j), 1.0, DEFAULT_WEIGHTS), id="array"
            ),
            pytest.param(
                lambda: Tiv.from_dict({"coeffs": [[1e200, 0]] * 6, "energy": 1.0}), id="dict"
            ),
        ],
    )
    def test_coeffs_beyond_the_weights_are_refused(self, build):
        # |T(k)| <= w(k) is what keeps distances and key estimates finite
        with pytest.raises(ChromaError, match="weight"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: Tiv([1] + [0] * 5, 0.0, DEFAULT_WEIGHTS), id="one"),
            pytest.param(
                lambda: Tiv([[0] * 6, [0] * 5 + [1j]], [1.0, 0.0], DEFAULT_WEIGHTS), id="batch"
            ),
            pytest.param(
                lambda: Tiv.from_dict({"coeffs": [[1, 0]] + [[0, 0]] * 5, "energy": 0}),
                id="dict-one",
            ),
        ],
    )
    def test_a_silent_vector_with_a_nonzero_coefficient_is_refused(self, build):
        with pytest.raises(ChromaError, match="energy 0"):
            build()

    def test_a_silent_vector_of_zeros_is_accepted(self):
        # a signed zero is 0, as the rotation in transpose may make of a silent vector
        t = Tiv.from_dict({"coeffs": [[-0.0, 0.0]] * 6, "energy": 0})
        assert t.is_silent and transpose(t, 5).is_silent
        batch = Tiv([[0] * 6, [1] + [0] * 5], [0.0, 1.0], DEFAULT_WEIGHTS)
        assert batch[0].is_silent and not batch[1].is_silent

    @pytest.mark.parametrize("weights", [DEFAULT_WEIGHTS, [1e-300] * 6], ids=["default", "tiny"])
    def test_every_transposed_one_hot_is_within_the_weights(self, weights):
        for pc in range(12):
            t = tiv_from_chroma(binary_chroma([pc]), weights)
            for p in range(12):
                assert transpose(t, p).energy == 1.0  # built: rounding stays within the bound

    def test_coeffs_are_immutable(self):
        t = tiv_from_chroma(binary_chroma([0]))
        with pytest.raises((ValueError, RuntimeError)):
            t.coeffs[0] = 0.0

    @given(chroma_lists)
    @settings(max_examples=60, deadline=None)
    def test_no_nan_from_any_valid_chroma(self, bins):
        t = tiv_from_chroma(bins)
        assert np.all(np.isfinite(t.coeffs.real))
        assert np.all(np.isfinite(t.coeffs.imag))
        assert np.isfinite(t.energy)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Tiv(np.ones(5), 1.0, DEFAULT_WEIGHTS), "shape", id="coeffs-5"),
        pytest.param(
            lambda: Tiv(np.ones((2, 6)), 1.0, DEFAULT_WEIGHTS), "one value per", id="energy-1"
        ),
        pytest.param(
            lambda: Tiv.from_dict({**ONE_HOT_DICT, "coeffs": ONE_HOT_DICT["coeffs"][:5]}),
            "coeffs of shape", id="dict-5-pairs",
        ),
    ],
)
def test_malformed_vectors_are_refused(call, message):
    with pytest.raises(ChromaError, match=message):
        call()


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_dot_sums_each_row_alone_left_to_right(rng, scale):
    """Every norm, distance and inner product is ``core._dot``: a batch row gets the
    bits of the one-vector call and of a plain-Python left-to-right sum, also where
    the products underflow or overflow."""
    n = 5000
    a = (rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))) * scale
    b = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    a[rng.random(n) < 0.1] = 0.0
    b[:100] = 0.0
    with np.errstate(over="ignore"):  # at 1e300 the squares overflow to inf
        for x, y in ((a, a), (a, b), (a.real, a.real)):
            got = core_module._dot(x, y)
            assert np.array_equal(got, [core_module._dot(p, q) for p, q in zip(x, y)])
            assert np.array_equal(got, [fixed_order_dot(p, q) for p, q in zip(x, y)])


class TestTivSerialization:
    def test_round_trip(self, rng):
        t = tiv_from_chroma(random_chroma(rng))
        back = Tiv.from_dict(t.to_dict())
        assert np.array_equal(back.coeffs, t.coeffs)
        assert back.energy == t.energy

    def test_round_trip_keeps_negative_zero(self):
        parts = [(-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0), (0.0, 0.0), (2.5, -1.5), (0.0, -0.0)]
        t = Tiv([complex(re, im) for re, im in parts], 1.0, DEFAULT_WEIGHTS)
        back = Tiv.from_dict(t.to_dict())
        assert np.array_equal(back.coeffs, t.coeffs)
        assert np.array_equal(np.signbit(back.coeffs.real), np.signbit(t.coeffs.real))
        assert np.array_equal(np.signbit(back.coeffs.imag), np.signbit(t.coeffs.imag))
        assert np.signbit(t.coeffs.real).any() and np.signbit(t.coeffs.imag).any()

    @pytest.mark.parametrize("missing", ["coeffs", "energy"])
    def test_missing_field_is_chroma_error(self, missing):
        data = tiv_from_chroma(binary_chroma([0])).to_dict()
        del data[missing]
        with pytest.raises(ChromaError):
            Tiv.from_dict(data)

    def test_dict_shape(self):
        d = tiv_from_chroma(binary_chroma([0])).to_dict()
        assert set(d) == {"coeffs", "energy"}
        assert len(d["coeffs"]) == 6
        assert all(len(pair) == 2 for pair in d["coeffs"])


class TestMagAndPhases:
    def test_uniform_chroma_phases_all_invalid(self):
        p = phases(tiv_from_chroma(np.ones(12)))
        assert not p.valid.any()
        assert np.array_equal(p.values, np.zeros(6))

    def test_whole_tone_phases(self):
        p = phases(tiv_from_chroma(WHOLE_TONE))
        assert not p.valid[:5].any()  # comb spectrum: k=1..5 vanish
        assert p.valid[5]
        assert p.values[5] == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_phase_zero(self):
        p = phases(tiv_from_chroma(binary_chroma([0])))
        assert p.valid.all()
        assert np.allclose(p.values, 0.0, atol=1e-12)

    def test_phase_eps_boundary(self):
        # almost-uniform chroma: tiny coefficients stay flagged invalid
        c = np.ones(12)
        c[0] += 1e-14
        p = phases(tiv_from_chroma(c))
        assert not p.valid.any()
        assert PHASE_EPS == 1e-10

    def test_mag_invariant_under_rotation(self, rng):
        c = random_chroma(rng)
        base = mag(tiv_from_chroma(c))
        for p in range(12):
            assert np.allclose(mag(tiv_from_chroma(np.roll(c, p))), base, atol=1e-9)


class TestCombine:
    def test_pairwise_matches_summed_chroma(self, rng):
        for _ in range(50):
            c1, c2 = random_chroma(rng), random_chroma(rng)
            mixed = combine([tiv_from_chroma(c1), tiv_from_chroma(c2)])
            direct = tiv_from_chroma(c1 + c2)
            assert np.allclose(mixed.coeffs, direct.coeffs, atol=1e-12)
            assert np.isclose(mixed.energy, direct.energy)

    def test_nary_triple(self):
        parts = [tiv_from_chroma(binary_chroma([pc])) for pc in (0, 4, 7)]
        mixed = combine(parts)
        direct = tiv_from_chroma(binary_chroma([0, 4, 7]))
        assert np.allclose(mixed.coeffs, direct.coeffs, atol=1e-12)
        assert mixed.energy == 3.0

    def test_silent_operand_is_neutral(self, rng):
        c = random_chroma(rng)
        t = tiv_from_chroma(c)
        silent = tiv_from_chroma(np.zeros(12))
        mixed = combine([t, silent])
        assert np.allclose(mixed.coeffs, t.coeffs, atol=1e-15)
        assert mixed.energy == t.energy

    def test_needs_two_operands(self):
        t = tiv_from_chroma(binary_chroma([0]))
        with pytest.raises(DegenerateInputError):
            combine([t])

    def test_all_silent_rejected(self):
        silent = tiv_from_chroma(np.zeros(12))
        with pytest.raises(DegenerateInputError):
            combine([silent, silent])

    def test_weight_mismatch_rejected(self):
        t1 = tiv_from_chroma(binary_chroma([0]))
        t2 = tiv_from_chroma(binary_chroma([0]), np.arange(1.0, 7.0))
        with pytest.raises(WeightMismatchError):
            combine([t1, t2])

    def test_energy_sum_beyond_float_range_rejected(self):
        # the suite turns warnings into errors, so a stray overflow warning fails
        t = tiv_from_chroma(binary_chroma([0]) * 1e308)
        with pytest.raises(ChromaError):
            combine([t, t])

    def test_finite_mix_of_huge_energies(self):
        # 1e308 * |T(k)| overflows, but the mix's energy is finite
        c, d = binary_chroma([0]) * 1e308, binary_chroma([4]) * 1e307
        mixed = combine([tiv_from_chroma(c), tiv_from_chroma(d)])
        direct = tiv_from_chroma(c + d)
        assert mixed.energy == direct.energy == 1.1e308
        assert np.allclose(mixed.coeffs, direct.coeffs, rtol=0, atol=1e-12)


class TestTranspose:
    @pytest.mark.parametrize("p", range(12))
    def test_matches_rotated_chroma(self, p):
        c = binary_chroma([0, 4, 7])
        direct = tiv_from_chroma(np.roll(c, p))
        assert np.allclose(
            transpose(tiv_from_chroma(c), p).coeffs, direct.coeffs, atol=1e-12
        )

    def test_triad_by_two_semitones(self):
        got = transpose(tiv_from_chroma(binary_chroma([0, 4, 7])), 2)
        want = tiv_from_chroma(binary_chroma([2, 6, 9]))
        assert np.allclose(got.coeffs, want.coeffs, atol=1e-12)

    def test_energy_and_mag_preserved(self, rng):
        t = tiv_from_chroma(random_chroma(rng))
        tt = transpose(t, 5)
        assert tt.energy == t.energy
        assert np.allclose(mag(tt), mag(t), atol=1e-12)

    @pytest.mark.parametrize("p", range(12))
    def test_vector_at_the_bound_transposes(self, p):
        """A vector the constructor accepts at |T(k)| = w(k) * _SLACK transposes
        by every shift: a coefficient rounded past the bound is set back to w(k)."""
        w = DEFAULT_WEIGHTS
        t = Tiv(w * core_module._SLACK + 0j, 1.0, w)
        got = transpose(t, p)
        assert np.all(np.abs(got.coeffs) <= w * core_module._SLACK)
        assert np.allclose(mag(got), w, rtol=2**-38, atol=0)
        k = np.arange(1, 7)
        assert np.allclose(got.coeffs / mag(got), np.exp(-2j * np.pi * k * p / 12), atol=1e-12)

    def test_negative_and_modular_shifts(self, rng):
        t = tiv_from_chroma(random_chroma(rng))
        assert np.allclose(transpose(t, -3).coeffs, transpose(t, 9).coeffs, atol=1e-12)
        assert transpose(t, 12) is t
        assert transpose(t, 0) is t

    @pytest.mark.parametrize("shift", [1.5, 2.0, np.float64(3.0), True, "3", np.True_, None])
    def test_non_integer_shift_rejected(self, shift):
        with pytest.raises(ChromaError):
            transpose(tiv_from_chroma(binary_chroma([0, 4, 7])), shift)

    def test_numpy_integer_shift(self):
        t = tiv_from_chroma(binary_chroma([0, 4, 7]))
        assert np.array_equal(transpose(t, np.int64(2)).coeffs, transpose(t, 2).coeffs)

    def test_phases_shift_by_expected_amount(self, rng):
        c = random_chroma(rng)
        t = tiv_from_chroma(c)
        p0 = phases(t)
        for shift in range(12):
            p1 = phases(transpose(t, shift))
            k = np.arange(1, 7)
            expected = p0.values - 2 * np.pi * k * shift / 12
            both = p0.valid & p1.valid
            delta = (p1.values - expected)[both]
            assert np.allclose(np.mod(delta + np.pi, 2 * np.pi) - np.pi, 0, atol=1e-9)


FRAMES = ChromaSequence(np.random.default_rng(5).uniform(size=(8, 12)), frame_rate=10.0)
BATCH = tiv_from_chroma(FRAMES.frames)


def _reloaded(save, load, path):
    save(FRAMES, path)
    return load(path)


# library call -> the arrays its result must hold as the library built them
LIBRARY_RESULTS = {
    "load_chroma_csv": lambda tmp: [
        _reloaded(save_chroma_csv, load_chroma_csv, tmp / "c.csv").frames],
    "load_chroma_json": lambda tmp: [
        _reloaded(save_chroma_json, load_chroma_json, tmp / "c.json").frames],
    "window_average": lambda tmp: [window_average(FRAMES, 2).frames],
    "extract_chroma_wav": lambda tmp: [extract_chroma_wav(TONE_WAV).frames],
    "tiv_from_chroma-vector": lambda tmp: [tiv_from_chroma(FRAMES.frames[0]).coeffs],
    "tiv_from_chroma-batch": lambda tmp: [(t := tiv_from_chroma(FRAMES.frames)).coeffs, t.energy],
    "phases": lambda tmp: [(p := phases(BATCH)).values, p.valid],
    "combine": lambda tmp: [combine([BATCH[0], BATCH[1]]).coeffs],
    "transpose": lambda tmp: [transpose(BATCH, 5).coeffs],
    "harmonic_change": lambda tmp: [(h := harmonic_change(BATCH)).values, h.peaks],
    "estimate_key": lambda tmp: [estimate_key(BATCH[0], build_profile_set("shaath")).distances],
    "build_profile_set": lambda tmp: [(k := build_profile_set("shaath")).major_profile,
                                      k.minor_profile],
}

# value class and array field -> (constructor from that one array, a fresh array for it)
HOLDERS = {
    "ChromaSequence.frames": (ChromaSequence, lambda: np.ones((2, 12))),
    "Tiv.coeffs": (lambda a: Tiv(a, 1.0, DEFAULT_WEIGHTS), lambda: np.ones(6, complex)),
    "Tiv.energy": (
        lambda a: Tiv(np.ones((2, 6), complex), a, DEFAULT_WEIGHTS), lambda: np.ones(2)),
    "Tiv.weights": (lambda a: Tiv(np.ones(6, complex), 1.0, a), lambda: np.ones(6)),
    "PhaseVector.values": (lambda a: PhaseVector(a, np.ones(6, bool)), lambda: np.ones(6)),
    "PhaseVector.valid": (lambda a: PhaseVector(np.ones(6), a), lambda: np.ones(6, bool)),
    "HarmonicChangeSeries.values": (
        lambda a: HarmonicChangeSeries(a, 0.5), lambda: np.ones(3)),
    "KeyResult.distances": (KeyResult, lambda: np.ones(24)),
    "KeyProfileSet.major_profile": (
        lambda a: KeyProfileSet("p", a, np.ones(12), 0.5), lambda: np.ones(12)),
    "KeyProfileSet.minor_profile": (
        lambda a: KeyProfileSet("p", np.ones(12), a, 0.5), lambda: np.ones(12)),
}


class TestHandOver:
    """A value holds a read-only array that owns its data as it is and copies
    any other, so later writes to a caller's writeable array never reach it."""

    @pytest.mark.parametrize("field", HOLDERS)
    def test_a_writeable_input_is_copied(self, field):
        build, fresh = HOLDERS[field]
        arr = fresh()
        held = getattr(build(arr), field.split(".")[1])
        want = arr.copy()
        arr[...] = 0
        assert held is not arr and np.array_equal(held, want)
        assert not held.flags.writeable

    @pytest.mark.parametrize("field", HOLDERS)
    def test_a_list_is_held_as_a_read_only_array(self, field):
        build, fresh = HOLDERS[field]
        want = fresh()
        held = getattr(build(want.tolist()), field.split(".")[1])
        assert isinstance(held, np.ndarray) and np.array_equal(held, want)
        assert not held.flags.writeable

    @pytest.mark.parametrize("field", HOLDERS)
    def test_a_read_only_array_that_owns_its_data_is_held_as_it_is(self, field):
        build, fresh = HOLDERS[field]
        arr = fresh()
        arr.flags.writeable = False
        assert getattr(build(arr), field.split(".")[1]) is arr

    def test_a_read_only_view_is_copied(self):
        base = np.ones((3, 12))
        view = base[:2]
        view.flags.writeable = False
        seq = ChromaSequence(view)
        base[0, 0] = 5.0
        assert seq.frames is not view and seq.frames[0, 0] == 1.0

    def test_a_writeable_view_made_before_it_was_read_only_still_writes_through(self):
        # the limit of holding such an array as it is: numpy cannot tell whether a
        # writeable view of it exists, so a caller who keeps one must pass a copy
        arr = np.ones((2, 12))
        view = arr[:]
        arr.flags.writeable = False
        seq = ChromaSequence(arr)
        view[0, 0] = np.nan
        assert seq.frames is arr and np.isnan(seq.frames[0, 0])

    @pytest.mark.parametrize("result", LIBRARY_RESULTS)
    def test_library_results_are_held_as_built(self, result, tmp_path, monkeypatch):
        held = []

        def spy(arr, frozen=core_module._frozen):
            out = frozen(arr)
            if out is arr:
                held.append(out)
            return out

        for module in (chroma_module, core_module, descriptors_module, key_module):
            monkeypatch.setattr(module, "_frozen", spy)
        for arr in LIBRARY_RESULTS[result](tmp_path):
            assert any(arr is h for h in held) and not arr.flags.writeable


def test_all_is_the_public_api():
    import types

    import tonalspace

    assert len(set(tonalspace.__all__)) == len(tonalspace.__all__)
    for name in tonalspace.__all__:
        assert not isinstance(getattr(tonalspace, name), types.ModuleType), name
    namespace = {}
    exec("from tonalspace import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tonalspace.__all__)
