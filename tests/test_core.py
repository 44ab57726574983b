"""Tests for the chroma-to-interval-vector transform and its algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonalspace import (
    DEFAULT_WEIGHTS,
    PHASE_EPS,
    ChromaError,
    DegenerateInputError,
    Tiv,
    WeightMismatchError,
    as_chroma,
    as_weights,
    combine,
    mag,
    phases,
    tiv_from_chroma,
    transpose,
)

from helpers import WHOLE_TONE, binary_chroma, oracle_coeffs, random_chroma

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
        ],
    )
    def test_as_weights_rejects_invalid(self, bad):
        with pytest.raises(ChromaError):
            as_weights(bad)


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


class TestTivSerialization:
    def test_round_trip(self, rng):
        t = tiv_from_chroma(random_chroma(rng))
        back = Tiv.from_dict(t.to_dict())
        assert np.array_equal(back.coeffs, t.coeffs)
        assert back.energy == t.energy

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

    def test_negative_and_modular_shifts(self, rng):
        t = tiv_from_chroma(random_chroma(rng))
        assert np.allclose(transpose(t, -3).coeffs, transpose(t, 9).coeffs, atol=1e-12)
        assert transpose(t, 12) is t
        assert transpose(t, 0) is t

    @pytest.mark.parametrize("shift", [1.5, 2.0, np.float64(3.0), True, "3"])
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
