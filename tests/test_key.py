"""Tests for key-profile sets and 24-key estimation."""

import hashlib
import inspect
import json
import os
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from tonalspace import (
    DEFAULT_WEIGHTS,
    ChromaError,
    DegenerateInputError,
    KeyProfileSet,
    KeyResult,
    Tiv,
    UnknownProfileError,
    as_chroma,
    build_profile_set,
    estimate_key,
    mag,
    tiv_from_chroma,
    transpose,
)

import tonalspace.key as key_module
from tonalspace.core import _dot
from tonalspace.key import PITCH_CLASS_NAMES, PROFILE_DIR_ENV

from helpers import MAJOR_TRIAD, random_chroma

# Bundled profile data files are versioned artifacts with cited provenance;
# any edit must be deliberate and show up here.
PROFILE_CHECKSUMS = {
    "temperley.json": "3257a497898eb48d6c2e85ea9fadbaf74aabc01804bcc13c1da65ffe2cf97c10",
    "shaath.json": "4e22db85321becf16ea437576f1a88f6cc3b413eca4c9a9c20e32b67fcf7a9d5",
}


def test_profile_files_unchanged():
    for fname, expected in PROFILE_CHECKSUMS.items():
        blob = resources.files("tonalspace").joinpath("profiles", fname).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == expected, fname


class TestProfileSets:
    def test_temperley_defaults(self):
        ps = build_profile_set("temperley")
        assert ps.alpha == 0.2
        assert len(ps.references()) == 24
        assert ps.major_profile.shape == (12,)

    def test_shaath_defaults(self):
        assert build_profile_set("shaath").alpha == 0.55

    def test_alpha_override(self):
        assert build_profile_set("temperley", alpha_override=0.9).alpha == 0.9

    def test_profile_tivs_are_rotations(self):
        ps = build_profile_set("temperley")
        for r in range(12):
            want_major = tiv_from_chroma(np.roll(ps.major_profile, r))
            want_minor = tiv_from_chroma(np.roll(ps.minor_profile, r))
            assert np.allclose(ps.references()[r].coeffs, want_major.coeffs, atol=1e-12)
            assert np.allclose(
                ps.references()[12 + r].coeffs, want_minor.coeffs, atol=1e-12
            )

    @pytest.mark.parametrize(
        "name, weights",
        [("temperley", None), ("shaath", None), ("temperley", [1, 2, 3, 4, 5, 6])],
        ids=["temperley", "shaath", "custom-weights"],
    )
    def test_references_equal_the_roll_construction(self, name, weights):
        """The memoised references are bit-identical to building the 24
        rotations with np.roll, and a second call reuses them."""
        kwargs = {} if weights is None else {"weights": weights}
        ps = build_profile_set(name)
        rotations = [
            np.roll(profile, r)
            for profile in (ps.major_profile, ps.minor_profile)
            for r in range(12)
        ]
        want = tiv_from_chroma(np.array(rotations), **kwargs)
        got = ps.references(**kwargs)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(got.energy, want.energy)
        assert np.array_equal(got.weights, want.weights)
        assert build_profile_set(name).references(**kwargs) is got

    def test_index_zero_is_unrotated_major(self):
        ps = build_profile_set("temperley")
        want = tiv_from_chroma(ps.major_profile)
        assert np.array_equal(ps.references()[0].coeffs, want.coeffs)

    def test_rotations_share_magnitudes(self):
        ps = build_profile_set("shaath")
        base = mag(ps.references()[0])
        for r in range(12):
            assert np.allclose(mag(ps.references()[r]), base, atol=1e-12)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ChromaError):
            build_profile_set("nonexistent")

    @pytest.mark.parametrize("name", ["nosuch", "custom"])
    def test_unknown_profile_error(self, tmp_path, monkeypatch, name):
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        message = (
            f"unknown profile '{name}'; use one of temperley, shaath or provide "
            f"{name}.json in $TONALSPACE_PROFILE_DIR"
        )
        with pytest.raises(UnknownProfileError) as info:
            build_profile_set(name, alpha_override=0.5)
        assert str(info.value) == message
        monkeypatch.delenv(PROFILE_DIR_ENV)
        with pytest.raises(UnknownProfileError):
            build_profile_set(name)

    @pytest.mark.parametrize("cell", ["1", True], ids=["string", "boolean"])
    def test_profile_cells_must_be_json_numbers(self, tmp_path, monkeypatch, cell):
        data = {"name": "h", "major": [cell] * 12, "minor": [1.0] * 12, "alpha": 0.5}
        (tmp_path / "h.json").write_text(json.dumps(data))
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(ChromaError):
            build_profile_set("h")

    def test_custom_profile(self):
        ps = KeyProfileSet("custom", np.arange(1.0, 13.0), np.arange(12.0, 0.0, -1.0), 0.4)
        assert ps.alpha == 0.4
        assert len(ps.references()) == 24

    @pytest.mark.parametrize("name", ["temperley", "house"])
    def test_given_arrays_build_the_set_whatever_its_name(self, name):
        """The arrays build the set; its name, bundled or not, only labels it."""
        major, minor = np.arange(1.0, 13.0), np.arange(12.0, 0.0, -1.0)
        ps = KeyProfileSet(name, major, minor, 0.4)
        assert ps.name == name and ps.alpha == 0.4
        assert np.array_equal(ps.major_profile, major)
        assert np.array_equal(ps.minor_profile, minor)
        rotations = [np.roll(p, r) for p in (major, minor) for r in range(12)]
        assert np.array_equal(ps.references().coeffs, tiv_from_chroma(np.array(rotations)).coeffs)
        with pytest.raises(ChromaError, match="alpha"):
            KeyProfileSet(name, major, minor, None)

    def test_custom_profile_requires_all_parts(self):
        with pytest.raises(ChromaError):
            KeyProfileSet("custom", np.ones(12), None, 0.5)

    def test_profile_dir_env_override(self, tmp_path, monkeypatch):
        data = {
            "name": "house",
            "major": list(np.roll(np.arange(1.0, 13.0), 0)),
            "minor": list(np.arange(12.0, 0.0, -1.0)),
            "alpha": 0.5,
        }
        (tmp_path / "house.json").write_text(json.dumps(data))
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        ps = build_profile_set("house")
        assert ps.alpha == 0.5
        # bundled names still resolve when absent from the override dir
        assert build_profile_set("temperley").alpha == 0.2

    def test_profile_file_builds_checked_floats(self, tmp_path, monkeypatch):
        path = tmp_path / "ints.json"
        data = {"name": "ints", "major": list(range(12)), "minor": [1] * 12, "alpha": 2}
        # a leading BOM is ignored
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(data).encode())
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        ps = build_profile_set("ints")
        for profile, want in ((ps.major_profile, data["major"]),
                              (ps.minor_profile, data["minor"])):
            assert isinstance(profile, np.ndarray) and profile.dtype == np.float64
            assert profile.shape == (12,) and profile.tolist() == want
        assert type(ps.alpha) is float and ps.alpha == 2.0

    @pytest.mark.parametrize(
        ("data", "message"),
        [
            (b'{\r\n  "name": "x",\r\n  "major": [1, 2,\r\n]}\r\n',
             "Expecting value: line 4 column 1 (char 35)"),
            (b'\xef\xbb\xbf{"name": "x", "major": [1,]}',
             "Expecting value: line 1 column 27 (char 26)"),
            (b'\xef\xbb\xbf{"a":\r\n \xff}',
             "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
        ],
        ids=["crlf", "bom", "bom-bad-byte"],
    )
    def test_profile_read_errors_are_positioned_in_the_decoded_text(
            self, tmp_path, monkeypatch, data, message):
        # positions count the text as read: the BOM dropped, CRLF read as LF
        path = tmp_path / "p.json"
        path.write_bytes(data)
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(ChromaError) as info:
            build_profile_set("p")
        assert str(info.value) == f"cannot read profile file {path}: {message}"

    def test_malformed_profile_file(self, tmp_path, monkeypatch):
        (tmp_path / "broken.json").write_text('{"name": "broken", "major": [1, 2]}')
        (tmp_path / "latin1.json").write_bytes(b'{"name": "caf\xe9"}')
        (tmp_path / "scalar.json").write_text("5")
        (tmp_path / "deep.json").write_text("[" * 100_000)
        good = {"name": "x", "major": [1.0] + [0.0] * 11, "minor": [0.0] * 11 + [1.0]}
        (tmp_path / "dict.json").write_text(json.dumps({**good, "major": {"a": 1}, "alpha": 1}))
        for name, alpha in (("huge", "1" + "0" * 400), ("bool", "true"), ("inf", "Infinity")):
            text = json.dumps(good)[:-1] + f', "alpha": {alpha}}}'
            (tmp_path / f"{name}.json").write_text(text)
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        for name in ("broken", "latin1", "scalar", "deep", "dict", "huge", "bool", "inf"):
            with pytest.raises(ChromaError):
                build_profile_set(name)


@pytest.fixture(scope="module")
def temperley():
    return build_profile_set("temperley")


@pytest.fixture(scope="module")
def shaath():
    return build_profile_set("shaath")


class TestEstimateKey:
    def test_major_self_match_is_exact(self, temperley):
        result = estimate_key(tiv_from_chroma(temperley.major_profile), temperley)
        assert result.index == 0
        assert result.label == "C major"
        assert result.distances[0] == pytest.approx(0.0, abs=1e-12)

    def test_rotated_major_profile(self, temperley):
        got = estimate_key(
            tiv_from_chroma(np.roll(temperley.major_profile, 7)), temperley
        )
        assert got.index == 7
        assert got.label == "G major"

    def test_rotated_minor_profile(self, temperley):
        got = estimate_key(
            tiv_from_chroma(np.roll(temperley.minor_profile, 9)), temperley
        )
        assert got.index == 21
        assert got.label == "A minor"

    @pytest.mark.parametrize("name", ["temperley", "shaath"])
    def test_all_24_self_matches(self, name, temperley, shaath):
        ps = {"temperley": temperley, "shaath": shaath}[name]
        for r in range(24):
            profile = ps.major_profile if r < 12 else ps.minor_profile
            t = tiv_from_chroma(np.roll(profile, r % 12))
            assert estimate_key(t, ps).index == r

    def test_transposition_covariance(self, temperley, rng):
        for _ in range(20):
            # tonal-ish input: a random blend of the two profiles
            c = 0.6 * temperley.major_profile + rng.uniform(0, 0.3, 12)
            base = estimate_key(tiv_from_chroma(c), temperley)
            for p in range(12):
                shifted = estimate_key(
                    transpose(tiv_from_chroma(c), p), temperley
                )
                assert shifted.tonic == (base.tonic + p) % 12
                assert shifted.mode == base.mode

    def test_scaling_invariance(self, temperley, rng):
        c = random_chroma(rng)
        a = estimate_key(tiv_from_chroma(c), temperley)
        b = estimate_key(tiv_from_chroma(100.0 * c), temperley)
        assert a.index == b.index

    def test_result_structure(self, temperley, rng):
        result = estimate_key(tiv_from_chroma(random_chroma(rng)), temperley)
        assert result.distances.shape == (24,)
        assert np.all(result.distances >= 0)
        assert result.index == int(np.argmin(result.distances))
        assert result.tonic == result.index % 12
        assert result.mode == ("major" if result.index <= 11 else "minor")
        assert result.label.split(" ")[0] == PITCH_CLASS_NAMES[result.tonic]
        assert result.to_dict() == {
            "index": result.index,
            "tonic": result.tonic,
            "mode": result.mode,
            "label": result.label,
        }

    def test_silent_input_rejected(self, temperley):
        with pytest.raises(DegenerateInputError):
            estimate_key(tiv_from_chroma(np.zeros(12)), temperley)

    def test_uniform_chroma_rejected(self, temperley):
        # zero-norm vector: equidistant from all 12 major (or minor) references
        with pytest.raises(DegenerateInputError, match="zero-norm"):
            estimate_key(tiv_from_chroma(np.full(12, 0.3)), temperley)

    @pytest.mark.parametrize(("size", "refused"), [(1e-170, True), (1e-160, False)])
    def test_a_norm_whose_squares_underflow_is_zero(self, temperley, size, refused):
        # each square of 1e-170 underflows to 0.0; of 1e-160 it is a subnormal
        t = Tiv(coeffs=np.full(6, size * (1 + 1j)), energy=1.0, weights=DEFAULT_WEIGHTS)
        if refused:
            with pytest.raises(DegenerateInputError, match="zero-norm"):
                estimate_key(t, temperley)
        else:
            assert estimate_key(t, temperley).distances.shape == (24,)

    def test_an_alpha_whose_query_overflows_leaves_a_major_key(self):
        # alpha * T overflows: every minor distance is infinite (the alpha -> inf limit)
        result = estimate_key(tiv_from_chroma(MAJOR_TRIAD), build_profile_set("temperley", 1e308))
        assert result.index < 12
        assert np.isfinite(result.distances[:12]).all()
        assert np.isinf(result.distances[12:]).all()

    @pytest.mark.parametrize("name", ["temperley", "shaath"])
    def test_the_references_follow_the_query_weights(self, name, rng):
        """The distances are measured to the references under the query's own
        weights, with the minor rows of the query scaled by alpha."""
        ps = build_profile_set(name)
        x = random_chroma(rng)
        rotations = [np.roll(p, r) for p in (ps.major_profile, ps.minor_profile) for r in range(12)]
        for w in (np.arange(1.0, 7.0), [0.5, 3.0, 0.25, 2.0, 7.5, 1.0], DEFAULT_WEIGHTS):
            q = tiv_from_chroma(x, w)
            refs = tiv_from_chroma(np.array(rotations), w).coeffs
            scaled = q.coeffs * np.concatenate([np.ones(12), np.full(12, ps.alpha)])[:, None]
            want = np.sqrt(_dot(scaled - refs, scaled - refs))
            assert estimate_key(q, ps).distances.tobytes() == want.tobytes()
            assert ps.references(w) is ps.references(list(w))

    def test_custom_weights_profile_set(self):
        w = np.arange(2.0, 8.0)
        ps = build_profile_set("temperley")
        t = tiv_from_chroma(ps.major_profile, w)
        assert estimate_key(t, ps).index == 0

    def test_argmin_against_linear_scan(self, temperley, rng):
        for _ in range(25):
            result = estimate_key(tiv_from_chroma(random_chroma(rng)), temperley)
            best = 0
            for r in range(24):
                if result.distances[r] < result.distances[best]:
                    best = r
            assert result.index == best


G_MAJOR = np.roll(build_profile_set("temperley").major_profile, 7)


class TestKeyProfileSet:
    """``KeyProfileSet(name, major, minor, alpha)`` checks its arrays and alpha and
    derives its 24 references under any weights, whether built by hand or by
    ``build_profile_set``."""

    @pytest.mark.parametrize("name", ["temperley", "shaath"])
    def test_a_hand_built_set_shares_the_loaded_references(self, name):
        loaded = build_profile_set(name)
        ps = KeyProfileSet(name, loaded.major_profile, loaded.minor_profile, loaded.alpha)
        assert ps.references() is loaded.references()
        assert np.array_equal(ps.references().weights, DEFAULT_WEIGHTS)

    def test_the_weights_held_are_the_references_weights(self):
        w = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        for ps in (KeyProfileSet("p", G_MAJOR, np.ones(12), 0.5), build_profile_set("temperley")):
            refs = ps.references(w)
            assert np.array_equal(refs.weights, w) and not refs.weights.flags.writeable

    def test_the_references_are_derived_not_given(self):
        assert [f.name for f in fields(KeyProfileSet)] == [
            "name", "major_profile", "minor_profile", "alpha"]
        refs = build_profile_set("temperley").references()
        with pytest.raises(TypeError):
            KeyProfileSet("p", G_MAJOR, np.ones(12), 0.5, refs)
        assert list(inspect.signature(build_profile_set).parameters) == [
            "name", "alpha_override"]

    @pytest.mark.parametrize(
        "args, message",
        [
            ((G_MAJOR, np.ones(12), float("nan")), "alpha"),
            ((G_MAJOR, np.ones(12), -1.0), "alpha"),
            ((G_MAJOR, np.ones(12), 0), "alpha"),
            ((G_MAJOR, np.ones(12), "0.5"), "alpha"),
            ((np.ones(11), np.ones(12), 0.5), "12 bins"),
            ((G_MAJOR, -np.ones(12), 0.5), "nonnegative"),
            ((G_MAJOR, "C major", 0.5), "numbers"),
            # the profiles are checked before alpha
            ((np.ones(11), np.ones(12), -1.0), "12 bins"),
        ],
        ids=["alpha-nan", "alpha-negative", "alpha-zero", "alpha-string", "profile-11",
             "profile-negative", "profile-string", "profile-first"],
    )
    def test_a_hand_built_set_is_checked(self, args, message):
        with pytest.raises(ChromaError, match=message):
            KeyProfileSet("p", *args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((np.ones(11), np.ones(12), 0.5),
             "major: chroma must have exactly 12 bins, got shape (11,)"),
            ((G_MAJOR, -np.ones(12), 0.5), "minor: chroma bins must be nonnegative"),
            ((G_MAJOR, ["1"] * 12, -1.0), "minor: chroma bins must be numbers, got <U1 values"),
        ],
        ids=["major-11", "minor-negative", "minor-strings"],
    )
    def test_a_refused_profile_is_named(self, args, message):
        with pytest.raises(ChromaError) as info:
            KeyProfileSet("p", *args)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "name, file, args, calls, message",
        [
            ("temperley", None, {}, 2, None),
            ("house", {}, {}, 2, None),
            ("temperley", None, {"alpha_override": 0.9}, 4, None),
            ("house", {"major": [1] * 11}, {}, 1,
             "{file}: major: chroma must have exactly 12 bins, got shape (11,)"),
            ("house", {"minor": [-1] * 12}, {}, 2,
             "{file}: minor: chroma bins must be nonnegative"),
            ("house", {"alpha": float("inf")}, {}, 2,
             "{file}: alpha must be a positive finite number, got inf"),
            ("house", {"alpha": True}, {}, 2, "{file}: alpha must be a number, got True"),
            ("house", {"alpha": -1}, {}, 2,
             "{file}: alpha must be a positive finite number, got -1.0"),
            # an argument is refused in its own words, without the file's prefix
            ("temperley", None, {"alpha_override": -1.0}, 4,
             "alpha must be a positive finite number, got -1.0"),
            # profiles, then the file's alpha, then the override
            ("house", {"major": [1] * 11, "alpha": -1}, {"alpha_override": -1.0},
             1, "{file}: major: chroma must have exactly 12 bins, got shape (11,)"),
            ("house", {"alpha": -1}, {"alpha_override": -1.0}, 2,
             "{file}: alpha must be a positive finite number, got -1.0"),
            ("house", {}, {"alpha_override": -2.0}, 4,
             "alpha must be a positive finite number, got -2.0"),
        ],
        ids=["bundled", "file", "override", "file-major", "file-minor", "file-alpha-inf",
             "file-alpha-true", "file-alpha-negative", "bad-override",
             "profiles-first", "file-alpha-second", "override-third"],
    )
    def test_a_profile_file_is_checked_once(self, tmp_path, monkeypatch, name, file, args,
                                            calls, message):
        """Each profile array goes through ``as_chroma`` once per set built; a
        refusal of a file field reads ``profile file <path>: <reason>``."""
        if file is not None:
            good = {"name": name, "major": list(G_MAJOR), "minor": [1.0] * 12, "alpha": 0.5}
            (tmp_path / f"{name}.json").write_text(json.dumps({**good, **file}))
            monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        seen = []
        monkeypatch.setattr(key_module, "as_chroma", lambda p: seen.append(p) or as_chroma(p))
        if message is None:
            build_profile_set(name, **args)
        else:
            with pytest.raises(ChromaError) as info:
                build_profile_set(name, **args)
            prefix = f"profile file {os.path.join(str(tmp_path), name + '.json')}"
            assert str(info.value) == message.format(file=prefix)
        assert len(seen) == calls

    def test_a_profile_whose_bin_sum_overflows_is_refused(self, tmp_path, monkeypatch):
        huge = np.full(12, 1e308)
        with pytest.raises(ChromaError, match="^energy must be finite"):
            KeyProfileSet("p", huge, np.ones(12), 0.5)
        data = {"name": "house", "major": [1.0] * 12, "minor": huge.tolist(), "alpha": 0.5}
        (tmp_path / "house.json").write_text(json.dumps(data))
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(ChromaError, match="^profile file .*house.json: energy must be finite"):
            build_profile_set("house")

    def test_a_hand_built_set_labels_its_own_profile(self):
        loaded = build_profile_set("temperley")
        ps = KeyProfileSet("p", loaded.major_profile, loaded.minor_profile, 0.2)
        assert estimate_key(tiv_from_chroma(G_MAJOR), ps).label == "G major"


class TestKeyResult:
    """``KeyResult(distances)`` derives the key from its 24 distances."""

    @pytest.mark.parametrize("r", range(24))
    def test_the_nearest_reference_names_the_key(self, r):
        distances = np.full(24, 2.0)
        distances[r] = 1.0
        result = KeyResult(distances)
        assert (result.index, result.tonic) == (r, r % 12)
        assert result.mode == ("major" if r < 12 else "minor")
        assert result.label == f"{PITCH_CLASS_NAMES[r % 12]} {result.mode}"
        assert result.to_dict() == {
            "index": r, "tonic": r % 12, "mode": result.mode, "label": result.label,
        }

    def test_a_tie_goes_to_the_lowest_index(self):
        distances = np.full(24, 2.0)
        distances[[5, 14, 20]] = 1.0
        assert KeyResult(distances).index == 5
        assert KeyResult(np.zeros(24)).label == "C major"

    @pytest.mark.parametrize(
        "distances",
        [np.ones(23), np.ones((2, 24)), np.ones(25), 1.0, ["1"] * 24,
         np.array(["1"] * 24), [True] + [1.0] * 23, np.ones(24, bool)],
        ids=["23", "2x24", "25", "scalar", "strings", "string-array", "bool-list", "bool-array"],
    )
    def test_distances_must_be_24_numbers(self, distances):
        with pytest.raises(ChromaError, match="key distances"):
            KeyResult(distances)

    @pytest.mark.parametrize(
        "where, value", [(0, np.nan), (7, np.nan), (23, np.nan), (slice(None), np.nan), (5, -1.0)],
        ids=["nan-0", "nan-7", "nan-23", "all-nan", "negative"],
    )
    def test_nan_and_negative_distances_are_refused(self, where, value):
        distances = np.ones(24)
        distances[where] = value
        with pytest.raises(ChromaError, match="nonnegative"):
            KeyResult(distances)

    def test_infinite_minor_distances_leave_a_major_key(self):
        # an overflowing alpha makes every minor distance infinite
        distances = np.concatenate([np.full(12, 2.0), np.full(12, np.inf)])
        distances[4] = 1.0
        assert KeyResult(distances).label == "E major"

    def test_only_the_distances_are_given(self):
        with pytest.raises(TypeError):
            KeyResult(0, 5, "minor", np.ones(24))
