import pickle
import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psverify import modeling
from psverify.decision import VerificationOutcome, score_against_models
from psverify.features import VOWELS, CepstralVector, TemporalFeatures, UtteranceFeatures
from psverify.modeling import ModelSet, SpeakerModel, build_model, load_models, save_models


def make_features(vector, vowel="a"):
    vector = np.asarray(vector, dtype=np.float64)
    return UtteranceFeatures(
        TemporalFeatures(*np.abs(vector[:4])), CepstralVector(vector[4:]), vowel
    )


def random_features(rng, vowel="a"):
    return make_features(np.concatenate((rng.uniform(0, 5, 4), rng.normal(0, 1, 12))), vowel)


def random_model_set(rng, n_speakers=3):
    model_set = ModelSet()
    for s in range(n_speakers):
        for vowel in "aeiou":
            model_set.add(
                SpeakerModel(f"s{s:02d}", vowel, rng.normal(0, 3, 16), int(rng.integers(1, 30)))
            )
    return model_set


class TestBuildModel:
    def test_single_utterance_identity(self):
        f = make_features(np.arange(16.0))
        model = build_model("spk", "a", [f])
        np.testing.assert_array_equal(model.mean_features, f.vector)
        assert model.n_utterances == 1

    def test_pairwise_mean(self):
        rng = np.random.default_rng(5)
        v, w = random_features(rng), random_features(rng)
        model = build_model("spk", "a", [v, w])
        np.testing.assert_allclose(model.mean_features, (v.vector + w.vector) / 2, rtol=1e-12)

    def test_twenty_copies(self):
        f = make_features(np.linspace(0, 3, 16))
        model = build_model("spk", "a", [f] * 20)
        np.testing.assert_allclose(model.mean_features, f.vector, rtol=1e-12)
        assert model.n_utterances == 20

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero utterances"):
            build_model("spk", "a", [])

    def test_mixed_vowels_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="mixed vowels"):
            build_model("spk", "a", [random_features(rng, "a"), random_features(rng, "e")])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        features = [random_features(rng) for _ in range(8)]
        forward = build_model("spk", "a", features)
        backward = build_model("spk", "a", features[::-1])
        np.testing.assert_allclose(forward.mean_features, backward.mean_features, rtol=1e-12)

    def test_temporal_scaling_commutes(self):
        rng = np.random.default_rng(8)
        features = [random_features(rng) for _ in range(5)]
        scaled = [
            make_features(np.concatenate((3.0 * f.vector[:4], f.vector[4:]))) for f in features
        ]
        base = build_model("spk", "a", features)
        model = build_model("spk", "a", scaled)
        np.testing.assert_allclose(model.mean_features[:4], 3.0 * base.mean_features[:4], rtol=1e-12)


def v2_bytes(id_lines, rows=(), counts=b""):
    """A model file built by hand: the v2 header, the five id lines, the
    rows as little-endian float64, then `counts` as given."""
    text = "\n".join(["PSV-MODELS v2", *id_lines]) + "\n"
    return text.encode() + np.array(rows, "<f8").tobytes() + counts


def v2_columns(columns):
    """The data of a hand-made model file: per vowel, in VOWELS order, its
    rows as little-endian float64, then its counts as little-endian int64."""
    return b"".join(
        np.array(rows, "<f8").reshape(-1, 16).tobytes() + np.array(counts, "<i8").tobytes()
        for rows, counts in columns
    )


ONE_MODEL_LINES = ["a spk", "e", "i", "o", "u"]
COUNT_3 = (3).to_bytes(8, "little")


def assert_refused(path, match):
    """load_models refuses the file with a message that starts with its path."""
    with pytest.raises(ValueError, match=match) as refused:
        load_models(path)
    assert str(refused.value).startswith(f"{path}: ")


class TestPersistence:
    def test_empty_set_header_only(self, tmp_path):
        p = tmp_path / "models.bin"
        save_models(ModelSet(), p)
        assert p.read_bytes() == b"PSV-MODELS v2\na\ne\ni\no\nu\n"
        assert load_models(p).models == {}
        p.write_bytes(b"")
        assert_refused(p, "run enroll again")

    def test_round_trip_within_1e9(self, tmp_path):
        # the round trip is exact, so it is also within 1e-9
        rng = np.random.default_rng(9)
        model_set = random_model_set(rng)
        p = tmp_path / "models.bin"
        save_models(model_set, p)
        loaded = load_models(p)
        assert set(loaded.models) == set(model_set.models)
        for key, model in model_set.models.items():
            assert loaded.models[key].mean_features.tobytes() == model.mean_features.tobytes()
            assert loaded.models[key].n_utterances == model.n_utterances

    def test_wrong_value_count_reports_line(self, tmp_path):
        # 15 values where the id line promises a model of 16: the body is short
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes(ONE_MODEL_LINES, [1.0] * 15, COUNT_3))
        assert_refused(p, "model data holds 128 bytes, the id lines fix 136")

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes(ONE_MODEL_LINES, [1.0] * 16, COUNT_3) + b"\n")
        assert_refused(p, "model data holds 137 bytes, the id lines fix 136")

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes(["a spk spk", "e", "i", "o", "u"], [[1.0] * 16] * 2, COUNT_3 * 2))
        assert_refused(p, "duplicate speaker id 'spk' for vowel 'a'")

    @pytest.mark.parametrize("sid", ["", "s\tt", "s\rt"])
    def test_bad_speaker_id_rejected(self, tmp_path, sid):
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes([f"a s1 {sid}", "e", "i", "o", "u"], [[1.0] * 16] * 2, COUNT_3 * 2))
        assert_refused(p, "line 2: speaker id must be non-empty")

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "models.bin"
        for header in (b"PSV-MODELS v3\n", b"PSV-MODELS v2 \n", b"\x93NUMPY\x01\x00"):
            p.write_bytes(header + v2_bytes(ONE_MODEL_LINES, [1.0] * 16, COUNT_3).partition(b"\n")[2])
            assert_refused(p, "not a 'PSV-MODELS v2' model file; run enroll again")

    def test_malformed_number_reports_line(self, tmp_path):
        # a v1 text file is refused as a whole, whatever its numbers
        p = tmp_path / "models.txt"
        for values in (["1.0"] * 16, ["1.0"] * 15 + ["oops"]):
            p.write_text("PSV-MODELS v1\nspk a 3 " + " ".join(values) + "\n")
            assert_refused(p, "not a 'PSV-MODELS v2' model file; run enroll again")

    def test_unknown_vowel_reports_line(self, tmp_path):
        # the id lines go in VOWELS order, so a vowel out of place names its line
        p = tmp_path / "models.bin"
        for lines, lineno in ((["a", "e", "y", "o", "u"], 4), (["a", "e", "o spk", "i", "u"], 4),
                              (["a spk", "e", "i", "o"], None)):
            p.write_bytes(v2_bytes(lines, [1.0] * 16, COUNT_3))
            assert_refused(p, f"line {lineno}: expected the speaker ids of vowel" if lineno
                           else "file ends inside the speaker id lines")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_reports_line(self, tmp_path, bad):
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes(["a", "e spk", "i", "o", "u"], [1.0] * 15 + [float(bad)], COUNT_3))
        assert_refused(p, "vowel 'e': model values must be finite")

    @pytest.mark.parametrize("count", ["0", "-2", str(2**63)])
    def test_bad_count_reports_line(self, tmp_path, count):
        # 2**63 does not fit an int64: its bits read back as -2**63
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes(["a", "e spk", "i", "o", "u"], [1.0] * 16, (int(count) % 2**64).to_bytes(8, "little")))
        assert_refused(p, "vowel 'e': utterance counts must be at least 1")

    def test_load_builds_no_speaker_models(self, tmp_path, monkeypatch):
        p = tmp_path / "models.bin"
        save_models(random_model_set(np.random.default_rng(12)), p)

        def refuse(self):
            raise AssertionError("load_models built a SpeakerModel")

        monkeypatch.setattr(SpeakerModel, "__post_init__", refuse)
        assert len(load_models(p).models) == 15

    def test_loaded_models_score_like_the_saved_set(self, tmp_path):
        model_set = random_model_set(np.random.default_rng(14), 6)
        p = tmp_path / "models.bin"
        save_models(model_set, p)
        loaded = load_models(p)
        rng = np.random.default_rng(15)
        for vowel in VOWELS:
            feats = random_features(rng, vowel)
            want, got = score_against_models(feats, model_set), score_against_models(feats, loaded)
            assert got.ids == want.ids
            assert got.cepstral_distances.tobytes() == want.cepstral_distances.tobytes()
            assert got.temporal_distances.tobytes() == want.temporal_distances.tobytes()


class TestIdLines:
    def test_unsorted_line_loads_sorted_with_its_rows(self, tmp_path):
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes(["a s2 s1", "e", "i", "o", "u"]) + v2_columns([([[2.0] * 16, [1.0] * 16], [7, 5])]))
        loaded = load_models(p)
        ids, matrix = loaded.table("a")
        assert ids == ("s1", "s2")
        np.testing.assert_array_equal(matrix, [[1.0] * 16, [2.0] * 16])
        assert [m.n_utterances for m in loaded.for_vowel("a")] == [5, 7]

    def test_repeated_id_in_unsorted_line_rejected(self, tmp_path):
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes(["a s2 s1 s2", "e", "i", "o", "u"], [[1.0] * 16] * 3, COUNT_3 * 3))
        assert_refused(p, "duplicate speaker id 's2' for vowel 'a'")

    @pytest.mark.parametrize("lines, lineno, first_bad", [
        (["a s1 x\ty  z", "e", "i", "o", "u"], 2, "x\ty"),
        (["a s1", "e s1 ", "i s1 ", "o", "u"], 3, ""),
    ])
    def test_first_bad_id_is_named(self, tmp_path, lines, lineno, first_bad):
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes(lines))
        error = f"line {lineno}: speaker id must be non-empty and contain no whitespace: {first_bad!r}"
        assert_refused(p, re.escape(error) + "$")

    @pytest.mark.parametrize("lines", [
        [f"{vowel} spk1 spk2" for vowel in VOWELS],
        ["a spk1 spk2", "e spk2", "i spk1 spk2", "o spk1", "u spk1 spk2"],
    ])
    def test_an_id_is_one_string_across_vowels(self, tmp_path, lines):
        p = tmp_path / "models.bin"
        sizes = [len(line.split()) - 1 for line in lines]
        p.write_bytes(v2_bytes(lines) + v2_columns(([[1.0] * 16] * n, [3] * n) for n in sizes))
        loaded = load_models(p)
        for sid in loaded.speakers():
            objects = {id(ids[ids.index(sid)]) for ids in (loaded.table(v)[0] for v in VOWELS) if sid in ids}
            assert len(objects) == 1

    def test_a_shared_id_line_is_checked_for_order_once(self, tmp_path, monkeypatch):
        p = tmp_path / "models.bin"
        p.write_bytes(v2_bytes([f"{vowel} s1 s2 s3" for vowel in VOWELS]) + v2_columns([([[1.0] * 16] * 3, [3] * 3)] * 5))
        compared = []
        monkeypatch.setattr(modeling, "operator", SimpleNamespace(lt=lambda a, b: compared.append(a) or a < b))
        loaded = load_models(p)
        assert compared == ["s1", "s2"]
        assert all(loaded.table(vowel)[0] == ("s1", "s2", "s3") for vowel in VOWELS)

    @pytest.mark.parametrize("hand_made", [False, True])
    def test_loaded_matrices_are_read_only_contiguous_and_aligned(self, tmp_path, hand_made):
        p = tmp_path / "models.bin"
        if hand_made:  # unsorted, so the loader sorts its rows
            p.write_bytes(v2_bytes([f"{vowel} s2 s1" for vowel in VOWELS]) + v2_columns([([[1.0] * 16] * 2, [3, 3])] * 5))
        else:
            save_models(random_model_set(np.random.default_rng(16), 4), p)
        loaded = load_models(p)
        for vowel in VOWELS:
            matrix = loaded.table(vowel)[1]
            assert matrix.flags.c_contiguous and matrix.flags.aligned
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0


class TestModelValidation:
    def test_speaker_id_no_whitespace(self):
        with pytest.raises(ValueError, match="speaker id"):
            SpeakerModel("bad id", "a", np.zeros(16), 1)

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="16"):
            SpeakerModel("spk", "a", np.zeros(15), 1)

    def test_duplicate_add_rejected(self):
        # refused whether the first model is still queued or already merged,
        # and the refused one leaves the set as it was
        for merged in (False, True):
            model_set = ModelSet()
            model_set.add(SpeakerModel("spk", "a", np.zeros(16), 1))
            if merged:
                model_set.table("a")
            with pytest.raises(ValueError, match="duplicate"):
                model_set.add(SpeakerModel("spk", "a", np.ones(16), 2))
            ids, matrix = model_set.table("a")
            assert ids == ("spk",) and matrix.tobytes() == np.zeros((1, 16)).tobytes()
            assert model_set.models["spk", "a"].n_utterances == 1


class TestColumns:
    def test_models_view_builds_fresh_values(self):
        model_set = random_model_set(np.random.default_rng(13), 2)
        first, second = model_set.models["s00", "a"], model_set.models["s00", "a"]
        assert first is not second
        np.testing.assert_array_equal(first.mean_features, second.mean_features)
        assert ("s00", "a") in model_set.models
        # a key of the wrong shape or types is absent, not a TypeError from the id search
        for key in (("s00", "y"), "s00", (5, "a"), ("s00", 5), ("s09", "a")):
            assert key not in model_set.models
            with pytest.raises(KeyError):
                model_set.models[key]

    def test_models_iterate_in_vowel_order(self):
        model_set = ModelSet()
        for sid, vowel in (("s1", "u"), ("s2", "a"), ("s1", "i"), ("s1", "a")):
            model_set.add(SpeakerModel(sid, vowel, np.zeros(16), 1))
        assert list(model_set.models) == [("s1", "a"), ("s2", "a"), ("s1", "i"), ("s1", "u")]

    def test_for_vowel_and_speakers_follow_table(self):
        model_set = ModelSet()
        for sid in ("s9", "s10", "s1"):
            model_set.add(SpeakerModel(sid, "o", np.full(16, len(sid)), len(sid)))
        ids, matrix = model_set.table("o")
        assert ids == ("s1", "s10", "s9")
        assert [m.speaker_id for m in model_set.for_vowel("o")] == list(ids)
        assert [m.n_utterances for m in model_set.for_vowel("o")] == [2, 3, 2]
        np.testing.assert_array_equal(matrix[:, 0], [2.0, 3.0, 2.0])
        assert model_set.speakers() == ["s1", "s10", "s9"]
        assert model_set.table("u")[0] == ()

    def test_count_must_be_an_integer(self):
        with pytest.raises(TypeError):
            SpeakerModel("spk", "a", np.zeros(16), 2.0)


class TestQueue:
    """Added models wait in flat per-vowel buffers until the vowel's next read."""

    def test_adding_and_reading_10k_models_costs_about_their_data(self):
        # the 10k models hold 1.3 MB of values and counts; an ndarray and a
        # tuple kept per queued model took the peak to about 6 MB
        rows = np.random.default_rng(17).normal(size=(10_000, 16))
        # interned before tracing: the interpreter's table of interned strings is not the store's
        ids = [sys.intern(f"s{j:05d}") for j in range(len(rows))]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model_set = ModelSet()
            for sid, row in zip(ids, rows):
                model_set.add(SpeakerModel(sid, "a", row, 1))
            assert len(model_set.table("a")[0]) == len(rows)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    def test_merged_columns_are_the_added_rows_stacked_in_id_order(self, order):
        rng = np.random.default_rng(18)
        ids = [f"s{j:03d}" for j in range(60)]
        rows, counts = rng.normal(size=(len(ids), 16)), rng.integers(1, 2**63 - 1, len(ids), endpoint=True)
        added = {"sorted": range(len(ids)), "reversed": range(len(ids) - 1, -1, -1),
                 "shuffled": rng.permutation(len(ids))}[order]
        model_set = ModelSet()
        for i in added:
            model_set.add(SpeakerModel(ids[i], "e", rows[i], int(counts[i])))
        got_ids, matrix = model_set.table("e")
        assert got_ids == tuple(ids)
        assert matrix.tobytes() == np.stack(list(rows)).tobytes()
        assert [m.n_utterances for m in model_set.for_vowel("e")] == counts.tolist()

    def test_counts_up_to_the_int64_limit_survive_the_queue(self):
        model_set = ModelSet()
        for sid, n in (("s1", 2**63 - 1), ("s2", 1), ("s3", 2**62 + 1)):
            model_set.add(SpeakerModel(sid, "i", np.zeros(16), n))
        assert [m.n_utterances for m in model_set.for_vowel("i")] == [2**63 - 1, 1, 2**62 + 1]


class TestRecords:
    def test_speaker_model_is_slotted_frozen_and_compared_by_identity(self):
        added = SpeakerModel("spk", "a", np.arange(16.0), 3)
        model_set = ModelSet()
        model_set.add(added)
        for model in (added, model_set.models["spk", "a"]):
            assert not hasattr(model, "__dict__")
            with pytest.raises(FrozenInstanceError):
                model.n_utterances = 4
            copy = pickle.loads(pickle.dumps(model))
            assert (copy.speaker_id, copy.vowel, copy.n_utterances) == ("spk", "a", 3)
            assert copy.mean_features.tobytes() == added.mean_features.tobytes()
            assert model == model and copy != model
        assert model_set.models["spk", "a"] != model_set.models["spk", "a"]

    def test_verification_outcome_is_slotted_frozen_and_compared_by_value(self):
        outcome = VerificationOutcome(True, "spk")
        assert not hasattr(outcome, "__dict__")
        with pytest.raises(FrozenInstanceError):
            outcome.accepted = False
        assert pickle.loads(pickle.dumps(outcome)) == outcome == VerificationOutcome(True, "spk")
        assert hash(outcome) == hash(VerificationOutcome(True, "spk"))
        assert outcome != VerificationOutcome(True, "other") and outcome != VerificationOutcome(False)


# signed zero, subnormals and exponent boundaries must come back bit for bit
EDGE_VALUES = (-0.0, 0.0, 1e-7, -1e-7, 1e15, 1e16, 1.0 / 3, 123456789012.5, 5e-324)
model_values = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def model_records(draw):
    """(sid, vowel, count, 16 values) for 1-40 speakers with random vowel
    subsets, in shuffled order. Ids share characters so that lexicographic
    order differs from numeric order."""
    ids = draw(st.lists(
        st.text("s019_", min_size=1, max_size=3), min_size=1, max_size=40, unique=True
    ))
    records = []
    for sid in ids:
        for vowel in sorted(draw(st.sets(st.sampled_from(VOWELS), min_size=1))):
            values = draw(st.lists(model_values, min_size=16, max_size=16))
            records.append((sid, vowel, draw(st.integers(1, 2**63 - 1)), values))
    return draw(st.permutations(records))


def model_set_of(records):
    model_set = ModelSet()
    for sid, vowel, n, values in records:
        model_set.add(SpeakerModel(sid, vowel, values, n))
    return model_set


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("models") / "models.bin"


COLUMN_PROPERTY = settings(max_examples=60, deadline=None)


@COLUMN_PROPERTY
@given(model_records())
def test_load_restores_ids_counts_and_rounded_values(model_path, records):
    """The loaded values are the saved ones, bit for bit: nothing is rounded."""
    model_set = model_set_of(records)
    save_models(model_set, model_path)
    loaded = load_models(model_path)
    assert loaded.speakers() == model_set.speakers()
    for vowel in VOWELS:
        want = sorted((r for r in records if r[1] == vowel), key=lambda r: r[0])
        ids, matrix = loaded.table(vowel)
        assert ids == model_set.table(vowel)[0] == tuple(r[0] for r in want)
        assert [m.n_utterances for m in loaded.for_vowel(vowel)] == [r[2] for r in want]
        assert matrix.tobytes() == np.array([r[3] for r in want]).reshape(len(want), 16).tobytes()


def columns_of(model_set, vowel):
    """A vowel's ids, matrix bytes and counts, read through the public API."""
    ids, matrix = model_set.table(vowel)
    return ids, matrix.tobytes(), [m.n_utterances for m in model_set.for_vowel(vowel)]


READS = ("table", "for_vowel", "models", "iter")


@COLUMN_PROPERTY
@given(model_records(), st.data())
def test_reads_between_adds_give_the_same_columns(model_path, records, data):
    """Reads at random points merge the queued models early; the columns
    must come out as if every model had been added before the first read."""
    reads = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(records) - 1), st.sampled_from(READS),
            st.sampled_from(VOWELS), st.integers(0, len(records) - 1),
        ),
        max_size=12,
    ))
    interleaved = ModelSet()
    for i, (sid, vowel, n, values) in enumerate(records):
        interleaved.add(SpeakerModel(sid, vowel, values, n))
        for _, read, read_vowel, j in (r for r in reads if r[0] == i):
            if read == "table":
                interleaved.table(read_vowel)
            elif read == "for_vowel":
                interleaved.for_vowel(read_vowel)
            elif read == "models":
                key_sid, key_vowel, key_n, key_values = records[j % (i + 1)]
                model = interleaved.models[key_sid, key_vowel]
                assert model.n_utterances == key_n
                assert model.mean_features.tobytes() == np.array(key_values).tobytes()
            else:
                assert len(list(interleaved.models)) == len(interleaved.models) == i + 1
    # a repeat is refused whether its vowel's models are still queued or already merged
    sid, vowel, n, values = records[data.draw(st.integers(0, len(records) - 1))]
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"duplicate model for {(sid, vowel)}")):
            interleaved.add(SpeakerModel(sid, vowel, values, n))
        interleaved.table(vowel)
    plain = model_set_of(records)
    save_models(interleaved, model_path)
    loaded = load_models(model_path)
    for vowel in VOWELS:
        ids, matrix, counts = columns_of(interleaved, vowel)
        assert (ids, matrix, counts) == columns_of(plain, vowel)
        assert columns_of(loaded, vowel) == (ids, matrix, counts)


@COLUMN_PROPERTY
@given(model_records())
def test_hand_made_file_loads_like_the_added_set(model_path, records):
    """A file written by hand, each id line in the records' shuffled order,
    loads to the same columns as adding the records one by one."""
    by_vowel = [[r for r in records if r[1] == vowel] for vowel in VOWELS]
    lines = [" ".join((vowel, *(r[0] for r in rs))) for vowel, rs in zip(VOWELS, by_vowel)]
    model_path.write_bytes(v2_bytes(lines) + v2_columns(([r[3] for r in rs], [r[2] for r in rs]) for rs in by_vowel))
    loaded, added = load_models(model_path), model_set_of(records)
    assert loaded.speakers() == added.speakers()
    for vowel in VOWELS:
        assert columns_of(loaded, vowel) == columns_of(added, vowel)
        assert [(m.speaker_id, m.mean_features.tobytes()) for m in loaded.for_vowel(vowel)] == [
            (m.speaker_id, m.mean_features.tobytes()) for m in added.for_vowel(vowel)
        ]
