import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import brute_argmin, distance_dict, report_key, weighted_distance
from psverify.decision import (
    DistanceReport,
    DistanceWeights,
    TOKHURA_CEPSTRAL_WEIGHTS,
    identify_combined,
    score_against_models,
    verify_claim,
)
from psverify.features import CepstralVector, TemporalFeatures, UtteranceFeatures
from psverify.modeling import ModelSet, SpeakerModel


def features_from(vector, vowel="a"):
    vector = np.asarray(vector, dtype=np.float64)
    return UtteranceFeatures(
        TemporalFeatures(*np.abs(vector[:4])), CepstralVector(vector[4:]), vowel
    )


def set_of(vectors, vowel="a"):
    model_set = ModelSet()
    for sid, vec in vectors.items():
        model_set.add(SpeakerModel(sid, vowel, np.asarray(vec, dtype=np.float64), 1))
    return model_set


def report_from(cep, tem):
    return DistanceReport(cep, tem, brute_argmin(cep), brute_argmin(tem))


# a pickle round trip, a shallow and a deep copy
COPIES = (lambda record: pickle.loads(pickle.dumps(record)), copy.copy, copy.deepcopy)


def assert_read_only(*arrays):
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = np.nan


@st.composite
def scoring_cases(draw, values, weights):
    """A test vector, weights and 1-40 speakers inserted in shuffled order.

    Speakers draw their vectors from a small pool, so duplicated models
    (exact ties) are common. Ids share characters so that lexicographic
    order differs from numeric order ("s10" < "s9").
    """
    n = draw(st.integers(1, 40))
    ids = draw(st.lists(
        st.text("s019_", min_size=1, max_size=3), min_size=n, max_size=n, unique=True
    ))
    pool = draw(st.lists(arrays(np.float64, 16, elements=values), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    model_set = ModelSet()
    for i in order:
        model_set.add(SpeakerModel(ids[i], "a", pool[picks[i]], 1))
    feats = features_from(draw(arrays(np.float64, 16, elements=values)))
    distance_weights = DistanceWeights(
        cepstral_weights=draw(arrays(np.float64, 12, elements=weights)),
        temporal_weights=draw(arrays(np.float64, 4, elements=weights)),
    )
    return feats, model_set, distance_weights


def loop_distances(feats, model_set, weights):
    """Per-model weighted_distance loop, the pairwise definition."""
    cep, tem = {}, {}
    for (sid, _), model in model_set.models.items():
        cep[sid] = weighted_distance(feats.cepstral.c, model.mean_features[4:], weights.cepstral_weights)
        tem[sid] = weighted_distance(feats.temporal.vector, model.mean_features[:4], weights.temporal_weights)
    return cep, tem


class TestWeightedDistance:
    def test_zero_for_equal(self):
        x = np.arange(12.0)
        assert weighted_distance(x, x, np.array(TOKHURA_CEPSTRAL_WEIGHTS)) == 0.0

    def test_first_tokhura_weight(self):
        x = np.zeros(12)
        y = np.zeros(12)
        y[0] = 1.0
        assert weighted_distance(x, y, np.array(TOKHURA_CEPSTRAL_WEIGHTS)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x, y = rng.normal(0, 1, 12), rng.normal(0, 1, 12)
            w = rng.uniform(0.1, 5, 12)
            assert weighted_distance(x, y, w) == weighted_distance(y, x, w)

    def test_positive_definite(self):
        rng = np.random.default_rng(12)
        x, y = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
        w = rng.uniform(0.1, 5, 4)
        assert weighted_distance(x, y, w) > 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            weighted_distance(np.zeros(3), np.zeros(4), np.zeros(4))


class TestWeights:
    def test_defaults(self):
        w = DistanceWeights()
        np.testing.assert_array_equal(w.cepstral_weights, TOKHURA_CEPSTRAL_WEIGHTS)
        np.testing.assert_array_equal(w.temporal_weights, np.ones(4))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            DistanceWeights(temporal_weights=np.array([1.0, 0.0, 1.0, 1.0]))

    def test_length_enforced(self):
        with pytest.raises(ValueError, match="cepstral_weights needs 12 values, got 10"):
            DistanceWeights(cepstral_weights=np.ones(10))
        with pytest.raises(ValueError, match="temporal_weights needs 4 values, got 5"):
            DistanceWeights(temporal_weights=[1.0] * 5)
        with pytest.raises(ValueError, match=r"temporal_weights needs 4 values, got \(2, 2\)"):
            DistanceWeights(temporal_weights=np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finiteness_enforced(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            DistanceWeights(temporal_weights=np.array([bad, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite and positive"):
            DistanceWeights(cepstral_weights=np.r_[np.ones(11), bad])

    def test_weights_cannot_change_after_the_checks(self):
        rng = np.random.default_rng(16)
        vec = np.concatenate((rng.uniform(0, 3, 4), rng.normal(0, 1, 12)))
        model_set = set_of({f"s{i}": rng.normal(0, 1, 16) for i in range(5)})
        cepstral, temporal = 2.0 * np.array(TOKHURA_CEPSTRAL_WEIGHTS), np.array([1.0, 2.0, 3.0, 4.0])
        w = DistanceWeights(cepstral_weights=cepstral, temporal_weights=temporal)
        before = report_key(score_against_models(features_from(vec), model_set, w))
        # the caller's arrays are copied: changing them later has no effect
        cepstral[0] = temporal[0] = -5.0
        # the stored arrays and the default's are read-only
        for stored in (w.cepstral_weights, w.temporal_weights, DistanceWeights().cepstral_weights):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = np.nan
            with pytest.raises(ValueError, match="read-only"):
                stored *= 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.temporal_weights = np.ones(4)
        assert report_key(score_against_models(features_from(vec), model_set, w)) == before
        np.testing.assert_array_equal(w.temporal_weights, [1.0, 2.0, 3.0, 4.0])
        # no weights scores with the defaults
        default = score_against_models(features_from(vec), model_set)
        assert report_key(default) == report_key(score_against_models(features_from(vec), model_set, DistanceWeights()))

    def test_copies_keep_the_values_and_stay_read_only(self):
        w = DistanceWeights(temporal_weights=[1.0, 2.0, 3.0, 4.0])
        for copy_of in COPIES:
            copied = copy_of(w)
            np.testing.assert_array_equal(copied.cepstral_weights, TOKHURA_CEPSTRAL_WEIGHTS)
            np.testing.assert_array_equal(copied.temporal_weights, [1.0, 2.0, 3.0, 4.0])
            assert_read_only(copied.cepstral_weights, copied.temporal_weights)


class TestScoreAgainstModels:
    def test_self_match_zero_distance(self):
        rng = np.random.default_rng(13)
        vec = np.concatenate((rng.uniform(0, 3, 4), rng.normal(0, 1, 12)))
        model_set = set_of({"s1": vec, "s2": vec + 1.0})
        report = score_against_models(features_from(vec), model_set)
        assert distance_dict(report, "cepstral")["s1"] == 0.0
        assert report.argmin_cepstral == "s1"
        assert report.argmin_temporal == "s1"

    def test_tie_breaks_lexicographically(self):
        base = np.zeros(16)
        offset = np.concatenate((np.ones(4), np.zeros(12)))
        model_set = set_of({"sb": base + offset, "sa": base - offset})
        report = score_against_models(features_from(base), model_set)
        assert report.argmin_temporal == "sa"
        assert report.argmin_cepstral == "sa"

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 1003, 10007])
    def test_equal_models_tie_exactly_at_every_table_size(self, n):
        # each column is added to all S sums in vector steps and a scalar
        # tail, so a row's sum may come from either; equal models must still
        # give bit-equal distances, whatever the table size and their place
        rng = np.random.default_rng(n)
        near = np.concatenate((rng.uniform(1, 5, 4), rng.normal(0, 1, 12)))
        far = near + rng.uniform(1, 3, 16)
        model_set = set_of({**{f"s{j:05d}": far for j in range(n)}, "z1": near, "z0": near})
        report = score_against_models(features_from(near + rng.normal(0, 0.1, 16)), model_set)
        for distances in (report.cepstral_distances, report.temporal_distances):
            assert len(set(distances[:n].tolist())) == 1
            assert distances[-2] == distances[-1] < distances[0]
        assert report.ids[-2:] == ("z0", "z1")
        assert report.argmin_cepstral == report.argmin_temporal == "z0"

    def test_single_speaker(self):
        model_set = set_of({"only": np.ones(16)})
        report = score_against_models(features_from(np.zeros(16)), model_set)
        assert report.argmin_cepstral == report.argmin_temporal == "only"

    def test_missing_vowel_rejected(self):
        model_set = set_of({"s1": np.zeros(16)}, vowel="a")
        with pytest.raises(ValueError, match="no enrolled model"):
            score_against_models(features_from(np.zeros(16), vowel="e"), model_set)

    def test_weight_scaling_keeps_argmins(self):
        rng = np.random.default_rng(14)
        vec = np.concatenate((rng.uniform(0, 3, 4), rng.normal(0, 1, 12)))
        model_set = set_of({f"s{i}": rng.normal(0, 1, 16) for i in range(5)})
        base = score_against_models(features_from(vec), model_set)
        scaled = score_against_models(
            features_from(vec),
            model_set,
            DistanceWeights(
                cepstral_weights=7.5 * np.array(TOKHURA_CEPSTRAL_WEIGHTS),
                temporal_weights=0.3 * np.ones(4),
            ),
        )
        assert scaled.argmin_cepstral == base.argmin_cepstral
        assert scaled.argmin_temporal == base.argmin_temporal

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        vec = np.concatenate((rng.uniform(0, 3, 4), rng.normal(0, 1, 12)))
        model_set = set_of({f"s{i}": rng.normal(0, 1, 16) for i in range(4)})
        a = score_against_models(features_from(vec), model_set)
        b = score_against_models(features_from(vec), model_set)
        assert report_key(a) == report_key(b)


class TestScoringProperties:
    @settings(deadline=None)
    @given(scoring_cases(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    ))
    def test_matches_pairwise_loop(self, case):
        feats, model_set, weights = case
        report = score_against_models(feats, model_set, weights)
        cep, tem = loop_distances(feats, model_set, weights)
        got_cep, got_tem = distance_dict(report, "cepstral"), distance_dict(report, "temporal")
        for got, want in ((got_cep, cep), (got_tem, tem)):
            assert got.keys() == want.keys()
            for sid, value in want.items():
                assert type(got[sid]) is float
                assert got[sid] == pytest.approx(value, rel=1e-12, abs=0.0)
        # equal models must tie exactly for the id tie rule to apply
        twins = {}
        for (sid, _), model in model_set.models.items():
            twins.setdefault(model.mean_features.tobytes(), []).append(sid)
        for sids in twins.values():
            assert len({got_cep[sid] for sid in sids}) == 1
            assert len({got_tem[sid] for sid in sids}) == 1
        assert report.argmin_cepstral == brute_argmin(got_cep)
        assert report.argmin_temporal == brute_argmin(got_tem)

    # Quarter-integer values and weights keep every distance exact in any
    # summation order, so the picks must equal the loop's, ties included.
    @settings(deadline=None)
    @given(scoring_cases(
        st.integers(-12, 12).map(lambda k: k / 4),
        st.integers(1, 16).map(lambda k: k / 4),
    ))
    def test_picks_equal_brute_argmin_with_exact_ties(self, case):
        feats, model_set, weights = case
        report = score_against_models(feats, model_set, weights)
        cep, tem = loop_distances(feats, model_set, weights)
        assert distance_dict(report, "cepstral") == cep
        assert distance_dict(report, "temporal") == tem
        assert report.argmin_cepstral == brute_argmin(cep)
        assert report.argmin_temporal == brute_argmin(tem)

    def test_add_invalidates_cached_table(self):
        model_set = set_of({"s1": np.ones(16), "s3": np.full(16, 2.0)})
        feats = features_from(np.zeros(16))
        assert score_against_models(feats, model_set).argmin_cepstral == "s1"
        model_set.add(SpeakerModel("s2", "a", np.full(16, 0.5), 1))
        report = score_against_models(feats, model_set)
        assert report.argmin_cepstral == report.argmin_temporal == "s2"
        assert report.ids == ("s1", "s2", "s3")

    def test_models_are_read_only(self):
        vec = np.ones(16)
        model_set = set_of({"s1": vec})
        vec[0] = 5.0
        assert model_set.models["s1", "a"].mean_features[0] == 1.0
        with pytest.raises(TypeError):
            model_set.models["s2", "a"] = SpeakerModel("s2", "a", np.zeros(16), 1)
        _, matrix = model_set.table("a")
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            model_set.models["s1", "a"].mean_features[0] = 5.0


class TestDistanceReport:
    def test_mappings_are_stored_as_sorted_ids_and_arrays(self):
        report = report_from({"s9": 2.0, "s10": 1.0}, {"s10": 0.5, "s9": 0.25})
        assert report.ids == ("s10", "s9")
        assert report.cepstral_distances.tolist() == [1.0, 2.0]
        assert report.temporal_distances.tolist() == [0.5, 0.25]
        assert report.cepstral_distances.dtype == np.float64

    def test_mappings_over_different_ids_refused(self):
        with pytest.raises(ValueError, match="temporal_distances names other speakers"):
            report_from({"s1": 1.0, "s2": 2.0}, {"s1": 1.0})
        with pytest.raises(ValueError, match="temporal_distances names other speakers"):
            report_from({"s1": 1.0}, {"s1": 1.0, "s2": 2.0})
        with pytest.raises(ValueError, match="cepstral_distances names other speakers"):
            DistanceReport({"s1": 1.0}, np.zeros(2), "s1", "s1", ("s1", "s2"))

    @pytest.mark.parametrize("cep, tem, ids", [
        (np.zeros(3), np.zeros(2), ("s1", "s2")),
        (np.zeros(2), np.zeros(1), ("s1", "s2")),
        (np.zeros((2, 1)), np.zeros(2), ("s1", "s2")),
        (1.0, np.zeros(2), ("s1", "s2")),
        (np.zeros(2), np.zeros(2), ()),
    ])
    def test_array_length_must_equal_len_ids(self, cep, tem, ids):
        with pytest.raises(ValueError, match=rf"needs one value per id \({len(ids)}\)"):
            DistanceReport(cep, tem, "s1", "s1", ids)

    def test_arrays_are_read_only_copies(self):
        cep, tem = np.array([1.0, 2.0]), np.array([0.5, 0.25])
        report = DistanceReport(cep, tem, "s1", "s2", ("s1", "s2"))
        cep[0] = tem[0] = -1.0
        assert cep.flags.writeable and tem.flags.writeable
        assert report.cepstral_distances.tolist() == [1.0, 2.0]
        assert report.temporal_distances.tolist() == [0.5, 0.25]
        for distances in (report.cepstral_distances, report.temporal_distances):
            assert not distances.flags.writeable
            with pytest.raises(ValueError):
                distances[0] = 0.0

    def test_later_dict_changes_do_not_reach_report(self):
        cep, tem = {"s1": 1.0, "s2": 2.0}, {"s1": 0.5, "s2": 0.25}
        report = report_from(cep, tem)
        cep["s1"] = tem["s2"] = -1.0
        cep["s3"] = 0.0
        assert report.ids == ("s1", "s2")
        assert report.cepstral_distances.tolist() == [1.0, 2.0]
        assert report.temporal_distances.tolist() == [0.5, 0.25]

    def test_no_value_equality(self):
        a = report_from({"s1": 1.0}, {"s1": 2.0})
        b = report_from({"s1": 1.0}, {"s1": 2.0})
        assert a == a and a != b
        assert report_key(a) == report_key(b)

    def test_copies_keep_the_values_and_stay_read_only(self):
        report = report_from({"s9": 2.0, "s10": 1.0}, {"s10": 0.5, "s9": 0.25})
        for copy_of in COPIES:
            copied = copy_of(report)
            assert report_key(copied) == report_key(report)
            assert copied.ids == ("s10", "s9")
            assert_read_only(copied.cepstral_distances, copied.temporal_distances)


class TestIdentifyCombined:
    def test_agreement_accepts(self):
        outcome = identify_combined(report_from({"s4": 1.0, "s7": 2.0}, {"s4": 0.5, "s7": 0.9}))
        assert outcome.accepted and outcome.speaker_id == "s4"

    def test_disagreement_rejects(self):
        outcome = identify_combined(report_from({"s4": 1.0, "s7": 2.0}, {"s4": 0.9, "s7": 0.5}))
        assert not outcome.accepted and outcome.speaker_id is None

    def test_single_speaker_always_accepts(self):
        outcome = identify_combined(report_from({"s1": 3.0}, {"s1": 9.0}))
        assert outcome.accepted and outcome.speaker_id == "s1"

    def test_exhaustive_small_grids(self):
        # every distance combination from a small grid, 2 and 3 speakers
        for n, grid in ((2, (0.0, 1.0, 2.0)), (3, (0.0, 1.0))):
            sids = [f"s{i}" for i in range(n)]
            combos = np.stack(np.meshgrid(*[grid] * (2 * n)), axis=-1).reshape(-1, 2 * n)
            for row in combos:
                cep = dict(zip(sids, row[:n]))
                tem = dict(zip(sids, row[n:]))
                outcome = identify_combined(report_from(cep, tem))
                agree = brute_argmin(cep) == brute_argmin(tem)
                assert outcome.accepted == agree
                if agree:
                    assert outcome.speaker_id == brute_argmin(cep)

    def test_random_tables(self):
        rng = np.random.default_rng(16)
        for _ in range(2000):
            n = int(rng.integers(2, 5))
            sids = [f"s{i}" for i in range(n)]
            cep = dict(zip(sids, rng.uniform(0, 3, n).round(1)))
            tem = dict(zip(sids, rng.uniform(0, 3, n).round(1)))
            outcome = identify_combined(report_from(cep, tem))
            assert outcome.accepted == (brute_argmin(cep) == brute_argmin(tem))


class TestVerifyClaim:
    def test_verified(self):
        report = report_from({"s1": 0.0, "s2": 5.0}, {"s1": 0.0, "s2": 5.0})
        assert verify_claim(report, "s1") == "verified"

    def test_impostor(self):
        report = report_from({"s1": 0.0, "s2": 5.0}, {"s1": 0.0, "s2": 5.0})
        assert verify_claim(report, "s2") == "impostor"

    def test_retry_on_rejection(self):
        report = report_from({"s1": 0.0, "s2": 5.0}, {"s1": 5.0, "s2": 0.0})
        assert verify_claim(report, "s1") == "retry"

    def test_unknown_claim_rejected(self):
        report = report_from({"s1": 0.0}, {"s1": 0.0})
        with pytest.raises(ValueError, match="unknown claimed"):
            verify_claim(report, "szz")
