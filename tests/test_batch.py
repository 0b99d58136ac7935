"""The batched pass: every cepstral frame of a training or evaluation pass
is solved in one Levinson-Durbin and cepstral batch. Each file's vector
must equal its solo computation bit for bit, an ill-conditioned frame must
fail only its own utterance, and each failure carries its pipeline stage."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import composed_vector, first_ill_conditioned, loop_cepstra
from psverify import features
from psverify.evaluation import VOWEL_FORMANTS, run_evaluation, synth_vowel
from psverify.features import (
    LPC_ORDER,
    autocorrelation,
    average_cepstra,
    cepstral_lags,
    levinson_durbin,
    lpc_to_cepstral,
    select_steady_state,
)
from psverify.pipeline import (
    PipelineError,
    detect_marks,
    features_of_files,
    load_signal,
    preprocess_signal,
    utterance_features_from_file,
)
from psverify.pitch import periods_from_marks
from psverify.signal_io import SampleBuffer, write_text_samples

# lags 1, 2, ..., 13: k1 = 2, so the solve fails at its first reflection
BAD_LAGS = np.arange(1.0, LPC_ORDER + 2)


@pytest.fixture(scope="module")
def solo_vectors(small_corpus):
    """path -> (vector of the file alone, vector composed stage by stage)."""
    _, entries = small_corpus
    vectors = {}
    for entry in entries:
        buffer = preprocess_signal(load_signal(entry.path))
        composed = composed_vector(buffer, detect_marks(buffer))
        vectors[entry.path] = (utterance_features_from_file(entry.path, entry.vowel).vector, composed)
    return vectors


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_pass_equals_each_file_alone(small_corpus, solo_vectors, data):
    _, entries = small_corpus
    picked = data.draw(st.lists(st.sampled_from(entries), min_size=1, max_size=12, unique=True))
    results = features_of_files([(e.path, e.vowel) for e in picked])
    for entry, result in zip(picked, results):
        alone, composed = solo_vectors[entry.path]
        np.testing.assert_array_equal(result.vector, alone)
        np.testing.assert_array_equal(result.vector, composed)


def lag_matrices(small_corpus, count):
    _, entries = small_corpus
    matrices = []
    for entry in entries[:count]:
        buffer = preprocess_signal(load_signal(entry.path))
        matrices.append(cepstral_lags(buffer, select_steady_state(buffer, periods_from_marks(detect_marks(buffer)))))
    return matrices


def frame_by_frame(lags):
    """Average of per-frame levinson_durbin -> lpc_to_cepstral, frames in order."""
    acc = np.zeros(LPC_ORDER)
    for row in lags:
        acc += lpc_to_cepstral(levinson_durbin(row)[0]).c
    return acc / len(lags)


class TestMasking:
    def test_ill_conditioned_matrix_fails_only_itself(self, small_corpus):
        first, middle, last = lag_matrices(small_corpus, 3)
        bad = middle.copy()
        bad[1] = BAD_LAGS  # between good frames of the same utterance
        with pytest.raises(ValueError) as solo:
            levinson_durbin(BAD_LAGS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = average_cepstra([first, bad, last])
        assert type(results[1]) is ValueError
        assert str(results[1]) == str(solo.value) == "ill-conditioned autocorrelation: |reflection| >= 1"
        np.testing.assert_array_equal(results[0], frame_by_frame(first))
        np.testing.assert_array_equal(results[2], frame_by_frame(last))

    def test_first_check_in_solo_order_wins(self, small_corpus):
        (good,) = lag_matrices(small_corpus, 1)
        zero_r0 = np.zeros(LPC_ORDER + 1)
        # a reflection failure in an earlier frame loses to R[0] <= 0 in a later one
        lags = np.vstack((good[:1], BAD_LAGS, good[1:], zero_r0))
        (result,) = average_cepstra([lags])
        assert str(result) == "ill-conditioned autocorrelation: R[0] <= 0"

    def test_overflowing_reflection_warns_nothing(self, small_corpus):
        (good,) = lag_matrices(small_corpus, 1)
        huge = np.zeros(LPC_ORDER + 1)
        huge[:2] = 1e-300, 1e300  # k1 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = average_cepstra([good, huge[None, :], good])
            with pytest.raises(ValueError, match="reflection"):
                levinson_durbin(huge)
        assert str(results[1]) == "ill-conditioned autocorrelation: |reflection| >= 1"
        np.testing.assert_array_equal(results[0], results[2])


@st.composite
def lag_rows(draw):
    """One frame's 13 lags: a real autocorrelation, or arbitrary values that
    usually fail a check (R[0] may be <= 0)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return autocorrelation(rng.normal(0.0, 1.0, int(rng.integers(LPC_ORDER + 1, 200))))
    row = rng.uniform(-1.0, 1.0, LPC_ORDER + 1)
    row[0] = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 4.0]))
    return row


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(lag_rows(), min_size=1, max_size=5), min_size=1, max_size=6))
def test_each_matrix_solved_as_if_alone(matrices):
    matrices = [np.array(rows) for rows in matrices]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = average_cepstra(matrices)
    for lags, result in zip(matrices, results):
        expected = first_ill_conditioned(lags)
        if expected is not None:
            assert type(result) is ValueError and str(result) == expected
            continue
        acc = np.zeros(LPC_ORDER)
        for row in lags:
            acc += loop_cepstra(levinson_durbin(row)[0])
        np.testing.assert_array_equal(result, acc / len(lags))


def test_evaluation_pass_lists_only_masked_files(small_corpus, small_models, monkeypatch):
    _, entries = small_corpus
    reference = run_evaluation(entries, small_models)
    assert reference.failed == ()
    tests = [e for e in entries if e.split == "test"]
    poisoned = {1, 4}  # positions in the pass, which follows manifest order
    real = features.cepstral_lags
    calls = []

    def lags_with_bad_frame(buffer, region):
        lags = real(buffer, region)
        if len(calls) in poisoned:
            lags[len(lags) // 2] = BAD_LAGS
        calls.append(len(lags))
        return lags

    monkeypatch.setattr(features, "cepstral_lags", lags_with_bad_frame)
    report = run_evaluation(entries, small_models)
    victims = [tests[i].path for i in sorted(poisoned)]
    assert report.failed == tuple(
        (path, f"{path}: ill-conditioned autocorrelation: |reflection| >= 1") for path in victims
    )
    assert report.outcomes == tuple(o for o in reference.outcomes if o.path not in victims)


def write_signal(path, samples):
    write_text_samples(SampleBuffer(np.asarray(samples, dtype=np.float64), 16000), path)
    return path


@pytest.fixture
def stage_inputs(tmp_path):
    """(path, stage, message) of one input failing each pipeline stage."""
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("1\nabc\n")
    silent = write_signal(tmp_path / "silent.txt", np.zeros(2000))
    # zero-mean as written; the trimmed span keeps only the positive head
    tail = 2.0**-7
    one_sign = write_signal(tmp_path / "one_sign.txt", np.concatenate(
        (np.ones(200), np.full(100, tail), np.full(25700, -tail))
    ))
    short = tmp_path / "short.txt"
    write_text_samples(synth_vowel(120.0, VOWEL_FORMANTS["a"], 0.02, 16000, seed=1), short)
    return [
        (malformed, "load", f"{malformed}: line 2: not a number: 'abc'"),
        (silent, "preprocess", "silent signal: cannot normalize samples peaking at 0"),
        (one_sign, "marks", "unvoiced or degenerate signal: no sign alternation"),
        (short, "features", "need at least 3 pitch periods, got 2"),
    ]


class TestStageTags:
    def test_each_stage_names_itself(self, stage_inputs):
        for path, stage, message in stage_inputs:
            with pytest.raises(PipelineError) as exc:
                utterance_features_from_file(path, "a")
            assert isinstance(exc.value, ValueError)
            assert (exc.value.stage, str(exc.value)) == (stage, message)

    def test_pass_tags_each_file_and_keeps_the_rest(self, stage_inputs, small_corpus, solo_vectors):
        _, entries = small_corpus
        good = entries[0]
        files = [(good.path, good.vowel)] + [(path, "a") for path, _, _ in stage_inputs]
        results = features_of_files(files)
        np.testing.assert_array_equal(results[0].vector, solo_vectors[good.path][0])
        for result, (_, stage, message) in zip(results[1:], stage_inputs):
            assert isinstance(result, PipelineError)
            assert (result.stage, str(result)) == (stage, message)

    def test_masked_row_fails_at_features(self, small_corpus, monkeypatch):
        _, entries = small_corpus
        real = features.cepstral_lags

        def bad_first_frame(buffer, region):
            lags = real(buffer, region)
            lags[0] = BAD_LAGS
            return lags

        monkeypatch.setattr(features, "cepstral_lags", bad_first_frame)
        with pytest.raises(PipelineError) as exc:
            utterance_features_from_file(entries[0].path, entries[0].vowel)
        assert exc.value.stage == "features"
        assert str(exc.value) == "ill-conditioned autocorrelation: |reflection| >= 1"

    def test_missing_file_stays_os_error(self, tmp_path):
        missing = tmp_path / "missing.txt"
        with pytest.raises(FileNotFoundError):
            utterance_features_from_file(missing, "a")
        (result,) = features_of_files([(missing, "a")])
        assert type(result) is FileNotFoundError

    def test_overflowing_file_fails_alone_in_a_pass(self, small_corpus, solo_vectors, tmp_path):
        # finite samples whose sum overflows float64: refused, with no
        # RuntimeWarning to escape the pass under the suite's filterwarnings
        huge = write_signal(tmp_path / "huge.txt", 1.7e308 * np.sin(np.arange(1, 6001) * 0.1))
        good = small_corpus[1][0]
        bad, result = features_of_files([(huge, "a"), (good.path, good.vowel)])
        assert isinstance(bad, PipelineError)
        assert (bad.stage, str(bad)) == ("preprocess", "samples too large: removing their mean overflows float64")
        np.testing.assert_array_equal(result.vector, solo_vectors[good.path][0])
