"""The batched pass: every cepstral frame of a training or evaluation pass
is solved in one Levinson-Durbin and cepstral batch. Each file's vector
must equal its solo computation bit for bit, an ill-conditioned frame must
fail only its own utterance, and each failure carries its pipeline stage."""

import multiprocessing
import os
import pickle
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import composed_vector, first_ill_conditioned, loop_cepstra
from psverify import cli, evaluation, features, pipeline
from psverify.evaluation import make_synthetic_corpus, run_evaluation
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
    MIN_FILES_PER_WORKER,
    PipelineError,
    detect_marks,
    features_of_files,
    load_signal,
    preprocess_signal,
    utterance_features_from_file,
)
from psverify.pitch import periods_from_marks
from psverify.signal_io import SampleBuffer, write_text_samples
from psverify.synth import VOWEL_FORMANTS, synth_vowel

# lags 1, 2, ..., 13: k1 = 2, so the solve fails at its first reflection
BAD_LAGS = np.arange(1.0, LPC_ORDER + 2)
# the first failed check of a row that passes all (features._first_failed_checks)
PASSED = 2 * LPC_ORDER + 1


def reflection_lags(step):
    """Lags whose reflections are -0.5, 0.5, ... but 1.5 at `step`, built from
    R[0] = 1 by the step-up recursion: the solve fails at that reflection,
    which is check 2 * step."""
    r, a, e = [1.0], np.zeros(0), 1.0
    for i in range(1, LPC_ORDER + 1):
        k = 1.5 if i == step else 0.5 * (-1) ** i
        r.append(k * e + a @ np.array(r[:0:-1]))
        a, e = np.append(a - k * a[::-1], k), (1.0 - k * k) * e
    return np.array(r)


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

    def test_mixed_batch_fails_each_row_at_its_own_step(self, small_corpus):
        first, second = lag_matrices(small_corpus, 2)
        zero_r0 = np.zeros(LPC_ORDER + 1)
        # (matrix, the first failed check of each of its rows)
        cases = [
            (first, [PASSED] * len(first)),
            (np.vstack((second[:2], zero_r0, second[2:])), [PASSED] * 2 + [0] + [PASSED] * (len(second) - 2)),
            (np.vstack((first[:1], BAD_LAGS)), [PASSED, 2]),
            (np.vstack((reflection_lags(4), second)), [8] + [PASSED] * len(second)),
            (np.vstack((second[:3], reflection_lags(12), reflection_lags(9))), [PASSED] * 3 + [24, 18]),
            (second, [PASSED] * len(second)),
        ]
        matrices = [matrix for matrix, _ in cases]
        rows = np.vstack(matrices)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, k, err, checks = features._levinson_batch(rows)
            results = average_cepstra(matrices)
            alone = [average_cepstra([matrix])[0] for matrix in matrices]
        assert checks.tolist() == [check for _, row_checks in cases for check in row_checks]
        for row, check, *solved in zip(rows, checks, a, k, err):
            if check == PASSED:
                for batch, solo in zip(solved, levinson_durbin(row)):
                    assert batch.tobytes() == solo.tobytes()
            else:  # zeroed, so no inf or nan reaches the cepstral recursion
                assert not solved[0].any()
        for matrix, result, solo in zip(matrices, results, alone):
            if isinstance(solo, ValueError):
                assert type(result) is ValueError and str(result) == str(solo)
            else:
                assert result.tobytes() == solo.tobytes() == frame_by_frame(matrix).tobytes()
        assert [str(r) for r in results if isinstance(r, ValueError)] == [
            "ill-conditioned autocorrelation: R[0] <= 0",
            *["ill-conditioned autocorrelation: |reflection| >= 1"] * 3,
        ]

    def test_vanishing_residual_is_checked_between_reflections(self):
        # with gradual underflow, (1 - k*k) * E stays above 0 whenever E > 0 and
        # |k| < 1, so a residual vanishes first only where subnormals flush to
        # zero; residuals and reflections are given here directly
        order = 3
        err, k = np.ones((5, order + 1)), np.zeros((5, order))
        err[1, 2] = 0.0  # the residual after step 2, checked at step 3
        err[2, 2], k[2, 1] = 0.0, 1.0  # step 2's reflection is checked first
        k[3, 2], err[3, 3] = -1.0, -1.0  # the last residual is never checked
        err[4, 0] = -1.0
        checks = features._first_failed_checks(err, k)
        assert checks.tolist() == [7, 5, 4, 6, 0]
        assert [str(features._check_error(check, order)) for check in checks] == [
            "None",
            "ill-conditioned autocorrelation: vanishing residual",
            *["ill-conditioned autocorrelation: |reflection| >= 1"] * 2,
            "ill-conditioned autocorrelation: R[0] <= 0",
        ]

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


def test_pipeline_error_survives_pickle():
    error = pickle.loads(pickle.dumps(PipelineError("marks", "x")))
    assert type(error) is PipelineError
    assert (error.stage, str(error)) == ("marks", "x")


def outcome(result):
    """What a pass says of one file: its vector bytes, or its failure's
    type, stage and message."""
    if isinstance(result, Exception):
        return type(result), getattr(result, "stage", None), str(result)
    return result.vector.tobytes()


# the corpus file whose process _staged_killing_its_worker kills
KILLED_FILE = "s02_e_train01.txt"
_real_staged = pipeline._staged


def _staged_killing_its_worker(path, config):
    """pipeline._staged, except that the child handed KILLED_FILE dies as
    one the OOM killer ends does."""
    if os.path.basename(path) == KILLED_FILE:
        assert multiprocessing.parent_process() is not None, "the test process would be killed"
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_staged(path, config)


# the file _staged_recording_its_process appends "pid path" lines to
STAGED_LOG = None


def _staged_recording_its_process(path, config):
    """pipeline._staged, after appending which process took the file to
    STAGED_LOG; each line is one small append, so processes do not interleave."""
    with open(STAGED_LOG, "a") as fh:
        fh.write(f"{os.getpid()} {path}\n")
    return _real_staged(path, config)


def assert_no_child_left():
    """No child process of this one runs, and none is left unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def counted_forks(monkeypatch):
    """Process ids forked from this process while the test runs."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


class TestWorkers:
    """A pass of at least MIN_FILES_PER_WORKER files per usable CPU is split
    by stride between this process and one forked child per other CPU; two
    usable CPUs are assumed, so the split runs on any host."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def mixed_pass(self, small_corpus, stage_inputs, tmp_path):
        """Every corpus file, with a malformed, a missing, a non-UTF-8 and a
        silent file among them."""
        _, entries = small_corpus
        (malformed, _, _), (silent, _, _) = stage_inputs[:2]
        not_utf8 = tmp_path / "not_utf8.txt"
        not_utf8.write_bytes(b"\xff\xfe1\n2\n")
        bad = [malformed, tmp_path / "missing.txt", not_utf8, silent]
        files = [(e.path, e.vowel) for e in entries]
        for i, path in enumerate(bad):
            files.insert(1 + 11 * i, (path, "a"))
        assert len(files) >= 2 * MIN_FILES_PER_WORKER
        return files

    @pytest.fixture
    def solo_outcomes(self, mixed_pass):
        """outcome() of each file of the mixed pass, each in a pass of its own."""
        return [outcome(features_of_files([file])[0]) for file in mixed_pass]

    def test_pass_equals_each_file_alone(self, mixed_pass, solo_outcomes, solo_vectors, counted_forks):
        results = features_of_files(f for f in mixed_pass)
        assert len(counted_forks) == pipeline._usable_cpus() - 1
        assert_no_child_left()
        assert list(map(outcome, results)) == solo_outcomes
        for (path, _), result in zip(mixed_pass, results):
            if path in solo_vectors:
                assert result.vector.tobytes() == solo_vectors[path][0].tobytes()
        failures = [(type(r), getattr(r, "stage", None)) for r in results if isinstance(r, Exception)]
        assert failures == [(PipelineError, "load"), (FileNotFoundError, None),
                            (PipelineError, "load"), (PipelineError, "preprocess")]

    def test_one_file_pass_starts_no_process(self, small_corpus, monkeypatch):
        def no_fork():
            raise AssertionError("a one-file pass forked")

        monkeypatch.setattr(os, "fork", no_fork)
        entry = small_corpus[1][0]
        (result,) = features_of_files([(entry.path, entry.vowel)])
        assert result.vector.tobytes() == utterance_features_from_file(entry.path, entry.vowel).vector.tobytes()

    def test_threaded_caller_stays_in_process(self, mixed_pass, solo_outcomes, monkeypatch):
        def no_fork():
            raise AssertionError("a pass forked a threaded process")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            results = features_of_files(mixed_pass)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert list(map(outcome, results)) == solo_outcomes

    def test_failing_worker_is_joined(self, mixed_pass, monkeypatch, counted_forks):
        # not a ValueError or OSError, so the pass itself fails
        def no_memory(buffer, config):
            raise MemoryError("out of memory")

        monkeypatch.setattr(pipeline, "detect_marks", no_memory)
        with pytest.raises(MemoryError, match="out of memory"):
            features_of_files(mixed_pass)
        assert len(counted_forks) == pipeline._usable_cpus() - 1
        assert_no_child_left()

    def test_child_exception_reaches_the_caller(self, mixed_pass, monkeypatch, counted_forks):
        # raised only in the child, so this process's own share succeeds
        real = pipeline.detect_marks
        parent = os.getpid()

        def no_memory_in_child(buffer, config):
            if os.getpid() != parent:
                raise MemoryError("out of memory in a child")
            return real(buffer, config)

        monkeypatch.setattr(pipeline, "detect_marks", no_memory_in_child)
        with pytest.raises(MemoryError) as exc:
            features_of_files(mixed_pass)
        assert (type(exc.value), str(exc.value)) == (MemoryError, "out of memory in a child")
        assert len(counted_forks) == pipeline._usable_cpus() - 1
        assert_no_child_left()

    def test_uneven_strides_equal_each_file_alone(self, mixed_pass, solo_outcomes, monkeypatch, counted_forks):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        assert len(mixed_pass) >= 3 * MIN_FILES_PER_WORKER and len(mixed_pass) % 3 != 0
        results = features_of_files(mixed_pass)
        assert len(counted_forks) == 2
        assert_no_child_left()
        assert list(map(outcome, results)) == solo_outcomes

    def test_caller_computes_the_first_stride(self, mixed_pass, monkeypatch, counted_forks, tmp_path):
        monkeypatch.setitem(globals(), "STAGED_LOG", tmp_path / "staged.log")
        monkeypatch.setattr(pipeline, "_staged", _staged_recording_its_process)
        features_of_files(mixed_pass)
        assert_no_child_left()
        (child,) = counted_forks
        by_process = {os.getpid(): [], child: []}
        for line in STAGED_LOG.read_text().splitlines():
            pid, path = line.split(" ", 1)
            by_process[int(pid)].append(path)
        assert by_process[os.getpid()] == [str(path) for path, _ in mixed_pass[0::2]]
        assert by_process[child] == [str(path) for path, _ in mixed_pass[1::2]]

    def test_dead_worker_is_a_data_error(self, mixed_pass, monkeypatch, counted_forks, tmp_path, capsys):
        monkeypatch.setattr(pipeline, "_staged", _staged_killing_its_worker)
        names = [os.path.basename(path) for path, _ in mixed_pass]
        assert KILLED_FILE not in names[0::2] and KILLED_FILE in names, "the test process would be killed"
        with pytest.raises(ChildProcessError, match="a worker process died"):
            features_of_files(mixed_pass)
        assert len(counted_forks) == pipeline._usable_cpus() - 1
        assert_no_child_left()
        # 2 speakers x 5 vowels x 4 train files: a pass of 40, KILLED_FILE among them,
        # and a corpus large enough to be written by two processes
        manifest, _ = make_synthetic_corpus(tmp_path / "corpus", 2, 4, 0, seed=7)
        assert len(counted_forks) == 2 * (pipeline._usable_cpus() - 1)
        assert cli.main(["enroll", "--manifest", str(manifest), "--out", str(tmp_path / "models.bin")]) == 2
        assert capsys.readouterr().err.endswith("error: a worker process died before the pass finished\n")
        assert len(counted_forks) == 3 * (pipeline._usable_cpus() - 1)
        assert_no_child_left()

    def test_workers_leave_ctrl_c_to_the_parent(self, mixed_pass, solo_outcomes, monkeypatch, counted_forks):
        real = pipeline.detect_marks
        parent = os.getpid()

        def ctrl_c_in_worker(buffer, config):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)
            return real(buffer, config)

        monkeypatch.setattr(pipeline, "detect_marks", ctrl_c_in_worker)
        try:
            results = features_of_files(mixed_pass)
        except KeyboardInterrupt:
            pytest.fail("a worker's Ctrl-C ended the pass")
        assert len(counted_forks) == pipeline._usable_cpus() - 1
        assert_no_child_left()
        assert list(map(outcome, results)) == solo_outcomes

    def test_interrupted_pass_joins_its_workers(self, mixed_pass, monkeypatch, counted_forks, tmp_path):
        real = pipeline.detect_marks
        calls = tmp_path / "calls"

        def slow_marks(buffer, config):
            with open(calls, "a") as fh:  # one byte per call, from any process
                fh.write(".")
            time.sleep(0.05)
            return real(buffer, config)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "detect_marks", slow_marks)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            with pytest.raises(KeyboardInterrupt):
                features_of_files(mixed_pass)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(counted_forks) == pipeline._usable_cpus() - 1
        assert_no_child_left()
        # the child was killed before it finished its share
        assert len(calls.read_text()) < len(mixed_pass[1::2])


# 2 speakers x 5 vowels x (4 train + 1 test): MIN_FILES_PER_WORKER utterances
# for each of three processes
CORPUS = {"n_speakers": 2, "train_per_vowel": 4, "test_per_vowel": 1, "seed": 7}
CORPUS_ARGS = ["--speakers", "2", "--train", "4", "--test", "1", "--seed", "7"]
# the second utterance in plan order, in the child's share of a two-process write
KILLED_UTTERANCE = "s01_a_train01.txt"
# the file _write_recording_its_process appends "pid name" lines to
WRITE_LOG = None


def corpus_on(cpus, directory, monkeypatch):
    """make_synthetic_corpus(directory, **CORPUS) with `cpus` usable CPUs."""
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        return make_synthetic_corpus(directory, **CORPUS)


def corpus_bytes(directory):
    """name -> bytes of each file in a corpus directory, the manifest included."""
    return {path.name: path.read_bytes() for path in directory.iterdir() if path.is_file()}


def _write_killing_its_worker(buffer, path):
    """write_text_samples, except that the child handed KILLED_UTTERANCE dies
    as one the OOM killer ends does."""
    if os.path.basename(path) == KILLED_UTTERANCE:
        assert multiprocessing.parent_process() is not None, "the test process would be killed"
        os.kill(os.getpid(), signal.SIGKILL)
    write_text_samples(buffer, path)


def _write_recording_its_process(buffer, path):
    """write_text_samples, after appending which process wrote the file to WRITE_LOG."""
    with open(WRITE_LOG, "a") as fh:
        fh.write(f"{os.getpid()} {os.path.basename(path)}\n")
    write_text_samples(buffer, path)


class TestCorpusWorkers:
    """make_synthetic_corpus writes its utterances in the shares of
    split_across_processes: by stride between this process and one forked
    child per other usable CPU, two being assumed."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def solo(self, tmp_path, monkeypatch):
        """(utterance names in plan order, corpus_bytes) of the corpus written by this process alone."""
        _, entries = corpus_on(1, tmp_path / "solo", monkeypatch)
        return [os.path.basename(e.path) for e in entries], corpus_bytes(tmp_path / "solo")

    def test_every_split_writes_the_same_bytes(self, solo, tmp_path, monkeypatch, counted_forks):
        names, expected = solo
        assert len(names) == 3 * MIN_FILES_PER_WORKER + 2 and len(expected) == len(names) + 1
        for cpus, forks in ((1, 0), (2, 1), (3, 3)):
            corpus_on(cpus, tmp_path / str(cpus), monkeypatch)
            assert len(counted_forks) == forks
            assert_no_child_left()
            assert corpus_bytes(tmp_path / str(cpus)) == expected

    def test_caller_writes_the_first_stride(self, tmp_path, monkeypatch, counted_forks):
        monkeypatch.setitem(globals(), "WRITE_LOG", tmp_path / "written.log")
        monkeypatch.setattr(evaluation, "write_text_samples", _write_recording_its_process)
        _, entries = make_synthetic_corpus(tmp_path / "corpus", **CORPUS)
        assert_no_child_left()
        (child,) = counted_forks
        by_process = {os.getpid(): [], child: []}
        for line in WRITE_LOG.read_text().splitlines():
            pid, name = line.split(" ", 1)
            by_process[int(pid)].append(name)
        names = [os.path.basename(e.path) for e in entries]
        assert by_process[os.getpid()] == names[0::2]
        assert by_process[child] == names[1::2]

    def test_small_corpus_or_threaded_caller_starts_no_process(self, solo, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("the corpus writer forked")

        monkeypatch.setattr(os, "fork", no_fork)
        # 2 x 5 x (2 + 1) utterances: fewer than MIN_FILES_PER_WORKER for each of two processes
        _, entries = make_synthetic_corpus(tmp_path / "small", **{**CORPUS, "train_per_vowel": 2})
        assert len(entries) < 2 * MIN_FILES_PER_WORKER
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            make_synthetic_corpus(tmp_path / "threaded", **CORPUS)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert corpus_bytes(tmp_path / "threaded") == solo[1]

    # plan positions made directories: even ones are in this process's share, odd ones in the child's
    @pytest.mark.parametrize("blocked", [[1], [2], [3, 4], [4, 7]],
                             ids=["child", "caller", "child-first", "caller-first"])
    def test_failed_write_raises_as_in_process(self, blocked, solo, tmp_path, monkeypatch, counted_forks):
        names, _ = solo
        directory = tmp_path / "corpus"
        directory.mkdir()
        for i in blocked:
            (directory / names[i]).mkdir()
        raised = []
        for cpus in (1, 2):
            with pytest.raises(OSError) as exc:
                corpus_on(cpus, directory, monkeypatch)
            raised.append((type(exc.value), str(exc.value)))
            assert not (directory / "manifest.csv").exists()
        assert len(counted_forks) == 1
        assert_no_child_left()
        assert raised[1] == raised[0]
        assert raised[0][0] is IsADirectoryError and names[blocked[0]] in raised[0][1]

    def test_dead_worker_is_a_data_error(self, tmp_path, monkeypatch, counted_forks, capsys):
        monkeypatch.setattr(evaluation, "write_text_samples", _write_killing_its_worker)
        with pytest.raises(ChildProcessError, match="a worker process died"):
            make_synthetic_corpus(tmp_path / "corpus", **CORPUS)
        assert len(counted_forks) == 1
        assert_no_child_left()
        assert not (tmp_path / "corpus" / "manifest.csv").exists()
        assert cli.main(["synth", "corpus", "--out", str(tmp_path / "cli"), *CORPUS_ARGS]) == 2
        assert capsys.readouterr().err.endswith("error: a worker process died before the pass finished\n")
        assert len(counted_forks) == 2
        assert_no_child_left()

    def test_workers_leave_ctrl_c_to_the_parent(self, solo, tmp_path, monkeypatch, counted_forks):
        real = evaluation.synth_vowel
        parent = os.getpid()

        def ctrl_c_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "synth_vowel", ctrl_c_in_worker)
        try:
            make_synthetic_corpus(tmp_path / "corpus", **CORPUS)
        except KeyboardInterrupt:
            pytest.fail("a worker's Ctrl-C ended the corpus write")
        assert len(counted_forks) == 1
        assert_no_child_left()
        assert corpus_bytes(tmp_path / "corpus") == solo[1]
