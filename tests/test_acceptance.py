"""Acceptance criteria, one test per criterion, each printing a
[ACCEPTANCE n] PASS/FAIL line (visible with pytest -s)."""

import time

import numpy as np
import pytest
from scipy.signal import lfilter

from helpers import (
    brute_argmin,
    brute_extrema,
    random_stable_predictor,
    spectral_cepstra,
    toeplitz_lpc,
)
from psverify.decision import DistanceReport, identify_combined, score_against_models
from psverify.evaluation import (
    VOWEL_FORMANTS,
    UtteranceOutcome,
    aggregate_outcomes,
    load_manifest,
    make_synthetic_corpus,
    run_evaluation,
    run_training,
    synth_vowel,
)
from psverify.features import autocorrelation, count_extrema, levinson_durbin, lpc_to_cepstral
from psverify.modeling import load_models, save_models
from psverify.pipeline import (
    detect_marks,
    load_signal,
    preprocess_signal,
    utterance_features_from_file,
)
from psverify.signal_io import SampleBuffer, write_text_samples
from test_modeling import random_model_set


def check(criterion, ok, detail):
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def study(tmp_path_factory, config):
    """Criterion 7's deterministic 10-speaker study, timed end to end."""
    root = tmp_path_factory.mktemp("acceptance_corpus")
    t0 = time.perf_counter()
    manifest_path, _ = make_synthetic_corpus(
        root, n_speakers=10, train_per_vowel=20, test_per_vowel=5, seed=20260810
    )
    entries = load_manifest(manifest_path)
    t_gen = time.perf_counter()
    models = run_training(entries, config)
    t_train = time.perf_counter()
    report = run_evaluation(entries, models, config)
    t_eval = time.perf_counter()
    return {
        "entries": entries,
        "models": models,
        "report": report,
        "seconds": t_eval - t0,
        "phases": (t_gen - t0, t_train - t_gen, t_eval - t_train),
    }


def test_criterion_1_report_arithmetic():
    """Feeding outcomes with Table 2's per-vowel counts reproduces Table 1's
    combined row and the per-vowel accuracy percentages."""
    table2 = {  # vowel: (total, rejected, correct, wrong)
        "a": (100, 77, 17, 6),
        "e": (100, 66, 33, 1),
        "o": (100, 77, 19, 4),
        "u": (100, 79, 21, 0),
        "i": (100, 67, 32, 1),
    }
    outcomes = []
    for vowel, (total, rejected, correct, wrong) in table2.items():
        outcomes += [UtteranceOutcome("f", "sA", vowel, "sA", "sA")] * correct
        outcomes += [UtteranceOutcome("f", "sA", vowel, "sB", "sB")] * wrong
        outcomes += [UtteranceOutcome("f", "sA", vowel, "sB", "sC")] * rejected
        assert correct + wrong + rejected == total
    report = aggregate_outcomes(outcomes)
    combined = report.systems["combined"]
    expected_vowel_pct = {"a": 73.91, "e": 97.05, "i": 96.97, "o": 82.60, "u": 100.0}
    ok = (
        combined.total == 500
        and combined.accepted == 134
        and combined.correct == 122
        and abs(100 * combined.accuracy - 91.04) <= 0.01
    )
    details = [f"combined 122/134 = {100 * combined.accuracy:.4f}%"]
    for row in report.vowel_rows:
        pct = 100 * row.accuracy
        ok = ok and abs(pct - expected_vowel_pct[row.vowel]) <= 0.01
        details.append(f"/{row.vowel}/ {pct:.2f}%")
    check(1, ok, "; ".join(details))


def test_criterion_2_pitch_accuracy(config):
    f0s = (80.0, 120.0, 160.0, 220.0, 300.0)
    warm = synth_vowel(120.0, VOWEL_FORMANTS["a"], 0.2, 16000, seed=0, silence_pad_s=0.05)
    detect_marks(preprocess_signal(warm, config), config)  # JIT warmup
    worst_hit = 1.0
    worst_time = 0.0
    for f0 in f0s:
        raw = synth_vowel(f0, VOWEL_FORMANTS["a"], 0.9, 16000, seed=8, silence_pad_s=0.05)
        assert len(raw) == 16000  # a 1-second utterance
        start = time.perf_counter()
        marks = detect_marks(preprocess_signal(raw, config), config)
        elapsed = time.perf_counter() - start
        true_period = round(16000 / f0)
        diffs = np.diff(marks.mark_indices)
        hit = float(np.mean(np.abs(diffs - true_period) <= 1))
        worst_hit = min(worst_hit, hit)
        worst_time = max(worst_time, elapsed)
    ok = worst_hit >= 0.95 and worst_time < 1.0
    check(2, ok, f"worst within-1-sample rate {worst_hit:.3f}, worst time {worst_time * 1e3:.0f} ms")


def test_criterion_3_levinson_oracle():
    rng = np.random.default_rng(33)
    worst_rel = 0.0
    for trial in range(100):
        noise = rng.normal(0, 1, 260)
        pole = rng.uniform(-0.85, 0.85)
        x = lfilter([1.0], [1.0, -pole], noise)
        r = autocorrelation(x, 12)
        a, _, err = levinson_durbin(r, 12)
        expected = toeplitz_lpc(r, 12)
        rel = np.linalg.norm(a - expected) / np.linalg.norm(expected)
        worst_rel = max(worst_rel, rel)
        assert np.all(err > 0) and np.all(np.diff(err) <= 0)
    check(3, worst_rel <= 1e-9, f"100 trials, worst relative error {worst_rel:.2e}")


def test_criterion_4_cepstral_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(25):
        a = random_stable_predictor(rng)
        diff = np.abs(lpc_to_cepstral(a).c - spectral_cepstra(a, 12))
        worst = max(worst, float(diff.max()))
    check(4, worst <= 1e-6, f"25 predictors, worst coefficient error {worst:.2e}")


def test_criterion_5_extrema_oracle():
    rng = np.random.default_rng(55)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(3, 501))
        if rng.random() < 0.5:
            x = rng.integers(-5, 6, n).astype(np.float64)
        else:
            x = rng.normal(0, 1, n)
        buffer = SampleBuffer(x if np.any(x) else x + 1.0, 16000)
        if count_extrema(buffer, (0, n)) != brute_extrema(buffer.samples):
            mismatches += 1
    check(5, mismatches == 0, f"1000 sequences, {mismatches} mismatches")


def test_criterion_6_fusion_logic():
    rng = np.random.default_rng(66)
    trials = 0
    for n_speakers in (2, 3, 4):
        sids = [f"s{i}" for i in range(n_speakers)]
        # exhaustive tie-heavy grid
        grid = (0.0, 1.0) if n_speakers == 4 else (0.0, 1.0, 2.0)
        combos = np.stack(np.meshgrid(*[grid] * (2 * n_speakers)), axis=-1)
        for row in combos.reshape(-1, 2 * n_speakers):
            cep = dict(zip(sids, row[:n_speakers]))
            tem = dict(zip(sids, row[n_speakers:]))
            outcome = identify_combined(
                DistanceReport(cep, tem, brute_argmin(cep), brute_argmin(tem))
            )
            agree = brute_argmin(cep) == brute_argmin(tem)
            assert outcome.accepted == agree
            if agree:
                assert outcome.speaker_id == brute_argmin(cep)
            trials += 1
        # random tables
        for _ in range(4000):
            cep = dict(zip(sids, rng.uniform(0, 2, n_speakers).round(1)))
            tem = dict(zip(sids, rng.uniform(0, 2, n_speakers).round(1)))
            outcome = identify_combined(
                DistanceReport(cep, tem, brute_argmin(cep), brute_argmin(tem))
            )
            assert outcome.accepted == (brute_argmin(cep) == brute_argmin(tem))
            trials += 1
    check(6, trials >= 10_000, f"{trials} distance tables, accepted iff argmins agree")


def test_criterion_7_end_to_end_study(study):
    report = study["report"]
    combined = report.systems["combined"]
    cepstral = report.systems["cepstral"]
    temporal = report.systems["temporal"]
    gen_s, train_s, eval_s = study["phases"]
    ok = (
        combined.total == 250
        and combined.accepted > 0
        and combined.accuracy >= cepstral.accuracy
        and combined.accuracy >= temporal.accuracy
        and study["seconds"] <= 120.0
    )
    check(
        7,
        ok,
        f"combined {100 * combined.accuracy:.2f}% (on {combined.accepted} accepted) >= "
        f"cepstral {100 * cepstral.accuracy:.2f}% >= temporal {100 * temporal.accuracy:.2f}%; "
        f"run {study['seconds']:.1f}s (gen {gen_s:.1f} train {train_s:.1f} eval {eval_s:.1f})",
    )


def test_criterion_8_determinism_and_round_trips(study, config, tmp_path):
    rng = np.random.default_rng(88)
    # model persistence round trip
    model_set = random_model_set(rng, 4)
    path = tmp_path / "models.txt"
    save_models(model_set, path)
    loaded = load_models(path)
    max_err = max(
        float(np.max(np.abs(loaded.models[k].mean_features - m.mean_features)))
        for k, m in model_set.models.items()
    )
    round_trip_ok = max_err <= 1e-9

    # repeated pipeline runs are bit-identical
    entry = next(e for e in study["entries"] if e.split == "test")
    first = utterance_features_from_file(entry.path, entry.vowel, config)
    second = utterance_features_from_file(entry.path, entry.vowel, config)
    repeat_ok = np.array_equal(first.vector, second.vector)

    # amplitude scaling leaves temporal features and argmin decisions alone
    buffer = load_signal(entry.path, config)
    scaled_path = tmp_path / "scaled.txt"
    write_text_samples(SampleBuffer(buffer.samples * 3.7, buffer.sample_rate_hz), scaled_path)
    scaled = utterance_features_from_file(scaled_path, entry.vowel, config)
    temporal_ok = np.array_equal(scaled.temporal.vector, first.temporal.vector)
    base_report = score_against_models(first, study["models"])
    scaled_report = score_against_models(scaled, study["models"])
    argmin_ok = (
        base_report.argmin_cepstral == scaled_report.argmin_cepstral
        and base_report.argmin_temporal == scaled_report.argmin_temporal
        and identify_combined(base_report) == identify_combined(scaled_report)
    )

    ok = round_trip_ok and repeat_ok and temporal_ok and argmin_ok
    check(
        8,
        ok,
        f"save/load max err {max_err:.1e}; repeat bit-identical {repeat_ok}; "
        f"scale-invariant temporal {temporal_ok}; scale-invariant argmins {argmin_ok}",
    )


def test_criterion_2_also_marks_scaled_buffers(config):
    # amplitude invariance of the marks themselves (part of criterion 8's spirit)
    raw = synth_vowel(150.0, VOWEL_FORMANTS["u"], 0.4, 16000, seed=12, silence_pad_s=0.05)
    pre = preprocess_signal(raw, config)
    marks = detect_marks(pre, config)
    scaled = detect_marks(SampleBuffer(pre.samples * 0.125, 16000), config)
    np.testing.assert_array_equal(marks.mark_indices, scaled.mark_indices)
