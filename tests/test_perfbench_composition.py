"""The benchmark's own composition of the stages runs and agrees with psverify.

`perfbench/workloads.py` is imported, not edited, and its helpers are run on
small corpora: the stage-by-stage feature path (which reads
`PipelineConfig.period_bounds` and each `HalfPeak.polarity` while iterating
`HalfPeaks`), the model-file round trip, the brute-force reference tables
(which walk `ModelSet.models.items()`) and the distractor population (built
through `ModelSet.for_vowel`). `test_perfbench_names.py` checks only that the
names the workloads read exist.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from psverify import decision, modeling
from psverify.features import VOWELS
from psverify.pipeline import utterance_features_from_file

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, tracing


def test_traced_features_equal_the_pipeline_bit_for_bit(perfbench, small_corpus, config):
    workloads, tracing = perfbench
    _, entries = small_corpus
    counts = Counter()
    for entry in entries:
        traced = workloads.traced_features(tracing.Tracer(), entry.path, entry.vowel, counts)
        plain = utterance_features_from_file(entry.path, entry.vowel, config)
        assert traced.vector.tobytes() == plain.vector.tobytes(), entry.path
    assert 0 < counts["chosen_halves"] < counts["halves"]
    assert 0 < counts["marks"] <= counts["chosen_halves"]


def test_model_round_trip_and_reference_tables(perfbench, small_models, small_corpus, config, tmp_path):
    workloads, _ = perfbench
    path = tmp_path / "models.txt"
    modeling.save_models(small_models, path)
    loaded = modeling.load_models(path)
    assert workloads.round_trip_error(small_models, loaded) == 0.0
    tables = workloads.brute_tables(loaded)
    assert set(tables) == set(VOWELS)
    for entry in small_corpus[1]:
        if entry.split == "test":
            feats = utterance_features_from_file(entry.path, entry.vowel, config)
            report = decision.score_against_models(feats, loaded)
            assert workloads.brute_picks(tables, entry.vowel, feats.vector) == (
                report.argmin_cepstral, report.argmin_temporal)
            assert tables[entry.vowel][0] == list(report.ids)


def test_enrolled_population_adds_distractors_per_vowel(perfbench, tmp_path):
    workloads, _ = perfbench
    ctx = workloads.Context(PERFBENCH, seed=1, seconds=1.0, work=tmp_path, trace=False)
    population, tests = workloads.enrolled_population(ctx, 12)
    assert len(population.speakers()) == 12 and len(tests) == 50
    tables = workloads.brute_tables(population)
    assert {vowel: matrix.shape for vowel, (_, matrix) in tables.items()} == {v: (12, 16) for v in VOWELS}
