import pytest

from psverify import evaluation
from psverify.pipeline import PipelineConfig


@pytest.fixture(scope="session")
def config():
    return PipelineConfig()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """3 speakers x 5 vowels x (2 train + 1 test), deterministic."""
    root = tmp_path_factory.mktemp("corpus")
    return evaluation.make_synthetic_corpus(
        root, n_speakers=3, train_per_vowel=2, test_per_vowel=1, seed=7
    )


@pytest.fixture(scope="session")
def small_models(small_corpus, config):
    _, entries = small_corpus
    return evaluation.run_training(entries, config)
