"""The answers of a small synthetic study, pinned in answers.json.

The study is a 150-file corpus (10 speakers x 5 vowels x 2 train + 1 test,
seed 7). For it the file holds the corpus digest; for each file its 16
feature values as `float.hex`, its mark count and its steady-state region
(index of the first period, number of periods), or the stage and message
it failed with; and the evaluation report's text and three CSVs, with the
corpus directory cut from every path. Rewrite it, after a change that moves
an answer on purpose, with

    PYTHONPATH=src python tests/golden/write_answers.py

`tests/test_golden.py` recomputes the record with `answers` and compares.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from psverify import evaluation, features, pipeline
from psverify.pitch import periods_from_marks

CORPUS = {"n_speakers": 10, "train_per_vowel": 2, "test_per_vowel": 1, "seed": 7}
ANSWERS = Path(__file__).with_name("answers.json")
REPORT_CSVS = ("systems.csv", "vowels.csv", "outcomes.csv")


def corpus_digest(root: Path) -> str:
    """sha256 over each file's name and the sha256 of its bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def file_answer(path: str, result, config: pipeline.PipelineConfig) -> dict:
    """One file's answer, from its `features_of_files` result."""
    if isinstance(result, Exception):
        return {"stage": result.stage, "message": str(result)}
    buffer = pipeline.preprocess_signal(pipeline.load_signal(path, config))
    marks = pipeline.detect_marks(buffer, config)
    periods = periods_from_marks(marks)
    region = features.select_steady_state(buffer, periods)
    return {
        "vector": [float(v).hex() for v in result.vector],
        "marks": len(marks.mark_indices),
        "region": [int(np.searchsorted(periods[:, 0], region[0, 0])), len(region)],
    }


def answers() -> dict:
    """The study's answers, computed afresh in a temporary directory."""
    config = pipeline.PipelineConfig()
    with tempfile.TemporaryDirectory() as scratch:
        corpus, report_dir = Path(scratch) / "corpus", Path(scratch) / "report"
        _, entries = evaluation.make_synthetic_corpus(corpus, **CORPUS)
        digest = corpus_digest(corpus)
        results = pipeline.features_of_files([(e.path, e.vowel) for e in entries], config)
        files = {Path(e.path).name: file_answer(e.path, result, config) for e, result in zip(entries, results)}
        report = evaluation.run_evaluation(entries, evaluation.run_training(entries, config), config)
        evaluation.write_report_csv(report, report_dir)
        texts = {"text": evaluation.format_report(report)}
        texts.update((name, (report_dir / name).read_bytes().decode("utf-8")) for name in REPORT_CSVS)

        def relative(text: str) -> str:
            return text.replace(f"{corpus}{os.sep}", "")

        for answer in files.values():
            if "message" in answer:
                answer["message"] = relative(answer["message"])
        return {
            "corpus": CORPUS,
            "corpus_sha256": digest,
            "files": files,
            "report": {name: relative(text) for name, text in texts.items()},
        }


def main() -> None:
    ANSWERS.write_text(json.dumps(answers(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {ANSWERS}")


if __name__ == "__main__":
    main()
