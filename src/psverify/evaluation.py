"""Batch evaluation over a labeled manifest, and the labeled synthetic
corpus that stands in for the (unavailable) human one.

Reporting follows the reference layout: one row per system
(cepstral-only, temporal-only, combined) and one row per vowel for the
combined system, with accuracy computed on accepted trials.
"""

import csv
import io
import logging
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from . import synth
from .decision import DistanceWeights, agreed_speaker, score_against_models
from .features import VOWELS
from .modeling import ModelSet, build_model, speaker_id_error
from .pipeline import PipelineConfig, features_of_files, split_across_processes
from .signal_io import DEFAULT_SAMPLE_RATE_HZ, read_utf8_text, write_text_samples
from .synth import synth_vowel

log = logging.getLogger(__name__)

SYSTEM_CEPSTRAL = "cepstral"
SYSTEM_TEMPORAL = "temporal"
SYSTEM_COMBINED = "combined"
MANIFEST_COLUMNS = ("path", "speaker_id", "vowel", "split")

# the acceptance suite reads the table here
VOWEL_FORMANTS = synth.VOWEL_FORMANTS


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    speaker_id: str
    vowel: str
    split: str

    def __post_init__(self):
        if error := speaker_id_error(self.speaker_id):
            raise ValueError(error)
        if self.vowel not in VOWELS:
            raise ValueError(f"unknown vowel {self.vowel!r}")
        if self.split not in ("train", "test"):
            raise ValueError(f"unknown split {self.split!r}")


@dataclass(frozen=True)
class UtteranceOutcome:
    """Per-test-utterance picks of the two single systems."""

    path: str
    speaker_id: str
    vowel: str
    cepstral_pick: str
    temporal_pick: str

    @property
    def combined_pick(self) -> str | None:
        return agreed_speaker(self.cepstral_pick, self.temporal_pick)


@dataclass(frozen=True)
class SystemCounts:
    """Trial counts of one system; `vowel` is None when all vowels are counted."""

    total: int
    accepted: int
    correct: int
    vowel: str | None = None

    @property
    def wrong(self) -> int:
        return self.accepted - self.correct

    @property
    def rejected(self) -> int:
        return self.total - self.accepted

    @property
    def accuracy(self) -> float | None:
        """Fraction correct among accepted trials; None when nothing accepted."""
        if self.accepted == 0:
            return None
        return self.correct / self.accepted


@dataclass(frozen=True)
class EvalReport:
    """The system rows, the per-vowel combined rows, every scored outcome,
    and one (path, reason) pair per test entry that failed the pipeline."""

    systems: dict
    vowel_rows: tuple
    outcomes: tuple
    failed: tuple


def _tally(outcomes, pick, vowel=None) -> SystemCounts:
    """Count one system's trials; pick(outcome) is its speaker, None if rejected."""
    picks = [(pick(o), o.speaker_id) for o in outcomes]
    accepted = sum(1 for p, _ in picks if p is not None)
    return SystemCounts(len(picks), accepted, sum(1 for p, true in picks if p == true), vowel)


def aggregate_outcomes(outcomes, failed=()) -> EvalReport:
    """Fold per-utterance outcomes into the two report tables; the systems
    dict's order is the order in which reports list them."""
    outcomes = tuple(outcomes)
    combined = attrgetter("combined_pick")
    systems = {
        SYSTEM_CEPSTRAL: _tally(outcomes, attrgetter("cepstral_pick")),
        SYSTEM_TEMPORAL: _tally(outcomes, attrgetter("temporal_pick")),
        SYSTEM_COMBINED: _tally(outcomes, combined),
    }
    rows = tuple(
        _tally([o for o in outcomes if o.vowel == vowel], combined, vowel)
        for vowel in sorted({o.vowel for o in outcomes})
    )
    return EvalReport(systems, rows, outcomes, tuple(failed))


# ---------------------------------------------------------------------------
# synthetic corpus

def make_synthetic_corpus(
    out_dir,
    n_speakers: int = 10,
    train_per_vowel: int = 20,
    test_per_vowel: int = 5,
    seed: int = 12345,
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ,
    duration_s: float = 0.35,
    silence_pad_s: float = 0.04,
):
    """Write a deterministic labeled corpus of text-sample files: every
    utterance of `synth.corpus_plan`, drawn and checked before the directory
    is made, then the manifest. The files are the same however
    `split_across_processes` shares them out. Synthesis and writing are
    looked up on this module, so a wrapper set on it sees every call.
    Returns (manifest_path, entries), the entries with their paths under
    `out_dir`, as `load_manifest(manifest_path)` reads them."""
    plan = synth.corpus_plan(n_speakers, train_per_vowel, test_per_vowel, seed,
                             sample_rate_hz, duration_s, silence_pad_s)
    entries = [ManifestEntry(f"s{u.speaker + 1:02d}_{u.vowel}_{u.split}{u.take:02d}.txt",
                             f"s{u.speaker + 1:02d}", u.vowel, u.split) for u in plan]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(entry, utterance) -> Exception | None:
        """None once the utterance is written, or the exception its write raised."""
        try:
            buffer = synth_vowel(utterance.f0_hz, utterance.formants, duration_s, sample_rate_hz,
                                 seed=utterance.seed, silence_pad_s=silence_pad_s)
            write_text_samples(buffer, out_dir / entry.path)
        except Exception as exc:  # raised below, unless an earlier utterance failed
            return exc
        return None

    for failure in split_across_processes(lambda part: [write(*pair) for pair in part], [*zip(entries, plan)]):
        if failure is not None:  # the earliest in plan order, as writing one by one would raise
            raise failure
    manifest_path = out_dir / "manifest.csv"
    write_manifest(entries, manifest_path)
    return manifest_path, [replace(entry, path=str(out_dir / entry.path)) for entry in entries]


# ---------------------------------------------------------------------------
# manifest I/O

def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(entries, path) -> None:
    _write_csv(path, MANIFEST_COLUMNS, ([getattr(e, column) for column in MANIFEST_COLUMNS] for e in entries))


def load_manifest(path) -> list[ManifestEntry]:
    """Read the UTF-8 CSV manifest; relative paths resolve against its
    directory. A malformed row is a ValueError that names the path and line."""
    path = Path(path)
    reader = csv.DictReader(io.StringIO(read_utf8_text(path), newline=""))
    entries = []
    try:
        if not set(MANIFEST_COLUMNS).issubset(reader.fieldnames or ()):
            raise ValueError(f"manifest needs columns {sorted(MANIFEST_COLUMNS)}")
        for row in reader:
            if None in row:  # DictReader's key for the cells past the header's
                header = len(reader.fieldnames)
                raise ValueError(f"{header + len(row[None])} cells, the header has {header}")
            cells = [row[column] for column in MANIFEST_COLUMNS]
            if None in cells:  # the row ended early
                raise ValueError(f"no {MANIFEST_COLUMNS[cells.index(None)]} cell")
            if not cells[0]:
                raise ValueError("empty path")
            entries.append(ManifestEntry(str(path.parent / cells[0]), *cells[1:]))
    except (ValueError, csv.Error) as exc:
        # the inner reader's count: DictReader updates its own only once a row parses
        raise ValueError(f"{path}: line {reader.reader.line_num or 1}: {exc}") from None
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries


# ---------------------------------------------------------------------------
# batch runs

def _features_of(entries, config: PipelineConfig, failed: list) -> list:
    """Features of each entry, or None for a file the pipeline refuses; each
    refusal is logged and listed in `failed` as (path, reason), all at once."""
    results = features_of_files([(e.path, e.vowel) for e in entries], config)
    for i, (entry, result) in enumerate(zip(entries, results)):
        if isinstance(result, Exception):
            # loader errors start with the path and an OSError's text quotes it
            detail = result.strerror if isinstance(result, OSError) and result.strerror else str(result)
            reason = f"{entry.path}: {detail.removeprefix(f'{entry.path}: ')}"
            log.warning("skipping %s", reason)
            failed.append((entry.path, reason))
            results[i] = None
    return results


def run_training(
    entries, config: PipelineConfig = PipelineConfig(), failed: list | None = None
) -> ModelSet:
    """Full pipeline on every train entry, then one model per (speaker, vowel).

    Individual file failures are logged, skipped and, when `failed` is a
    list, appended to it as (path, reason); a (speaker, vowel) group with
    no surviving utterance aborts training.
    """
    failed = [] if failed is None else failed
    key = attrgetter("speaker_id", "vowel")
    # stable: each group keeps its entries in manifest order
    train = sorted((entry for entry in entries if entry.split == "train"), key=key)
    if not train:
        raise ValueError("manifest has no train entries")
    model_set = ModelSet()
    pairs = zip(train, _features_of(train, config, failed))
    for (sid, vowel), group in groupby(pairs, lambda pair: key(pair[0])):
        features = [f for _, f in group if f is not None]
        if not features:
            raise ValueError(f"no usable training utterances for ({sid}, {vowel})")
        model_set.add(build_model(sid, vowel, features))
    return model_set


def run_evaluation(
    entries,
    model_set: ModelSet,
    config: PipelineConfig = PipelineConfig(),
    weights: DistanceWeights | None = None,
) -> EvalReport:
    """Score every test entry against the models and aggregate the report.

    Files that fail the pipeline are logged, left out of the totals and
    listed in the report's `failed`; a pass in which all fail is refused.
    """
    tests = [e for e in entries if e.split == "test"]
    if not tests:
        raise ValueError("manifest has no test entries")
    missing = sorted(v for v in {e.vowel for e in tests} if not model_set.table(v)[0])
    if missing:
        raise ValueError(f"no models for vowels: {', '.join(missing)}")
    outcomes = []
    failed = []
    for entry, features in zip(tests, _features_of(tests, config, failed)):
        if features is None:
            continue
        report = score_against_models(features, model_set, weights)
        outcomes.append(
            UtteranceOutcome(
                entry.path, entry.speaker_id, entry.vowel,
                report.argmin_cepstral, report.argmin_temporal,
            )
        )
    if not outcomes:
        raise ValueError(f"no test file could be scored: failed {len(failed)} of {len(tests)} test files")
    return aggregate_outcomes(outcomes, failed)


# ---------------------------------------------------------------------------
# report rendering

def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}"


def format_report(report: EvalReport) -> str:
    lines = ["System comparison:"]
    header = f"{'system':<10} {'total':>6} {'accepted':>9} {'correct':>8} {'wrong':>6} {'rejected':>9} {'accuracy%':>10}"
    lines.append(header)
    for name, s in report.systems.items():
        lines.append(
            f"{name:<10} {s.total:>6} {s.accepted:>9} {s.correct:>8} {s.wrong:>6} "
            f"{s.rejected:>9} {_pct(s.accuracy):>10}"
        )
    lines.append("")
    lines.append("Per-vowel (combined system):")
    lines.append(
        f"{'vowel':<6} {'total':>6} {'rejected':>9} {'correct':>8} {'wrong':>6} {'accuracy%':>10}"
    )
    for row in report.vowel_rows:
        lines.append(
            f"{row.vowel:<6} {row.total:>6} {row.rejected:>9} {row.correct:>8} "
            f"{row.wrong:>6} {_pct(row.accuracy):>10}"
        )
    if report.failed:
        n_failed = len(report.failed)
        total = report.systems[SYSTEM_COMBINED].total + n_failed
        lines.extend(["", f"failed: {n_failed} of {total} test files"])
    return "\n".join(lines)


def write_report_csv(report: EvalReport, out_dir) -> None:
    """systems.csv, vowels.csv and outcomes.csv under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "systems.csv",
               ["system", "total", "accepted", "correct", "wrong", "rejected", "accuracy_pct"],
               ([name, s.total, s.accepted, s.correct, s.wrong, s.rejected,
                 "" if s.accuracy is None else repr(100.0 * s.accuracy)] for name, s in report.systems.items()))
    _write_csv(out_dir / "vowels.csv",
               ["vowel", "total", "rejected", "correct", "wrong", "accuracy_on_accepted_pct"],
               ([r.vowel, r.total, r.rejected, r.correct, r.wrong,
                 "" if r.accuracy is None else repr(100.0 * r.accuracy)] for r in report.vowel_rows))
    _write_csv(out_dir / "outcomes.csv",
               ["path", "speaker_id", "vowel", "cepstral_pick", "temporal_pick", "combined"],
               ([o.path, o.speaker_id, o.vowel, o.cepstral_pick, o.temporal_pick,
                 "rejected" if o.combined_pick is None else o.combined_pick] for o in report.outcomes))
