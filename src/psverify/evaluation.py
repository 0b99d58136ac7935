"""Batch evaluation over a labeled manifest, plus the synthetic-vowel
fixtures that stand in for the (unavailable) human corpus.

Reporting follows the reference layout: one row per system
(cepstral-only, temporal-only, combined) and one row per vowel for the
combined system, with accuracy computed on accepted trials.
"""

import csv
import logging
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .decision import DistanceWeights, agreed_speaker, score_against_models
from .features import VOWELS
from .modeling import ModelSet, build_model
from .pipeline import PipelineConfig, features_of_files
from .signal_io import SampleBuffer, write_text_samples

log = logging.getLogger(__name__)

SYSTEM_CEPSTRAL = "cepstral"
SYSTEM_TEMPORAL = "temporal"
SYSTEM_COMBINED = "combined"

# average male formant targets (centre Hz, bandwidth Hz) per vowel
VOWEL_FORMANTS = {
    "a": ((730.0, 90.0), (1090.0, 110.0), (2440.0, 170.0)),
    "e": ((530.0, 60.0), (1840.0, 90.0), (2480.0, 200.0)),
    "i": ((270.0, 60.0), (2290.0, 90.0), (3010.0, 200.0)),
    "o": ((570.0, 60.0), (840.0, 80.0), (2410.0, 200.0)),
    "u": ((300.0, 60.0), (870.0, 80.0), (2240.0, 200.0)),
}


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    speaker_id: str
    vowel: str
    split: str

    def __post_init__(self):
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
    wrong: int
    rejected: int
    vowel: str | None = None

    def __post_init__(self):
        if self.correct + self.wrong != self.accepted:
            raise ValueError("correct + wrong must equal accepted")
        if self.accepted + self.rejected != self.total:
            raise ValueError("accepted + rejected must equal total")

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
    outcomes: tuple = field(default=())
    failed: tuple = field(default=())


def _tally(outcomes, pick, vowel=None) -> SystemCounts:
    """Count one system's trials; pick(outcome) is its speaker, None if rejected."""
    picks = [(pick(o), o.speaker_id) for o in outcomes]
    total = len(picks)
    accepted = sum(1 for p, _ in picks if p is not None)
    correct = sum(1 for p, true in picks if p == true)
    return SystemCounts(total, accepted, correct, accepted - correct, total - accepted, vowel)


def aggregate_outcomes(outcomes, failed=()) -> EvalReport:
    """Fold per-utterance outcomes into the two report tables."""
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
# synthetic fixtures

WARMUP_S = 0.1  # resonator lead-in synthesized and discarded
# largest relative shift of a corpus utterance's F0 and formants, drawn once per utterance
UTTERANCE_F0_SPREAD = 0.02
UTTERANCE_FORMANT_SPREAD = 0.03


def _check_sizes(duration_s: float, silence_pad_s: float) -> None:
    if not 0 < duration_s < np.inf:
        raise ValueError(f"duration_s must be finite and positive, got {duration_s}")
    if not 0 <= silence_pad_s < np.inf:
        raise ValueError(f"silence_pad_s must be finite and non-negative, got {silence_pad_s}")


def synth_vowel(
    f0_hz: float,
    formants,
    duration_s: float,
    sample_rate_hz: int = 16000,
    seed: int = 0,
    silence_pad_s: float = 0.0,
) -> SampleBuffer:
    """Steady-state synthetic vowel: an impulse train at period
    round(rate/f0) through up to three two-pole resonators.

    The resonators run for an extra lead-in that is cut off, so the emitted
    samples are already in the periodic steady state (the onset transient
    would not appear in a manually cut vowel segment either). The seed only
    moves the train onset inside the first period; the true source period
    stays exactly round(rate/f0) for oracle use. Optional zero-padding
    surrounds the voiced part with silence.
    """
    # imported here: scipy.signal alone takes most of a cold `import psverify.cli`
    from scipy.signal import lfilter

    _check_sizes(duration_s, silence_pad_s)
    if not 0 < f0_hz < sample_rate_hz / 2:
        raise ValueError(f"f0 {f0_hz} Hz out of range for rate {sample_rate_hz}")
    formants = tuple(formants)
    if len(formants) > 3:
        raise ValueError("at most three formants")
    for centre, bandwidth in formants:
        if not 0 < centre < sample_rate_hz / 2:
            raise ValueError(f"formant centre {centre} Hz beyond Nyquist")
        if not 0 < bandwidth < np.inf:
            raise ValueError(f"formant bandwidth must be finite and positive, got {bandwidth}")
    period = int(round(sample_rate_hz / f0_hz))
    n = int(round(duration_s * sample_rate_hz))
    warmup = int(round(WARMUP_S * sample_rate_hz))
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, period))
    source = np.zeros(warmup + n)
    source[offset::period] = 1.0
    out = source
    for centre, bandwidth in formants:
        r = np.exp(-np.pi * bandwidth / sample_rate_hz)
        theta = 2.0 * np.pi * centre / sample_rate_hz
        out = lfilter([1.0], [1.0, -2.0 * r * np.cos(theta), r * r], out)
    out = out[warmup:]
    if silence_pad_s > 0:
        pad = np.zeros(int(round(silence_pad_s * sample_rate_hz)))
        out = np.concatenate((pad, out, pad))
    return SampleBuffer(out, sample_rate_hz)


def make_synthetic_corpus(
    out_dir,
    n_speakers: int = 10,
    train_per_vowel: int = 20,
    test_per_vowel: int = 5,
    seed: int = 12345,
    sample_rate_hz: int = 16000,
    duration_s: float = 0.35,
    silence_pad_s: float = 0.04,
):
    """Write a deterministic labeled corpus of text-sample files.

    Each synthetic speaker gets a distinct fundamental and a vocal-tract
    scale applied to the vowel formant table; every utterance shifts both
    slightly so train and test samples differ. Returns (manifest_path,
    entries).
    """
    if n_speakers < 2:
        raise ValueError("need at least two speakers")
    if train_per_vowel < 1 or test_per_vowel < 0:
        raise ValueError("invalid utterance counts")
    _check_sizes(duration_s, silence_pad_s)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    f0s = np.linspace(95.0, 250.0, n_speakers) + rng.uniform(-2.0, 2.0, n_speakers)
    scales = np.linspace(0.88, 1.12, n_speakers)
    entries = []
    for s in range(n_speakers):
        sid = f"s{s + 1:02d}"
        for vowel in VOWELS:
            base = VOWEL_FORMANTS[vowel]
            for u in range(train_per_vowel + test_per_vowel):
                split = "train" if u < train_per_vowel else "test"
                f0 = f0s[s] * (1.0 + rng.uniform(-UTTERANCE_F0_SPREAD, UTTERANCE_F0_SPREAD))
                formants = tuple(
                    (centre * scales[s]
                     * (1.0 + rng.uniform(-UTTERANCE_FORMANT_SPREAD, UTTERANCE_FORMANT_SPREAD)), bw)
                    for centre, bw in base
                )
                utt_seed = int(rng.integers(0, 2**31))
                buffer = synth_vowel(
                    f0, formants, duration_s, sample_rate_hz,
                    seed=utt_seed, silence_pad_s=silence_pad_s,
                )
                name = f"{sid}_{vowel}_{split}{u:02d}.txt"
                write_text_samples(buffer, out_dir / name)
                entries.append(ManifestEntry(name, sid, vowel, split))
    manifest_path = out_dir / "manifest.csv"
    write_manifest(entries, manifest_path)
    return manifest_path, entries


# ---------------------------------------------------------------------------
# manifest I/O

def write_manifest(entries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "speaker_id", "vowel", "split"])
        for e in entries:
            writer.writerow([e.path, e.speaker_id, e.vowel, e.split])


def load_manifest(path) -> list[ManifestEntry]:
    """Read the CSV manifest; relative paths resolve against its directory."""
    path = Path(path)
    entries = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"path", "speaker_id", "vowel", "split"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: manifest needs columns {sorted(required)}")
        for lineno, row in enumerate(reader, 2):
            try:
                entry = ManifestEntry(
                    str(path.parent / row["path"]),
                    row["speaker_id"],
                    row["vowel"],
                    row["split"],
                )
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            entries.append(entry)
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries


# ---------------------------------------------------------------------------
# batch runs

def _features_of(entries, config: PipelineConfig, failed: list):
    """Features of each entry, or None for a file the pipeline refuses,
    which is logged and recorded in `failed` as (path, reason) on its turn."""
    for entry, result in zip(entries, features_of_files([(e.path, e.vowel) for e in entries], config)):
        if isinstance(result, Exception):
            # loader errors start with the path and an OSError's text quotes it
            detail = result.strerror if isinstance(result, OSError) and result.strerror else str(result)
            reason = f"{entry.path}: {detail.removeprefix(f'{entry.path}: ')}"
            log.warning("skipping %s", reason)
            failed.append((entry.path, reason))
            result = None
        yield result


def run_training(
    entries, config: PipelineConfig = PipelineConfig(), failed: list | None = None
) -> ModelSet:
    """Full pipeline on every train entry, then one model per (speaker, vowel).

    Individual file failures are logged, skipped and, when `failed` is a
    list, appended to it as (path, reason); a (speaker, vowel) group with
    no surviving utterance aborts training.
    """
    failed = [] if failed is None else failed
    groups = {}
    for entry in entries:
        if entry.split != "train":
            continue
        groups.setdefault((entry.speaker_id, entry.vowel), []).append(entry)
    if not groups:
        raise ValueError("manifest has no train entries")
    groups = sorted(groups.items())
    results = _features_of([entry for _, group in groups for entry in group], config, failed)
    model_set = ModelSet()
    for (sid, vowel), group in groups:
        # zip stops at the group's end, so it takes exactly the group's results
        features = [f for _, f in zip(group, results) if f is not None]
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
    listed in the report's `failed`.
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
    return aggregate_outcomes(outcomes, failed)


# ---------------------------------------------------------------------------
# report rendering

def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}"


def format_report(report: EvalReport) -> str:
    lines = ["System comparison:"]
    header = f"{'system':<10} {'total':>6} {'accepted':>9} {'correct':>8} {'wrong':>6} {'rejected':>9} {'accuracy%':>10}"
    lines.append(header)
    for name in (SYSTEM_CEPSTRAL, SYSTEM_TEMPORAL, SYSTEM_COMBINED):
        s = report.systems[name]
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
    with open(out_dir / "systems.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system", "total", "accepted", "correct", "wrong", "rejected", "accuracy_pct"])
        for name in (SYSTEM_CEPSTRAL, SYSTEM_TEMPORAL, SYSTEM_COMBINED):
            s = report.systems[name]
            acc = "" if s.accuracy is None else repr(100.0 * s.accuracy)
            writer.writerow([name, s.total, s.accepted, s.correct, s.wrong, s.rejected, acc])
    with open(out_dir / "vowels.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vowel", "total", "rejected", "correct", "wrong", "accuracy_on_accepted_pct"])
        for row in report.vowel_rows:
            acc = "" if row.accuracy is None else repr(100.0 * row.accuracy)
            writer.writerow([row.vowel, row.total, row.rejected, row.correct, row.wrong, acc])
    with open(out_dir / "outcomes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "speaker_id", "vowel", "cepstral_pick", "temporal_pick", "combined"])
        for o in report.outcomes:
            combined = "rejected" if o.combined_pick is None else o.combined_pick
            writer.writerow([o.path, o.speaker_id, o.vowel, o.cepstral_pick, o.temporal_pick, combined])
