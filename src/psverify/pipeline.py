"""End-to-end pipeline: load, preprocess, mark, extract."""

import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import features, preprocess, signal_io
from .features import CepstralVector, UtteranceFeatures
from .pitch import (
    PitchMarks,
    choose_polarity,
    compute_stats,
    extract_half_peaks,
    mark_pitch_periods,
    periods_from_marks,
)
from .signal_io import SampleBuffer


class PipelineError(ValueError):
    """A ValueError of one stage, named in `stage`: load, preprocess, marks or features."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig:
    """Numeric knobs of the pipeline; defaults follow the reference setup."""

    sample_rate_hz: int = 16000
    frame_len: int = 100
    frame_shift: int = 50
    silence_multiplier: float = 1.10
    normalization_target: float = 10000.0
    silence_frames: int = 10
    min_f0_hz: float = 50.0
    max_f0_hz: float = 500.0

    def __post_init__(self):
        for field in fields(self):
            if not 0 < getattr(self, field.name) < math.inf:
                raise ValueError(f"{field.name} must be finite and positive")
        if self.frame_shift > self.frame_len:
            raise ValueError(f"need frame_shift <= frame_len, got {self.frame_shift}/{self.frame_len}")
        if not 1e-100 <= self.normalization_target <= 1e100:
            # the frame energies square the samples: far past this range they overflow or underflow
            raise ValueError(
                f"normalization_target must be within [1e-100, 1e100], got {self.normalization_target:g}"
            )
        if self.min_f0_hz >= self.max_f0_hz:
            raise ValueError("need min_f0_hz < max_f0_hz")

    def period_bounds(self, sample_rate_hz: int) -> tuple[int, int]:
        min_period = max(2, math.floor(sample_rate_hz / self.max_f0_hz))
        max_period = math.ceil(sample_rate_hz / self.min_f0_hz)
        return min_period, max_period


def load_signal(path, config: PipelineConfig = PipelineConfig()) -> SampleBuffer:
    """Dispatch on extension: .wav/.wave to the WAV reader, else text read at
    the configured sample rate."""
    if Path(path).suffix.lower() in (".wav", ".wave"):
        return signal_io.load_wav_pcm16(path)
    return signal_io.load_text_samples(path, config.sample_rate_hz)


def preprocess_signal(buffer: SampleBuffer, config: PipelineConfig = PipelineConfig()) -> SampleBuffer:
    """DC removal, peak normalization, silence trimming, in that order."""
    x = preprocess.normalize_peak(preprocess.remove_dc(buffer.samples), config.normalization_target)
    start, stop = preprocess.speech_span(
        x, config.frame_len, config.frame_shift, config.silence_frames, config.silence_multiplier
    )
    return SampleBuffer(x[start:stop], buffer.sample_rate_hz)


def detect_marks(buffer: SampleBuffer, config: PipelineConfig = PipelineConfig()) -> PitchMarks:
    """Pitch-mark a preprocessed buffer."""
    peaks = extract_half_peaks(buffer)
    stats = compute_stats(peaks)
    polarity = choose_polarity(stats)
    min_period, max_period = config.period_bounds(buffer.sample_rate_hz)
    return mark_pitch_periods(buffer, peaks, stats, polarity, min_period, max_period)


def features_of_files(files, config: PipelineConfig = PipelineConfig()) -> list:
    """UtteranceFeatures, or the PipelineError or OSError it fails with, for
    each (path, vowel). Each file goes alone as far as its temporal features
    and cepstral lags; then the cepstral frames of all are solved in one batch."""
    results, pending = [], []  # pending: (index in results, temporal features, lags, vowel)
    for path, vowel in files:
        stage = "load"
        try:
            buffer = load_signal(path, config)
            stage = "preprocess"
            buffer = preprocess_signal(buffer, config)
            stage = "marks"
            marks = detect_marks(buffer, config)
            stage = "features"
            region = features.select_steady_state(buffer, periods_from_marks(marks))
            temporal = features.temporal_features(buffer, region)
            pending.append((len(results), temporal, features.cepstral_lags(buffer, region), vowel))
            results.append(None)
        except (ValueError, OSError) as exc:
            results.append(PipelineError(stage, str(exc)) if isinstance(exc, ValueError) else exc)
    for (i, temporal, _, vowel), average in zip(pending, features.average_cepstra([p[2] for p in pending])):
        try:
            if isinstance(average, ValueError):
                raise average
            results[i] = UtteranceFeatures(temporal, CepstralVector(average), vowel)
        except ValueError as exc:
            results[i] = PipelineError("features", str(exc))
    return results


def utterance_features_from_file(
    path, vowel: str, config: PipelineConfig = PipelineConfig()
) -> UtteranceFeatures:
    """One file's features: a pass of one."""
    (result,) = features_of_files([(path, vowel)], config)
    if isinstance(result, Exception):
        raise result
    return result
