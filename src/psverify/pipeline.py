"""End-to-end per-utterance pipeline: load, preprocess, mark, extract."""

import math
from dataclasses import dataclass, fields

from . import preprocess, signal_io
from .features import UtteranceFeatures, extract_utterance_features
from .pitch import (
    PitchMarks,
    choose_polarity,
    compute_stats,
    extract_half_peaks,
    mark_pitch_periods,
)
from .signal_io import SampleBuffer


@dataclass(frozen=True)
class PipelineConfig:
    """Numeric knobs of the pipeline; defaults follow the reference setup."""

    sample_rate_hz: int = 16000
    frame_len: int = 100
    frame_shift: int = 50
    silence_multiplier: float = preprocess.SILENCE_MULTIPLIER
    normalization_target: float = preprocess.NORMALIZATION_TARGET
    silence_frames: int = preprocess.SILENCE_FRAMES
    min_f0_hz: float = 50.0
    max_f0_hz: float = 500.0

    def __post_init__(self):
        for field in fields(self):
            if not 0 < getattr(self, field.name) < math.inf:
                raise ValueError(f"{field.name} must be finite and positive")
        if self.min_f0_hz >= self.max_f0_hz:
            raise ValueError("need min_f0_hz < max_f0_hz")
        self.frame_plan  # built now, so a bad frame pair is refused with the config

    @property
    def frame_plan(self) -> preprocess.FramePlan:
        return preprocess.FramePlan(self.frame_len, self.frame_shift)

    def period_bounds(self, sample_rate_hz: int) -> tuple[int, int]:
        min_period = max(2, math.floor(sample_rate_hz / self.max_f0_hz))
        max_period = math.ceil(sample_rate_hz / self.min_f0_hz)
        return min_period, max_period


def load_signal(path, config: PipelineConfig = PipelineConfig()) -> SampleBuffer:
    return signal_io.load_signal(path, config.sample_rate_hz)


def preprocess_signal(buffer: SampleBuffer, config: PipelineConfig = PipelineConfig()) -> SampleBuffer:
    """DC removal, peak normalization, silence trimming, in that order."""
    buffer = preprocess.remove_dc(buffer)
    buffer = preprocess.normalize_peak(buffer, config.normalization_target)
    profile = preprocess.energy_profile(
        buffer, config.frame_plan, config.silence_frames, config.silence_multiplier
    )
    return preprocess.trim_silence(buffer, profile, config.frame_plan)


def detect_marks(buffer: SampleBuffer, config: PipelineConfig = PipelineConfig()) -> PitchMarks:
    """Pitch-mark a preprocessed buffer."""
    peaks = extract_half_peaks(buffer)
    stats = compute_stats(peaks)
    polarity = choose_polarity(stats)
    min_period, max_period = config.period_bounds(buffer.sample_rate_hz)
    return mark_pitch_periods(buffer, peaks, stats, polarity, min_period, max_period)


def utterance_features_from_file(
    path, vowel: str, config: PipelineConfig = PipelineConfig()
) -> UtteranceFeatures:
    buffer = preprocess_signal(load_signal(path, config), config)
    marks = detect_marks(buffer, config)
    return extract_utterance_features(buffer, marks, vowel)
