"""DC correction, peak normalization and short-time-energy silence trimming.

Pipeline order is DC removal, then normalization to the fixed target, then
silence removal on 100/50 frames with the 110% rule.
"""

from dataclasses import dataclass

import numpy as np

from .signal_io import SampleBuffer

NORMALIZATION_TARGET = 10000.0
SILENCE_MULTIPLIER = 1.10
SILENCE_FRAMES = 10


@dataclass(frozen=True)
class FramePlan:
    frame_len: int = 100
    frame_shift: int = 50

    def __post_init__(self):
        if not 0 < self.frame_shift <= self.frame_len:
            raise ValueError(
                f"need 0 < frame_shift <= frame_len, got {self.frame_shift}/{self.frame_len}"
            )


@dataclass(frozen=True, eq=False)
class EnergyProfile:
    """Mean-square energy per frame plus the silence estimate and speech flags."""

    frame_energies: np.ndarray
    silence_energy: float
    speech_flags: np.ndarray

    def __post_init__(self):
        if self.frame_energies.shape != self.speech_flags.shape:
            raise ValueError("energies and flags must have equal length")
        if self.silence_energy < 0:
            raise ValueError("silence energy must be non-negative")


def remove_dc(buffer: SampleBuffer) -> SampleBuffer:
    """Subtract the signal mean."""
    x = buffer.samples
    return SampleBuffer(x - x.mean(), buffer.sample_rate_hz)


def normalize_peak(buffer: SampleBuffer, target: float = NORMALIZATION_TARGET) -> SampleBuffer:
    """Scale so the largest absolute sample equals `target`."""
    if target <= 0:
        raise ValueError("normalization target must be positive")
    peak = float(np.max(np.abs(buffer.samples)))
    scale = target / peak if peak else np.inf
    if not np.isfinite(scale):
        # all zeros, or a subnormal residue whose reciprocal overflows
        raise ValueError(f"silent signal: cannot normalize samples peaking at {peak:g}")
    return SampleBuffer(buffer.samples * scale, buffer.sample_rate_hz)


def energy_profile(
    buffer: SampleBuffer,
    plan: FramePlan = FramePlan(),
    silence_frames: int = SILENCE_FRAMES,
    silence_multiplier: float = SILENCE_MULTIPLIER,
) -> EnergyProfile:
    """Frame the signal and flag speech frames.

    Frame i covers samples [i*shift, i*shift+len); its energy is the mean of
    the squared samples. The silence reference is the mean energy of the
    `silence_frames` lowest-energy frames, and a frame counts as speech only
    when its energy is strictly beyond silence_multiplier times that
    reference.
    """
    if silence_frames <= 0:
        raise ValueError("silence_frames must be positive")
    x = buffer.samples
    n = x.size
    if n < plan.frame_len:
        raise ValueError(f"signal of {n} samples is shorter than one frame ({plan.frame_len})")
    n_frames = (n - plan.frame_len) // plan.frame_shift + 1
    sq = np.concatenate((np.zeros(1), np.cumsum(x * x)))
    starts = np.arange(n_frames) * plan.frame_shift
    energies = (sq[starts + plan.frame_len] - sq[starts]) / plan.frame_len
    k = min(silence_frames, n_frames)
    silence = float(np.mean(np.partition(energies, k - 1)[:k]))
    flags = energies > silence_multiplier * silence
    return EnergyProfile(energies, silence, flags)


def trim_silence(buffer: SampleBuffer, profile: EnergyProfile, plan: FramePlan = FramePlan()) -> SampleBuffer:
    """Keep the contiguous span from the first through the last speech frame.

    Interior low-energy frames are kept: cutting them out would splice the
    waveform and corrupt pitch marking downstream.
    """
    speech = np.nonzero(profile.speech_flags)[0]
    if speech.size == 0:
        raise ValueError("no speech detected")
    start = int(speech[0]) * plan.frame_shift
    stop = min(int(speech[-1]) * plan.frame_shift + plan.frame_len, buffer.samples.size)
    return SampleBuffer(buffer.samples[start:stop], buffer.sample_rate_hz)
