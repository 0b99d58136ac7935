"""DC correction, peak normalization and short-time-energy silence trimming.

Pipeline order is DC removal, then normalization to the fixed `PEAK`, then
silence removal on frames with the 110% rule; the trimming settings and
their defaults live in `pipeline.PipelineConfig`.
"""

import numpy as np

PEAK = 10000.0  # the reference setup's; every later stage is scale-free


def remove_dc(x: np.ndarray) -> np.ndarray:
    """Subtract the signal mean; refuse samples so large that it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = x - x.mean()
    if not np.isfinite(y).all():
        raise ValueError("samples too large: removing their mean overflows float64")
    return y


def normalize_peak(x: np.ndarray) -> np.ndarray:
    """Scale so the largest absolute sample equals PEAK. Even a peak of
    1.8e308 gives a normal scale, so only a silent signal is refused."""
    peak = float(np.max(np.abs(x)))
    scale = PEAK / peak if peak else np.inf
    if not np.isfinite(scale):
        # all zeros, or a subnormal residue whose reciprocal overflows
        raise ValueError(f"silent signal: cannot normalize samples peaking at {peak:g}")
    return x * scale


def speech_span(
    x: np.ndarray, frame_len: int, frame_shift: int, silence_frames: int, silence_multiplier: float
) -> tuple[int, int]:
    """The [start, stop) sample span from the first through the last speech frame.

    Frame i covers samples [i*shift, i*shift+len); its energy is the mean of
    the squared samples. The silence reference is the mean energy of the
    `silence_frames` lowest-energy frames, and a frame counts as speech only
    when its energy is strictly beyond silence_multiplier times that
    reference. Interior low-energy frames stay in the span: cutting them out
    would splice the waveform and corrupt pitch marking downstream.
    """
    n = x.size
    if n < frame_len:
        raise ValueError(f"signal of {n} samples is shorter than one frame ({frame_len})")
    n_frames = (n - frame_len) // frame_shift + 1
    sq = np.concatenate((np.zeros(1), np.cumsum(x * x)))
    starts = np.arange(n_frames) * frame_shift
    energies = (sq[starts + frame_len] - sq[starts]) / frame_len
    k = min(silence_frames, n_frames)
    silence = float(np.mean(np.partition(energies, k - 1)[:k]))
    speech = np.flatnonzero(energies > silence_multiplier * silence)
    if speech.size == 0:
        raise ValueError("no speech detected")
    return int(speech[0]) * frame_shift, int(speech[-1]) * frame_shift + frame_len
