"""DC correction, peak normalization and short-time-energy silence trimming.

Pipeline order is DC removal, then normalization to the fixed `PEAK`, then
silence removal on frames with the 110% rule, all fixed as in the reference setup.
"""

import numpy as np

PEAK = 10000.0  # the reference setup's; every later stage is scale-free
# the reference setup's silence-trimming rule, as speech_span applies it
FRAME_LEN = 100
FRAME_SHIFT = 50
SILENCE_FRAMES = 10
SILENCE_MULTIPLIER = 1.10


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


def speech_span(x: np.ndarray) -> tuple[int, int]:
    """The [start, stop) sample span from the first through the last speech frame.

    Frame i covers samples [i*FRAME_SHIFT, i*FRAME_SHIFT+FRAME_LEN); its
    energy is the mean of the squared samples. The silence reference is the
    mean energy of the SILENCE_FRAMES lowest-energy frames, and a frame counts
    as speech only when its energy is strictly beyond SILENCE_MULTIPLIER times
    that reference. Interior low-energy frames stay in the span: cutting them out
    would splice the waveform and corrupt pitch marking downstream.
    """
    n = x.size
    if n < FRAME_LEN:
        raise ValueError(f"signal of {n} samples is shorter than one frame ({FRAME_LEN})")
    n_frames = (n - FRAME_LEN) // FRAME_SHIFT + 1
    sq = np.concatenate((np.zeros(1), np.cumsum(x * x)))
    starts = np.arange(n_frames) * FRAME_SHIFT
    energies = (sq[starts + FRAME_LEN] - sq[starts]) / FRAME_LEN
    k = min(SILENCE_FRAMES, n_frames)
    silence = float(np.mean(np.partition(energies, k - 1)[:k]))
    speech = np.flatnonzero(energies > SILENCE_MULTIPLIER * silence)
    if speech.size == 0:
        raise ValueError("no speech detected")
    return int(speech[0]) * FRAME_SHIFT, int(speech[-1]) * FRAME_SHIFT + FRAME_LEN
