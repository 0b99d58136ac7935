"""Pitch detection by half-peak inventory, polarity selection and
threshold-driven pitch-period marking.

The signal is split into maximal runs of strictly positive / strictly
negative samples ("halves"; zero samples belong to no half). Each half
contributes its peak and an MPD, the larger absolute difference between
that peak and the peaks of the neighbouring halves of the same polarity.
A polarity is the sign, +1 or -1, of its halves; the one whose MPDs are
more consistent is scanned in time order: starting from the first half,
the next mark lands on the peak of the first half whose magnitude reaches
a threshold derived from the previously marked peak, subject to period
bounds.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .signal_io import ArrayRecord, SampleBuffer


# polarity is the half's sign, +1 or -1
HalfPeak = namedtuple("HalfPeak", "polarity peak_index peak_value mpd")


@dataclass(frozen=True, eq=False)
class HalfPeaks(ArrayRecord):
    """Every half of a signal in time order, as parallel arrays.

    `signs` is +1/-1 per half, `indices` the first sample attaining its
    peak, `values` the peak and `mpds` its MPD. Iterating yields one
    HalfPeak record per half.
    """

    signs: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    mpds: np.ndarray

    def __post_init__(self):
        for name, dtype in (("signs", np.int8), ("indices", np.int64),
                            ("values", np.float64), ("mpds", np.float64)):
            self._freeze(name, dtype)
        if self.signs.ndim != 1 or not (
            self.signs.shape == self.indices.shape == self.values.shape == self.mpds.shape
        ):
            raise ValueError("half-peak arrays must be 1-D and of one length")
        if np.any(np.abs(self.signs) != 1) or np.any(np.sign(self.values) != self.signs):
            raise ValueError("each sign must be +1 or -1 and match its peak's sign")
        if np.any(self.mpds < 0):
            raise ValueError("MPD must be non-negative")

    def __len__(self):
        return self.signs.size

    def __iter__(self):
        return map(HalfPeak, self.signs.tolist(), self.indices.tolist(), self.values.tolist(), self.mpds.tolist())


@dataclass(frozen=True, eq=False)
class PitchMarks(ArrayRecord):
    """Strictly increasing pitch-cycle start indices and the sign of the
    halves they were placed on."""

    mark_indices: np.ndarray
    polarity_used: int

    def __post_init__(self):
        arr = self._freeze("mark_indices", np.int64)
        if arr.size < 2:
            raise ValueError("need at least two pitch marks")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("pitch marks must be strictly increasing")
        if self.polarity_used not in (1, -1):
            raise ValueError(f"unknown polarity {self.polarity_used!r}")


def _scan_halves(x):
    """Sign, peak index and peak value of every maximal same-sign run of x.

    The peak index is the first sample attaining the run's extremum; zero
    samples belong to no run.
    """
    signs = np.sign(x).astype(np.int8)
    starts = np.concatenate(([0], np.flatnonzero(signs[1:] != signs[:-1]) + 1))
    lengths = np.diff(np.append(starts, x.size))
    # the run extremum is the maximum of sign*x (negation is exact); zero runs
    # carry along and are dropped at the end
    signed = signs * x
    run_max = np.maximum.reduceat(signed, starts)
    hits = np.flatnonzero(signed == np.repeat(run_max, lengths))
    voiced = signs[starts] != 0
    indices = hits[np.searchsorted(hits, starts[voiced])]
    return signs[indices], indices, x[indices]


def extract_half_peaks(buffer: SampleBuffer) -> HalfPeaks:
    """Every half in time order, with its peak and MPD.

    The MPD of a half compares its peak against the previous and next halves
    of the same polarity; a missing neighbour contributes 0, so a lone half
    of one polarity gets MPD 0.
    """
    signs, indices, values = _scan_halves(buffer.samples)
    if not (np.any(signs > 0) and np.any(signs < 0)):
        raise ValueError("unvoiced or degenerate signal: no sign alternation")
    mpds = np.empty(values.size)
    for sign in (1, -1):
        sel = signs == sign
        diffs = np.abs(np.diff(values[sel]))
        mpds[sel] = np.maximum(np.concatenate(([0.0], diffs)), np.concatenate((diffs, [0.0])))
    return HalfPeaks(signs, indices, values, mpds)


def compute_stats(peaks: HalfPeaks) -> dict[int, tuple[float, float, float]]:
    """(AMPV (mean MPD), spread, maximum) of the MPDs, keyed by sign.

    The spread is the population standard deviation. Both are the ufunc
    sequence of numpy's mean and std, so they equal m.mean() and m.std()
    bit for bit, without those methods' Python-level dispatch.
    """
    mpds = {sign: peaks.mpds[peaks.signs == sign] for sign in (1, -1)}
    if mpds[1].size == 0 or mpds[-1].size == 0:
        raise ValueError("need at least one half of each polarity")
    stats = {}
    for sign, m in mpds.items():
        mean = np.add.reduce(m) / m.size
        dev = m - mean
        np.multiply(dev, dev, out=dev)
        stats[sign] = float(mean), math.sqrt(np.add.reduce(dev) / m.size), float(np.maximum.reduce(m))
    return stats


def choose_polarity(stats: dict[int, tuple[float, float, float]]) -> int:
    """Sign of the halves with the smaller coefficient of variation of their MPDs.

    Ties and degenerate (zero-mean) cases fall back to +1.
    """
    (ampv_pos, std_pos, _), (ampv_neg, std_neg, _) = stats[1], stats[-1]
    if ampv_pos == 0.0 or ampv_neg == 0.0:
        return 1
    return 1 if std_pos / ampv_pos <= std_neg / ampv_neg else -1


def _thresholds(values, mpds, ampv: float, max_mpd: float) -> np.ndarray:
    """Signed threshold of each half of one polarity: the next same-polarity
    peak must reach it by magnitude.

    threshold = value - (x/100) * value, where x indexes the ten intervals of
    [0, AMPV] (x = 1..10) or the ten intervals of (AMPV, max MPD]
    (x = 11..20) that the half's MPD falls in. Larger x means a more
    permissive (lower-magnitude) threshold.
    """
    span = max_mpd - ampv
    with np.errstate(divide="ignore", invalid="ignore"):
        # MPDs are non-negative, so floor is int() truncation
        low = np.where(ampv <= 0.0, 1.0, np.minimum(np.floor(mpds * 10.0 / ampv) + 1.0, 10.0))
        # kept only where max_mpd >= mpd > ampv, so span > 0; other lanes may divide by 0
        high = 10.0 + np.clip(np.ceil((mpds - ampv) * 10.0 / span), 1.0, 10.0)
    x = np.where(mpds <= ampv, low, high)
    return values * (1.0 - x / 100.0)


def mark_pitch_periods(
    buffer: SampleBuffer,
    peaks: HalfPeaks,
    stats: dict[int, tuple[float, float, float]],
    polarity: int,
    min_period: int,
    max_period: int,
) -> PitchMarks:
    """Scan the halves of sign `polarity` (+1 or -1) and place pitch marks at their peaks.

    The first chosen half seeds the scan. A later half is marked when its
    peak magnitude is at or above the threshold derived from the previously
    marked half and its distance from the previous mark lies in
    [min_period, max_period]; candidates outside the bounds are skipped.
    """
    if not 0 < min_period < max_period:
        raise ValueError(f"need 0 < min_period < max_period, got {min_period}/{max_period}")
    if polarity not in (1, -1):
        raise ValueError(f"polarity must be +1 or -1, got {polarity!r}")
    chosen = peaks.signs == polarity
    if np.count_nonzero(chosen) < 2:
        raise ValueError("pitch not detected: fewer than two candidate halves")
    values = peaks.values[chosen]
    indices = peaks.indices[chosen].tolist()
    if indices[-1] >= buffer.samples.size:
        raise ValueError("peak index beyond buffer")
    magnitudes = np.abs(values).tolist()
    ampv, _, max_mpd = stats[polarity]
    thresholds = np.abs(_thresholds(values, peaks.mpds[chosen], ampv, max_mpd)).tolist()
    marks = [indices[0]]
    threshold = thresholds[0]
    for index, magnitude, next_threshold in zip(indices[1:], magnitudes[1:], thresholds[1:]):
        gap = index - marks[-1]
        if gap < min_period or gap > max_period:
            continue
        if magnitude >= threshold:
            marks.append(index)
            threshold = next_threshold
    if len(marks) < 2:
        raise ValueError("pitch not detected")
    return PitchMarks(marks, polarity)


def periods_from_marks(marks: PitchMarks) -> np.ndarray:
    """Consecutive marks delimit periods: an (N, 2) int64 array of (start, length) rows."""
    idx = marks.mark_indices
    return np.column_stack((idx[:-1], np.diff(idx)))
