import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import autocorr_period, literal_marks
from psverify.features import VOWELS
from psverify.synth import VOWEL_FORMANTS, synth_vowel
from psverify.pipeline import PipelineConfig, detect_marks, preprocess_signal
from psverify.pitch import (
    HalfPeak,
    HalfPeaks,
    PitchMarks,
    choose_polarity,
    compute_stats,
    extract_half_peaks,
    mark_pitch_periods,
    _thresholds,
    periods_from_marks,
)
from psverify.signal_io import SampleBuffer


def buf(values, rate=16000):
    return SampleBuffer(np.asarray(values, dtype=np.float64), rate)


def sine(f0=100.0, rate=16000, seconds=0.5):
    n = int(seconds * rate)
    return buf(np.sin(2 * np.pi * f0 * np.arange(n) / rate), rate)


# sign -> (ampv, std, max) of the MPDs
STATS = {1: (100.0, 1.0, 200.0), -1: (100.0, 1.0, 200.0)}


class TestExtractHalfPeaks:
    def test_single_sine_cycle(self):
        cycle = buf(np.sin(2 * np.pi * np.arange(160) / 160))
        peaks = extract_half_peaks(cycle)
        assert peaks.signs.tolist() == [1, -1]

    def test_neighbour_difference_rule(self):
        peaks = extract_half_peaks(buf([100, -10, 120, -10, 90]))
        positive = peaks.signs > 0
        assert peaks.values[positive].tolist() == [100, 120, 90]
        assert peaks.mpds[positive].tolist() == [20, 30, 30]

    def test_constant_positive_signal_rejected(self):
        with pytest.raises(ValueError, match="unvoiced or degenerate"):
            extract_half_peaks(buf([5, 5, 5, 5]))

    def test_zeros_split_runs(self):
        peaks = extract_half_peaks(buf([1, 0, 2, -1]))
        assert peaks.signs.tolist() == [1, 1, -1]
        assert peaks.values.tolist() == [1, 2, -1]

    def test_peak_index_is_first_extremum_sample(self):
        peaks = extract_half_peaks(buf([3, 7, 7, 1, -2]))
        assert peaks.indices.tolist() == [1, 4]

    def test_iterates_as_records(self):
        peaks = extract_half_peaks(buf([100, -10, 120, -10, 90]))
        assert len(peaks) == 5
        assert list(peaks)[:2] == [HalfPeak(1, 0, 100.0, 20.0), HalfPeak(-1, 1, -10.0, 0.0)]


class TestHalfPeaks:
    def test_sign_must_match_peak(self):
        with pytest.raises(ValueError, match="sign"):
            HalfPeaks([1, 1], [0, 5], [3.0, -2.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="sign"):
            HalfPeaks([0], [0], [0.0], [0.0])

    def test_negative_mpd_rejected(self):
        with pytest.raises(ValueError, match="MPD"):
            HalfPeaks([1, -1], [0, 5], [3.0, -2.0], [1.0, -1.0])

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="one length"):
            HalfPeaks([1, -1], [0, 5], [3.0, -2.0], [1.0])


class TestComputeStats:
    def peaks_with_mpds(self, pos_mpds, neg_mpds):
        n_pos, n_neg = len(pos_mpds), len(neg_mpds)
        return HalfPeaks(
            signs=[1] * n_pos + [-1] * n_neg,
            indices=[i * 10 for i in range(n_pos)] + [1000 + i * 10 for i in range(n_neg)],
            values=[50.0] * n_pos + [-50.0] * n_neg,
            mpds=[*pos_mpds, *neg_mpds],
        )

    def test_mean(self):
        stats = compute_stats(self.peaks_with_mpds([10, 20, 30], [1]))
        ampv, _, max_mpd = stats[1]
        assert ampv == 20.0
        assert max_mpd == 30.0

    def test_single_peak_each(self):
        stats = compute_stats(self.peaks_with_mpds([0], [0]))
        assert stats[1][0] == 0.0
        assert stats[-1][0] == 0.0

    def test_one_mpd(self):
        stats = compute_stats(self.peaks_with_mpds([5], [2]))
        assert stats[1][0] == 5.0 == stats[1][2]

    def test_missing_polarity_rejected(self):
        pos_only = HalfPeaks([1], [0], [1.0], [0.0])
        with pytest.raises(ValueError, match="polarity"):
            compute_stats(pos_only)


@st.composite
def mpd_lists(draw):
    """1 to 200 MPDs: zeros, repeats of a few drawn values, and magnitudes
    from 1e-300 to 1e300."""
    magnitudes = st.floats(min_value=1e-300, max_value=1e300)
    pool = draw(st.lists(st.just(0.0) | magnitudes, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool) | magnitudes, min_size=1, max_size=200))


@settings(max_examples=100, deadline=None)
@given(mpd_lists(), mpd_lists(), st.randoms(use_true_random=False))
def test_stats_equal_numpy_mean_and_std_bit_for_bit(pos_mpds, neg_mpds, rng):
    signs = [1] * len(pos_mpds) + [-1] * len(neg_mpds)
    rng.shuffle(signs)
    pool = {1: iter(pos_mpds), -1: iter(neg_mpds)}
    mpds = [next(pool[sign]) for sign in signs]
    peaks = HalfPeaks(signs, range(len(signs)), [float(sign) for sign in signs], mpds)
    with np.errstate(over="ignore"):  # squares of the largest MPDs overflow in both
        stats = compute_stats(peaks)
        for sign, m in ((1, np.array(pos_mpds)), (-1, np.array(neg_mpds))):
            expected = (float(m.mean()), float(m.std()), float(m.max()))
            assert [type(v) for v in stats[sign]] == [float] * 3
            assert [v.hex() for v in stats[sign]] == [v.hex() for v in expected]


class TestChoosePolarity:
    def test_consistent_positive_wins(self):
        stats = {1: (10, 0.0, 10), -1: (10, 9.0, 40)}
        assert choose_polarity(stats) == 1

    def test_tie_goes_positive(self):
        stats = {1: (10, 2.0, 20), -1: (10, 2.0, 20)}
        assert choose_polarity(stats) == 1

    def test_smaller_negative_cv_wins(self):
        stats = {1: (10, 5.0, 20), -1: (10, 1.0, 20)}  # CVs 0.5 vs 0.1
        assert choose_polarity(stats) == -1

    def test_zero_mean_goes_positive(self):
        stats = {1: (10, 5.0, 20), -1: (0, 0.0, 0)}
        assert choose_polarity(stats) == 1

    def test_mirror_symmetric_signal(self):
        x = np.sin(2 * np.pi * np.arange(800) / 160)
        assert choose_polarity(compute_stats(extract_half_peaks(buf(x)))) == 1


class TestThresholdForPeak:
    def threshold(self, mpd, value=10000.0, polarity=1):
        """The threshold `_thresholds` derives for one half."""
        ampv, _, max_mpd = STATS[polarity]
        (threshold,) = _thresholds(np.array([value]), np.array([mpd]), ampv, max_mpd)
        return float(threshold)

    def test_x5_gives_9500(self):
        # MPD in interval 5 of [0, AMPV]: x = 5
        assert self.threshold(45.0) == pytest.approx(9500.0)

    def test_third_interval_above_ampv_gives_x13(self):
        assert self.threshold(125.0) == pytest.approx(8700.0)

    def test_zero_mpd_gives_x1(self):
        assert self.threshold(0.0) == pytest.approx(9900.0)

    def test_mpd_at_ampv_gives_x10(self):
        assert self.threshold(100.0) == pytest.approx(9000.0)

    def test_mpd_at_max_gives_x20(self):
        assert self.threshold(200.0) == pytest.approx(8000.0)

    def test_negative_polarity_signed(self):
        assert self.threshold(45.0, value=-10000.0, polarity=-1) == pytest.approx(-9500.0)

    def test_threshold_magnitude_monotone_in_mpd(self):
        magnitudes = [abs(self.threshold(m)) for m in np.linspace(0, 200, 41)]
        assert all(a >= b for a, b in zip(magnitudes, magnitudes[1:]))


class TestMarkPitchPeriods:
    def run_marks(self, buffer, min_period=32, max_period=320):
        peaks = extract_half_peaks(buffer)
        stats = compute_stats(peaks)
        polarity = choose_polarity(stats)
        return mark_pitch_periods(buffer, peaks, stats, polarity, min_period, max_period)

    def test_pure_sine_100hz(self):
        marks = self.run_marks(sine(100.0))
        diffs = np.diff(marks.mark_indices)
        assert np.all(np.abs(diffs - 160) <= 1)
        # independent oracle: autocorrelation peak of the same signal
        assert autocorr_period(sine(100.0).samples, 32, 320) == 160

    def test_synthetic_vowel_120hz(self, config):
        raw = synth_vowel(120.0, VOWEL_FORMANTS["a"], 0.5, 16000, seed=11, silence_pad_s=0.05)
        marks = detect_marks(preprocess_signal(raw, config), config)
        mean_period = float(np.diff(marks.mark_indices).mean())
        assert abs(mean_period - 16000 / 120.0) <= 1.0

    def test_white_noise_rejected_or_bounded(self):
        rng = np.random.default_rng(9)
        noise = buf(rng.normal(0, 1000, 8000))
        try:
            marks = self.run_marks(noise)
        except ValueError:
            return
        diffs = np.diff(marks.mark_indices)
        assert np.all((diffs >= 32) & (diffs <= 320))

    def test_marks_strictly_increasing_within_bounds(self, config):
        raw = synth_vowel(160.0, VOWEL_FORMANTS["o"], 0.4, 16000, seed=2, silence_pad_s=0.05)
        marks = detect_marks(preprocess_signal(raw, config), config)
        diffs = np.diff(marks.mark_indices)
        assert np.all(diffs > 0)
        lo, hi = config.period_bounds(16000)
        assert np.all((diffs >= lo) & (diffs <= hi))

    def test_amplitude_invariance(self, config):
        raw = synth_vowel(140.0, VOWEL_FORMANTS["e"], 0.4, 16000, seed=5, silence_pad_s=0.05)
        pre = preprocess_signal(raw, config)
        for scale in (0.25, 2.0, 3.7):
            scaled = SampleBuffer(pre.samples * scale, pre.sample_rate_hz)
            a = self.run_marks(pre)
            b = self.run_marks(scaled)
            assert a.polarity_used == b.polarity_used
            np.testing.assert_array_equal(a.mark_indices, b.mark_indices)

    def test_too_few_halves(self):
        with pytest.raises(ValueError, match="pitch not detected"):
            self.run_marks(buf([0, 5, 0, -5, 0]))

    def test_bad_bounds(self):
        peaks = extract_half_peaks(sine())
        stats = compute_stats(peaks)
        with pytest.raises(ValueError, match="min_period"):
            mark_pitch_periods(sine(), peaks, stats, 1, 100, 50)

    def test_peaks_of_a_longer_buffer_rejected(self):
        longer = sine(seconds=0.5)
        peaks = extract_half_peaks(longer)
        stats = compute_stats(peaks)
        shorter = buf(longer.samples[:4000])
        with pytest.raises(ValueError, match="peak index beyond buffer"):
            mark_pitch_periods(shorter, peaks, stats, 1, 32, 320)

    def test_polarity_must_be_a_sign(self):
        peaks = extract_half_peaks(sine())
        stats = compute_stats(peaks)
        for polarity in (0, "positive"):
            with pytest.raises(ValueError, match="polarity must be"):
                mark_pitch_periods(sine(), peaks, stats, polarity, 32, 320)


class TestPeriodsFromMarks:
    def test_equal_periods(self):
        marks = PitchMarks(np.array([0, 160, 320]), 1)
        assert periods_from_marks(marks).tolist() == [[0, 160], [160, 160]]

    def test_unequal_periods(self):
        marks = PitchMarks(np.array([0, 150, 320]), 1)
        assert periods_from_marks(marks)[:, 1].tolist() == [150, 170]

    def test_rows_are_int64_start_length_pairs(self):
        periods = periods_from_marks(PitchMarks(np.array([3, 40, 90, 161]), -1))
        assert periods.dtype == np.int64 and periods.shape == (3, 2)
        assert periods.tolist() == [[3, 37], [40, 50], [90, 71]]

    def test_single_mark_rejected(self):
        with pytest.raises(ValueError, match="two pitch marks"):
            PitchMarks(np.array([0]), 1)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PitchMarks(np.array([0, 100, 100]), 1)

    def test_polarity_must_be_a_sign(self):
        with pytest.raises(ValueError, match="unknown polarity 0"):
            PitchMarks([1, 5], 0)

    def test_marks_are_a_read_only_copy(self):
        m = np.array([0, 10, 20])
        marks = PitchMarks(m, 1)
        m[1] = 30
        assert marks.mark_indices.tolist() == [0, 10, 20]
        with pytest.raises(ValueError, match="read-only"):
            marks.mark_indices[1] = 30

    def test_copies_stay_read_only(self):
        marks = PitchMarks(np.array([3, 40, 90]), -1)
        for copied in (pickle.loads(pickle.dumps(marks)), copy.deepcopy(marks)):
            assert (copied.mark_indices.tolist(), copied.polarity_used) == ([3, 40, 90], -1)
            with pytest.raises(ValueError, match="read-only"):
                copied.mark_indices[0] = 1


def marks_or_none(buffer):
    """detect_marks as (mark indices, polarity), or None where it refuses."""
    try:
        marks = detect_marks(buffer)
    except ValueError:
        return None
    return marks.mark_indices.tolist(), marks.polarity_used


@st.composite
def drawn_signals(draw):
    """Runs of small integers or of floats up to 1e6, with zeros and
    one-value plateaus, optionally tiled: a tiled signal is periodic, and
    its MPD lists can tie the polarity choice exactly."""
    values = st.integers(-60, 60).map(float) | st.floats(-1e6, 1e6)
    runs = draw(st.lists(st.tuples(values, st.integers(1, 4)), min_size=2, max_size=40))
    return [value for value, repeat in runs for _ in range(repeat)] * draw(st.integers(1, 6))


@settings(max_examples=400, deadline=None)
@given(drawn_signals(), st.sampled_from([1000, 4000, 16000]))
@example([41.0, -1.0, 37.0], 1000)  # both MPDs at AMPV: x = 10, so 37 reaches 90% of 41
@example([1.0, -0.5, 0.85, -0.5] * 5, 1000)  # numpy's mean of five equal MPDs falls below them: x = 20
def test_marks_follow_the_literal_rule_on_drawn_signals(x, rate):
    # at 1 kHz the period bounds are 2..20 samples, so short signals mark
    expected = literal_marks(x, *PipelineConfig().period_bounds(rate))
    assert marks_or_none(buf(x, rate)) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(VOWELS), st.integers(80, 300), st.integers(0, 9), st.sampled_from([0.3, 0.9]))
@example("e", 190, 8, 0.9)  # criterion 2's /e/ at 190 Hz: both mark the same wrong periods
def test_marks_follow_the_literal_rule_on_vowels(vowel, f0, seed, seconds):
    buffer = preprocess_signal(synth_vowel(f0, VOWEL_FORMANTS[vowel], seconds, seed=seed, silence_pad_s=0.05))
    expected = literal_marks(buffer.samples.tolist(), *PipelineConfig().period_bounds(buffer.sample_rate_hz))
    assert expected is not None
    assert marks_or_none(buffer) == expected
