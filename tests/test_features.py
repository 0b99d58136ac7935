import copy
import pickle

import numpy as np
import pytest

from helpers import brute_extrema, composed_vector, random_stable_predictor, spectral_cepstra, toeplitz_lpc
from psverify import features
from psverify.synth import VOWEL_FORMANTS, synth_vowel
from psverify.features import (
    CepstralVector,
    TemporalFeatures,
    UtteranceFeatures,
    autocorrelation,
    cepstral_lags,
    count_extrema,
    levinson_durbin,
    lpc_to_cepstral,
    pitch_synchronous_cepstra,
    select_steady_state,
    temporal_features,
)
from psverify.pipeline import PipelineConfig, detect_marks, preprocess_signal
from psverify.pitch import periods_from_marks
from psverify.signal_io import SampleBuffer


def buf(values, rate=16000):
    return SampleBuffer(np.asarray(values, dtype=np.float64), rate)


def tiled_periods(n_periods, period_len=10, peak_period=None, rate=16000):
    """Low-level fixture: buffer of small noise with a spike in one period."""
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, n_periods * period_len)
    if peak_period is not None:
        x[peak_period * period_len + period_len // 2] = 99.0
    return buf(x, rate), tiled_rows(n_periods, period_len)


def tiled_rows(n_periods, period_len):
    """(start, length) rows of n_periods back-to-back periods of period_len."""
    return np.column_stack((np.arange(n_periods) * period_len, np.full(n_periods, period_len)))


class TestSelectSteadyState:
    def test_centered_window_of_20(self):
        buffer, periods = tiled_periods(30, peak_period=15)
        region = select_steady_state(buffer, periods)
        assert len(region) == 20
        np.testing.assert_array_equal(region, periods[5:25])
        start, length = region[10]
        assert start <= np.argmax(np.abs(buffer.samples)) < start + length

    def test_clipped_near_start(self):
        buffer, periods = tiled_periods(30, peak_period=3)
        region = select_steady_state(buffer, periods)
        assert len(region) == 13
        assert region[0].tolist() == [0, 10]
        assert region[-1].tolist() == [120, 10]

    def test_exactly_three_periods(self):
        buffer, periods = tiled_periods(3, peak_period=1)
        region = select_steady_state(buffer, periods)
        assert len(region) == 3

    def test_too_few_periods(self):
        buffer, periods = tiled_periods(2, peak_period=0)
        with pytest.raises(ValueError, match="3 pitch periods"):
            select_steady_state(buffer, periods)


class TestCountExtrema:
    def test_clean_sine_period(self):
        x = np.sin(2 * np.pi * np.arange(160) / 160)
        assert count_extrema(buf(x), (0, 160)) == (1, 0, 0, 1)

    def test_all_positive_run(self):
        assert count_extrema(buf([2, 5, 3, 4, 1]), (0, 5)) == (2, 1, 0, 0)

    def test_monotone_ramp(self):
        assert count_extrema(buf(np.arange(20.0)), (0, 20)) == (0, 0, 0, 0)

    def test_zero_centre_counts_negative(self):
        # centre exactly 0 falls in the negative branch
        assert count_extrema(buf([-1, 0, -1]), (0, 3)) == (0, 0, 1, 0)

    def test_plateau_counts_nothing(self):
        assert count_extrema(buf([1, 2, 2, 1]), (0, 4)) == (0, 0, 0, 0)

    def test_short_period_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            count_extrema(buf([1, 2, 3]), (0, 2))

    def test_period_past_the_end_rejected(self):
        with pytest.raises(ValueError, match="period runs past the end of the signal"):
            count_extrema(buf(np.arange(10.0)), (5, 6))

    def test_against_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(3, 200))
            if rng.random() < 0.5:
                x = rng.integers(-4, 5, n).astype(np.float64)  # repeats and zeros
            else:
                x = rng.normal(0, 1, n)
            assert count_extrema(buf(x), (0, n)) == brute_extrema(x)

    def test_alternation_within_runs(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 2000)
        sign = np.sign(x)
        boundaries = np.nonzero(sign[1:] != sign[:-1])[0] + 1
        edges = [0, *boundaries.tolist(), len(x)]
        for a, b in zip(edges, edges[1:]):
            if b - a < 3 or sign[a] == 0:
                continue
            poc, pot, nec, net = count_extrema(buf(x), (a, b - a))
            crests, troughs = (poc, pot) if sign[a] > 0 else (nec, net)
            assert abs(crests - troughs) <= 1


class TestTemporalFeatures:
    def region_of(self, periods):
        return np.array(periods, dtype=np.int64).reshape(-1, 2)

    def test_two_periods_averaged(self):
        # period A counts (2,1,0,0), period B counts (0,0,1,2)
        a = [0.5, 2, 0.5, 2, 0.5]
        b = [-0.5, -2, -0.5, -2, -0.5]
        x = buf(a + b)
        region = self.region_of([(0, 5), (5, 5)])
        feats = temporal_features(x, region)
        assert (feats.poc, feats.pot, feats.nec, feats.net) == (1.0, 0.5, 0.5, 1.0)

    def test_single_period_identity(self):
        x = buf([0.5, 2, 0.5, 2, 0.5])
        feats = temporal_features(x, self.region_of([(0, 5)]))
        assert (feats.poc, feats.pot, feats.nec, feats.net) == (2.0, 1.0, 0.0, 0.0)

    def test_constant_per_period(self):
        x = np.sin(2 * np.pi * np.arange(480) / 160)
        region = self.region_of([(0, 160), (160, 160), (320, 160)])
        feats = temporal_features(buf(x), region)
        assert (feats.poc, feats.pot, feats.nec, feats.net) == (1.0, 0.0, 0.0, 1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TemporalFeatures(-1.0, 0.0, 0.0, 0.0)

    def test_zero_row_region_rejected(self):
        with pytest.raises(ValueError, match="no pitch periods"):
            temporal_features(buf([0.5, 2, 0.5, 2, 0.5]), self.region_of([]))


class TestAutocorrelation:
    def test_constant_frame_closed_form(self):
        r = autocorrelation(np.ones(16), 12)
        np.testing.assert_array_equal(r, 16.0 - np.arange(13))

    def test_r0_dominates(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            r = autocorrelation(rng.normal(0, 1, 100), 12)
            assert np.all(r[0] >= np.abs(r[1:]))

    def test_zero_frame_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            autocorrelation(np.zeros(50), 12)

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            autocorrelation(np.ones(12), 12)


class TestLevinsonDurbin:
    def test_order_one(self):
        a, k, err = levinson_durbin([1.0, 0.5], 1)
        assert a[0] == 0.5
        assert err[-1] == 0.75

    def test_order_two_frozen(self):
        # direct 2x2 Toeplitz solve gives a = [0.5, 0]
        a, k, err = levinson_durbin([1.0, 0.5, 0.25], 2)
        np.testing.assert_allclose(a, [0.5, 0.0], atol=1e-15)
        assert k[1] == 0.0

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            x = rng.normal(0, 1, 240)
            r = autocorrelation(x, 12)
            a, _, _ = levinson_durbin(r, 12)
            expected = toeplitz_lpc(r, 12)
            assert np.linalg.norm(a - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_residuals_positive_non_increasing(self):
        rng = np.random.default_rng(78)
        x = rng.normal(0, 1, 300)
        _, _, err = levinson_durbin(autocorrelation(x, 12), 12)
        assert np.all(err > 0)
        assert np.all(np.diff(err) <= 0)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(79)
        x = rng.normal(0, 1, 200)
        r = autocorrelation(x, 12)
        a, _, _ = levinson_durbin(r, 12)
        t = np.array([[r[abs(i - j)] for j in range(12)] for i in range(12)])
        assert np.linalg.norm(t @ a - r[1:13]) <= 1e-9 * np.linalg.norm(r[1:13])

    def test_invalid_autocorrelation_rejected(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            levinson_durbin([1.0, 2.0], 1)  # |k| = 2
        with pytest.raises(ValueError, match="ill-conditioned"):
            levinson_durbin([0.0, 0.0], 1)

    def test_too_few_lags_rejected(self):
        with pytest.raises(ValueError, match="need 13 autocorrelation lags, got 5"):
            levinson_durbin(np.ones(5), 12)


class TestLpcToCepstral:
    def test_c1_equals_a1(self):
        rng = np.random.default_rng(80)
        a = rng.uniform(-0.4, 0.4, 12)
        assert lpc_to_cepstral(a).c[0] == a[0]

    def test_hand_expanded_c2(self):
        a = np.zeros(12)
        a[0] = 0.5
        assert lpc_to_cepstral(a).c[1] == pytest.approx(0.125)

    def test_single_pole_closed_form(self):
        # one-pole model has c_n = a1^n / n
        a = np.zeros(12)
        a[0] = 0.8
        c = lpc_to_cepstral(a).c
        expected = np.array([0.8 ** n / n for n in range(1, 13)])
        np.testing.assert_allclose(c, expected, rtol=1e-12)

    def test_matches_spectral_integration(self):
        rng = np.random.default_rng(81)
        for _ in range(5):
            a = random_stable_predictor(rng)
            c = lpc_to_cepstral(a).c
            np.testing.assert_allclose(c, spectral_cepstra(a, 12), atol=1e-6)


class TestPitchSynchronousCepstra:
    def periodic_buffer(self, n_periods, period_len=120):
        one = np.sin(2 * np.pi * 3 * np.arange(period_len) / period_len) + 0.3 * np.sin(
            2 * np.pi * 7 * np.arange(period_len) / period_len
        )
        x = np.tile(one, n_periods)
        return buf(x), tiled_rows(n_periods, period_len)

    def manual_average(self, buffer, region, n_frames):
        acc = np.zeros(12)
        for i in range(n_frames):
            start = region[i, 0]
            stop = region[i + 2, 0] + region[i + 2, 1]
            r = autocorrelation(buffer.samples[start:stop], 12)
            a, _, _ = levinson_durbin(r, 12)
            acc += lpc_to_cepstral(a).c
        return acc / n_frames

    def test_twenty_periods_use_18_frames(self):
        buffer, region = self.periodic_buffer(20)
        result = pitch_synchronous_cepstra(buffer, region)
        np.testing.assert_array_equal(result.c, self.manual_average(buffer, region, 18))

    def test_five_periods_use_3_frames(self):
        buffer, region = self.periodic_buffer(5)
        result = pitch_synchronous_cepstra(buffer, region)
        np.testing.assert_array_equal(result.c, self.manual_average(buffer, region, 3))

    def test_two_periods_rejected(self):
        buffer, region = self.periodic_buffer(2)
        with pytest.raises(ValueError, match="region too short"):
            pitch_synchronous_cepstra(buffer, region)

    def test_a_solve_error_is_raised(self, monkeypatch):
        # lags all equal: the first reflection, R[1] / R[0], is 1
        buffer, region = self.periodic_buffer(5)
        monkeypatch.setattr(features, "cepstral_lags", lambda buffer, region: np.ones((3, 13)))
        with pytest.raises(ValueError, match=r"^ill-conditioned autocorrelation: \|reflection\| >= 1$"):
            features.pitch_synchronous_cepstra(buffer, region)

    def test_zero_row_region_rejected(self):
        buffer, region = self.periodic_buffer(3)
        with pytest.raises(ValueError, match="region too short: 0 periods"):
            cepstral_lags(buffer, region[:0])

    def test_identical_periods_average_equals_single_frame(self):
        buffer, region = self.periodic_buffer(6)
        averaged = pitch_synchronous_cepstra(buffer, region)
        single = self.manual_average(buffer, region, 1)
        np.testing.assert_allclose(averaged.c, single, rtol=1e-12)


class TestCepstralLags:
    def test_each_row_is_its_frames_autocorrelation(self):
        raw = synth_vowel(130.0, VOWEL_FORMANTS["o"], 0.4, 16000, seed=2, silence_pad_s=0.05)
        buffer = preprocess_signal(raw)
        region = periods_from_marks(detect_marks(buffer))[:20]
        lags = cepstral_lags(buffer, region)
        assert lags.shape == (18, 13)
        for i, row in enumerate(lags):
            frame = buffer.samples[region[i, 0] : region[i + 2, 0] + region[i + 2, 1]]
            assert row.tobytes() == autocorrelation(frame).tobytes()

    def test_all_zero_frame_before_a_short_one_fails_as_all_zero(self):
        # frame 0 is samples 0..23, all zero; frame 1 is samples 20..25, too short
        x = np.zeros(40)
        x[24:] = 1.0
        with pytest.raises(ValueError, match="^all-zero frame has no autocorrelation$"):
            cepstral_lags(buf(x), np.array([[0, 20], [20, 2], [22, 2], [24, 2]]))

    def test_short_frame_before_an_all_zero_one_fails_as_short(self):
        # frame 0 is samples 0..5, too short; frame 1 is samples 2..25, all zero
        x = np.zeros(40)
        x[:2] = 1.0
        with pytest.raises(ValueError, match="^frame of 6 samples too short for lag 12$"):
            cepstral_lags(buf(x), np.array([[0, 2], [2, 2], [4, 2], [6, 20]]))


class TestExtractUtteranceFeatures:
    """The 16 values of one utterance, composed stage by stage."""

    def preprocessed(self, seed=21, f0=130.0):
        cfg = PipelineConfig()
        raw = synth_vowel(f0, VOWEL_FORMANTS["i"], 0.4, 16000, seed=seed, silence_pad_s=0.05)
        pre = preprocess_signal(raw, cfg)
        return pre, detect_marks(pre, cfg)

    def test_deterministic(self):
        pre, marks = self.preprocessed()
        np.testing.assert_array_equal(composed_vector(pre, marks), composed_vector(pre, marks))

    def test_vector_layout(self):
        pre, marks = self.preprocessed()
        assert composed_vector(pre, marks).shape == (16,)
        feats = UtteranceFeatures(TemporalFeatures(1.0, 2.0, 3.0, 4.0), CepstralVector(np.arange(5.0, 17.0)), "i")
        np.testing.assert_array_equal(feats.vector, np.arange(1.0, 17.0))

    def test_temporal_scale_invariance(self):
        pre, marks = self.preprocessed()
        reference = composed_vector(pre, marks)
        for scale in (2.0, 3.7):
            scaled = SampleBuffer(pre.samples * scale, pre.sample_rate_hz)
            vector = composed_vector(scaled, marks)
            np.testing.assert_array_equal(vector[:4], reference[:4])
            np.testing.assert_allclose(vector[4:], reference[4:], atol=1e-9)

    def test_unknown_vowel_rejected(self):
        with pytest.raises(ValueError, match="vowel"):
            UtteranceFeatures(TemporalFeatures(1.0, 0.0, 0.0, 1.0), CepstralVector(np.zeros(12)), "x")


class TestCepstralVector:
    def test_needs_12(self):
        with pytest.raises(ValueError, match="12"):
            CepstralVector(np.zeros(11))

    def test_finite(self):
        with pytest.raises(ValueError, match="finite"):
            CepstralVector(np.full(12, np.inf))

    def test_holds_a_read_only_copy(self):
        c = np.linspace(-1.0, 1.0, 12)
        cv = CepstralVector(c)
        c[0] = np.nan
        assert cv.c[0] == -1.0
        feats = UtteranceFeatures(TemporalFeatures(1.0, 2.0, 3.0, 4.0), cv, "a")
        with pytest.raises(ValueError, match="read-only"):
            feats.cepstral.c[3] = np.inf
        assert np.all(np.isfinite(feats.vector))

    def test_copies_stay_read_only(self):
        feats = UtteranceFeatures(TemporalFeatures(1.0, 2.0, 3.0, 4.0), CepstralVector(np.arange(5.0, 17.0)), "i")
        for copied in (pickle.loads(pickle.dumps(feats)), copy.deepcopy(feats)):
            assert copied.vector.tobytes() == feats.vector.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                copied.cepstral.c[0] = np.nan
