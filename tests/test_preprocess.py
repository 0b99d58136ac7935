import dataclasses

import numpy as np
import pytest

from psverify.evaluation import VOWEL_FORMANTS, synth_vowel
from psverify.pipeline import PipelineConfig, preprocess_signal, utterance_features_from_file
from psverify.preprocess import normalize_peak, remove_dc, speech_span
from psverify.signal_io import SampleBuffer, write_text_samples

DEFAULTS = PipelineConfig()
TARGET = DEFAULTS.normalization_target


def span(x, **settings):
    """speech_span with the default trimming settings, bar those given."""
    c = dataclasses.replace(DEFAULTS, **settings)
    return speech_span(x, c.frame_len, c.frame_shift, c.silence_frames, c.silence_multiplier)


class TestRemoveDc:
    def test_mean_subtraction(self):
        np.testing.assert_array_equal(remove_dc(np.array([3.0, 1.0, 2.0])), [1, -1, 0])

    def test_constant_signal(self):
        np.testing.assert_array_equal(remove_dc(np.full(3, 7.0)), [0, 0, 0])

    def test_zero_mean_unchanged(self):
        x = np.array([1.0, -1.0, 2.0, -2.0])
        np.testing.assert_array_equal(remove_dc(x), x)

    def test_output_mean_near_zero(self):
        rng = np.random.default_rng(1)
        out = remove_dc(rng.uniform(-5000, 12000, 4096))
        assert abs(out.mean()) <= 1e-9 * (np.abs(out).max() + 1)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = remove_dc(rng.normal(100, 50, 1000))
        np.testing.assert_allclose(remove_dc(once), once, atol=1e-9)

    @pytest.mark.parametrize("x", [
        1.7e308 * np.sin(np.arange(1, 1001) * 0.1),  # the sum overflows
        np.array([1.5e308, -1.5e308, 1.5e308]),  # the sum does not, x - mean does
    ])
    def test_overflowing_mean_refused_without_warning(self, x):
        # a RuntimeWarning is an error under the suite's filterwarnings
        with pytest.raises(ValueError, match="removing their mean overflows float64"):
            remove_dc(x)


class TestNormalizePeak:
    def test_scaling(self):
        out = normalize_peak(np.array([0.0, 5000.0, -2500.0]), TARGET)
        np.testing.assert_allclose(out, [0, 10000, -5000], rtol=1e-9)

    def test_peak_already_at_target(self):
        x = np.array([0.0, 10000.0, -3000.0])
        np.testing.assert_array_equal(normalize_peak(x, TARGET), x)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            normalize_peak(np.zeros(3), TARGET)

    def test_subnormal_peak_rejected_as_silent(self):
        # target / peak overflows to inf for a subnormal peak
        with pytest.raises(ValueError, match="silent signal"):
            normalize_peak(np.array([0.0, 3e-316, -1e-320]), TARGET)

    def test_subnormal_dc_residue_is_silent(self):
        # removing the DC of a constant 1e-300 leaves residues near 3e-316
        with pytest.raises(ValueError, match="silent signal"):
            preprocess_signal(SampleBuffer(np.full(970, 1e-300), 16000))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once = normalize_peak(rng.normal(0, 1, 500), TARGET)
        assert np.abs(once).max() == pytest.approx(10000.0, rel=1e-9)
        np.testing.assert_allclose(normalize_peak(once, TARGET), once, rtol=1e-9)

    def test_custom_target(self):
        np.testing.assert_allclose(normalize_peak(np.array([2.0, -4.0]), 1.0), [0.5, -1.0])

    def test_underflowing_scale_rejected(self):
        # 1e-100 / 1e250 underflows to 0.0, which would zero every sample
        x = 1e250 * np.sin(np.arange(1, 1001) * 0.1)
        with pytest.raises(ValueError, match="scaling the peak .* to 1e-100 underflows float64"):
            normalize_peak(x, 1e-100)


class TestEnergyProfile:
    """The frame energies and the strict 110% rule, seen through the span."""

    def test_hand_computed_energies(self):
        # frames 0-8 are silent, frame 9 half speech (5e5), frames 10-18 full (1e6);
        # the silence reference is (9 * 0 + 5e5) / 10 = 5e4, so frame 9 is speech
        x = np.concatenate((np.zeros(500), np.full(500, 1000.0)))
        assert span(x) == (450, 1000)
        # the reference averages the k lowest frames: at k = 17 it is (5e5 + 7 * 1e6) / 17,
        # and 1.10 times that stays below frame 9's 5e5; at k = 18 it passes 5e5
        assert span(x, silence_frames=17) == (450, 1000)
        assert span(x, silence_frames=18) == (500, 1000)

    def test_default_silence_frames_is_ten(self):
        # 10-sample frames: 8 silent, then energies 1, 10 and 100 ahead of four at 1e4;
        # 1.10 times the mean of the 9, 10 and 11 lowest is 0.12, 1.21 and 11.1, so each
        # added reference frame moves the span start past one more quiet frame
        x = np.repeat([0.0] * 8 + [1.0, np.sqrt(10.0), 10.0] + [100.0] * 4, 10)
        frames = {"frame_len": 10, "frame_shift": 10}
        assert span(x, silence_frames=9, **frames) == (80, 150)
        assert span(x, silence_frames=10, **frames) == (90, 150)
        assert span(x, silence_frames=11, **frames) == (100, 150)
        assert span(x, **frames) == (90, 150)

    def test_exact_boundary_is_non_speech(self):
        # crafted so frame 12's energy equals 1.10 * silence (4.0) exactly in
        # floats: only the strict > leaves it out and starts the span at frame 13
        x = np.concatenate((
            np.full(120, 2.0),
            np.array([3, 3, 3, 3, 2, 2, 0, 0, 0, 0], dtype=np.float64),
            np.full(10, 10.0),
        ))
        assert np.mean(x[120:130] ** 2) == 1.10 * 4.0
        assert span(x, frame_len=10, frame_shift=10) == (130, 140)

    def test_all_zero_buffer(self):
        with pytest.raises(ValueError, match="no speech detected"):
            span(np.zeros(400))

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            span(np.ones(50))

    def test_flag_count_monotone_in_multiplier(self):
        # a higher multiplier flags a subset of the speech frames, so the span nests
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 3000) * np.repeat(rng.uniform(0.01, 1.0, 30), 100)
        previous = (0, x.size)
        for multiplier in (0.5, 1.0, 1.1, 2.0, 5.0):
            try:
                start, stop = span(x, silence_multiplier=multiplier)
            except ValueError:
                start, stop = previous[0], previous[0]
            assert previous[0] <= start <= stop <= previous[1]
            previous = (start, stop)


class TestTrimSilence:
    def test_all_speech_is_identity(self):
        # every frame past the quiet head has energy 5e5, beyond 1.10 * 4.25e5
        x = 1000.0 * np.sin(2 * np.pi * np.arange(1000) / 50)
        x[:100] = 0.0
        assert span(x) == (100, 1000)
        out = preprocess_signal(SampleBuffer(x, 16000))
        np.testing.assert_array_equal(out.samples, normalize_peak(remove_dc(x), TARGET)[100:])
        assert out.sample_rate_hz == 16000

    def test_interior_span_kept(self):
        # the silent gap between the two bursts stays, so no waveform is spliced
        x = np.concatenate((np.zeros(400), np.full(300, 1000.0), np.zeros(300),
                            np.full(300, 1000.0), np.zeros(400)))
        assert span(x) == (350, 1350)  # speech plus one half-silent frame each side

    def test_no_speech_rejected(self):
        # a flat signal: no frame is beyond 110% of the silence reference
        with pytest.raises(ValueError, match="no speech detected"):
            span(np.full(500, 3.0))

    def test_never_lengthens(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(0, 1, 700) * np.repeat(rng.uniform(0, 1, 7) ** 3, 100)
            try:
                start, stop = span(x)
            except ValueError:
                continue
            assert 0 <= start < stop <= x.size


class TestFramePlan:
    """The frame pair, checked by PipelineConfig."""

    def test_shift_must_not_exceed_len(self):
        with pytest.raises(ValueError, match="need frame_shift <= frame_len, got 100/50"):
            PipelineConfig(frame_len=50, frame_shift=100)

    def test_shift_positive(self):
        with pytest.raises(ValueError, match="frame_shift must be finite and positive"):
            PipelineConfig(frame_shift=0)


class TestNormalizationTarget:
    @pytest.mark.parametrize("target", [1e-101, 1e101])
    def test_out_of_range(self, target):
        with pytest.raises(ValueError, match=r"normalization_target must be within \[1e-100, 1e100\]"):
            PipelineConfig(normalization_target=target)

    def test_range_ends_give_the_same_features(self, tmp_path):
        path = tmp_path / "v.txt"
        write_text_samples(synth_vowel(120.0, VOWEL_FORMANTS["a"], 0.4, 16000, seed=3, silence_pad_s=0.05), path)
        default = utterance_features_from_file(path, "a").vector
        for target in (1e-100, 1e100):
            vector = utterance_features_from_file(path, "a", PipelineConfig(normalization_target=target)).vector
            np.testing.assert_allclose(vector, default, rtol=1e-9)

