import numpy as np
import pytest

from psverify.pipeline import PipelineConfig, preprocess_signal
from psverify.preprocess import PEAK, normalize_peak, remove_dc, speech_span
from psverify.signal_io import SampleBuffer


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
        out = normalize_peak(np.array([0.0, 5000.0, -2500.0]))
        np.testing.assert_allclose(out, [0, 10000, -5000], rtol=1e-9)

    def test_peak_already_at_target(self):
        x = np.array([0.0, 10000.0, -3000.0])
        np.testing.assert_array_equal(normalize_peak(x), x)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            normalize_peak(np.zeros(3))

    def test_subnormal_peak_rejected_as_silent(self):
        # PEAK / peak overflows to inf for a subnormal peak
        with pytest.raises(ValueError, match="silent signal"):
            normalize_peak(np.array([0.0, 3e-316, -1e-320]))

    def test_subnormal_dc_residue_is_silent(self):
        # removing the DC of a constant 1e-300 leaves residues near 3e-316
        with pytest.raises(ValueError, match="silent signal"):
            preprocess_signal(SampleBuffer(np.full(970, 1e-300), 16000))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once = normalize_peak(rng.normal(0, 1, 500))
        assert np.abs(once).max() == pytest.approx(10000.0, rel=1e-9)
        np.testing.assert_allclose(normalize_peak(once), once, rtol=1e-9)

    def test_largest_finite_peak_scales_normally(self):
        # PEAK / 1.8e308 = 5.6e-305 is still a normal float64, so no finite
        # input needs an underflow refusal
        out = normalize_peak(np.array([np.finfo(np.float64).max, -1.0]))
        assert np.abs(out).max() == pytest.approx(PEAK, rel=1e-12)
        assert out[1] < 0


class TestEnergyProfile:
    """The 100-sample frames every 50 samples and the strict 110% rule, seen
    through the span."""

    def test_hand_computed_energies(self):
        # frames 0-8 are silent, frame 9 half speech (5e5), frames 10-18 full (1e6);
        # the silence reference is (9 * 0 + 5e5) / 10 = 5e4, so frame 9 is speech
        x = np.concatenate((np.zeros(500), np.full(500, 1000.0)))
        assert speech_span(x) == (450, 1000)

    def test_default_silence_frames_is_ten(self):
        # 50-sample blocks of energy 0 (9 blocks), 1, 9 and 169, then four of 1e4;
        # a frame spans two blocks, so frames 0-7 are silent and frames 8, 9 and 10
        # have energies 0.5, 5 and 89. 1.10 times the mean of the 9, 10 and 11
        # lowest frames is 0.061, 0.605 and 9.45: a reference of 9 frames would
        # start the span at frame 8, one of 11 at frame 10; 10 starts it at frame 9
        x = np.repeat([0.0] * 9 + [1.0, 3.0, 13.0] + [100.0] * 4, 50)
        assert speech_span(x) == (450, 800)

    def test_exact_boundary_is_non_speech(self):
        # frames 0-10 have energy 4.0 and frame 11 has (50 * 4 + 240) / 100 =
        # 1.10 * 4.0 exactly in floats: only the strict > leaves it out and
        # starts the span at frame 12
        x = np.concatenate((
            np.full(600, 2.0),
            np.repeat([2.0, 4.0, 0.0], [40, 5, 5]),
            np.full(100, 10.0),
        ))
        assert np.mean(x[550:650] ** 2) == 1.10 * 4.0
        assert speech_span(x) == (600, 750)

    def test_all_zero_buffer(self):
        with pytest.raises(ValueError, match="no speech detected"):
            speech_span(np.zeros(400))

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            speech_span(np.ones(50))


class TestTrimSilence:
    def test_all_speech_is_identity(self):
        # every frame past the quiet head has energy 5e5, beyond 1.10 * 4.25e5
        x = 1000.0 * np.sin(2 * np.pi * np.arange(1000) / 50)
        x[:100] = 0.0
        assert speech_span(x) == (100, 1000)
        out = preprocess_signal(SampleBuffer(x, 16000))
        np.testing.assert_array_equal(out.samples, normalize_peak(remove_dc(x))[100:])
        assert out.sample_rate_hz == 16000

    def test_interior_span_kept(self):
        # the silent gap between the two bursts stays, so no waveform is spliced
        x = np.concatenate((np.zeros(400), np.full(300, 1000.0), np.zeros(300),
                            np.full(300, 1000.0), np.zeros(400)))
        assert speech_span(x) == (350, 1350)  # speech plus one half-silent frame each side

    def test_no_speech_rejected(self):
        # a flat signal: no frame is beyond 110% of the silence reference
        with pytest.raises(ValueError, match="no speech detected"):
            speech_span(np.full(500, 3.0))

    def test_never_lengthens(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(0, 1, 700) * np.repeat(rng.uniform(0, 1, 7) ** 3, 100)
            try:
                start, stop = speech_span(x)
            except ValueError:
                continue
            assert 0 <= start < stop <= x.size


class TestPipelineConfig:
    """The checks on the settings that remain: the rate and the pitch bounds."""

    def test_rate_positive(self):
        with pytest.raises(ValueError, match="sample_rate_hz must be finite and positive"):
            PipelineConfig(sample_rate_hz=0)

    @pytest.mark.parametrize("field, value", [
        ("sample_rate_hz", 16000.5), ("sample_rate_hz", 16000.0),  # a whole float fails too
    ])
    def test_integer_settings_refuse_floats(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            PipelineConfig(**{field: value})

    def test_integer_settings_take_numpy_integers(self):
        assert PipelineConfig(sample_rate_hz=np.int64(8000)).sample_rate_hz == 8000

