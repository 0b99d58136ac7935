import numpy as np
import pytest

from psverify.pipeline import preprocess_signal
from psverify.preprocess import (
    FramePlan,
    energy_profile,
    normalize_peak,
    remove_dc,
    trim_silence,
)
from psverify.signal_io import SampleBuffer


def buf(values, rate=16000):
    return SampleBuffer(np.asarray(values, dtype=np.float64), rate)


class TestRemoveDc:
    def test_mean_subtraction(self):
        np.testing.assert_array_equal(remove_dc(buf([3, 1, 2])).samples, [1, -1, 0])

    def test_constant_signal(self):
        np.testing.assert_array_equal(remove_dc(buf([7, 7, 7])).samples, [0, 0, 0])

    def test_zero_mean_unchanged(self):
        x = [1.0, -1.0, 2.0, -2.0]
        np.testing.assert_array_equal(remove_dc(buf(x)).samples, x)

    def test_output_mean_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5000, 12000, 4096)
        out = remove_dc(buf(x)).samples
        assert abs(out.mean()) <= 1e-9 * (np.abs(out).max() + 1)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = remove_dc(buf(rng.normal(100, 50, 1000)))
        twice = remove_dc(once)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-9)


class TestNormalizePeak:
    def test_scaling(self):
        out = normalize_peak(buf([0, 5000, -2500]))
        np.testing.assert_allclose(out.samples, [0, 10000, -5000], rtol=1e-9)

    def test_peak_already_at_target(self):
        x = [0.0, 10000.0, -3000.0]
        np.testing.assert_array_equal(normalize_peak(buf(x)).samples, x)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            normalize_peak(buf([0, 0, 0]))

    def test_subnormal_peak_rejected_as_silent(self):
        # target / peak overflows to inf for a subnormal peak
        with pytest.raises(ValueError, match="silent signal"):
            normalize_peak(buf([0.0, 3e-316, -1e-320]))

    def test_subnormal_dc_residue_is_silent(self):
        # removing the DC of a constant 1e-300 leaves residues near 3e-316
        with pytest.raises(ValueError, match="silent signal"):
            preprocess_signal(buf(np.full(970, 1e-300)))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once = normalize_peak(buf(rng.normal(0, 1, 500)))
        twice = normalize_peak(once)
        assert np.abs(once.samples).max() == pytest.approx(10000.0, rel=1e-9)
        np.testing.assert_allclose(twice.samples, once.samples, rtol=1e-9)

    def test_custom_target(self):
        out = normalize_peak(buf([2.0, -4.0]), target=1.0)
        np.testing.assert_allclose(out.samples, [0.5, -1.0])


class TestEnergyProfile:
    def test_hand_computed_energies(self):
        x = np.concatenate((np.zeros(500), np.full(500, 1000.0)))
        profile = energy_profile(buf(x), FramePlan(100, 50))
        assert profile.frame_energies.shape == (19,)
        np.testing.assert_array_equal(profile.frame_energies[:9], 0.0)
        assert profile.frame_energies[9] == pytest.approx(5e5)
        np.testing.assert_allclose(profile.frame_energies[10:], 1e6)
        assert profile.silence_energy == pytest.approx(5e4)
        np.testing.assert_array_equal(profile.speech_flags, [False] * 9 + [True] * 10)

    def test_exact_boundary_is_non_speech(self):
        # crafted so a frame's energy equals 1.10 * silence exactly in floats
        x = np.concatenate((
            np.full(120, 2.0),
            np.array([3, 3, 3, 3, 2, 2, 0, 0, 0, 0], dtype=np.float64),
            np.full(10, 10.0),
        ))
        profile = energy_profile(buf(x), FramePlan(10, 10), silence_frames=10)
        assert profile.silence_energy == 4.0
        assert profile.frame_energies[12] == 1.10 * 4.0
        assert not profile.speech_flags[12]
        assert profile.speech_flags[13]

    def test_all_zero_buffer(self):
        profile = energy_profile(buf(np.zeros(400)))
        assert profile.silence_energy == 0.0
        assert not profile.speech_flags.any()

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            energy_profile(buf(np.ones(50)), FramePlan(100, 50))

    def test_flag_count_monotone_in_multiplier(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 3000) * np.repeat(rng.uniform(0.01, 1.0, 30), 100)
        previous = None
        for multiplier in (0.5, 1.0, 1.1, 2.0, 5.0):
            profile = energy_profile(buf(x), silence_multiplier=multiplier)
            count = int(profile.speech_flags.sum())
            if previous is not None:
                assert count <= previous
            previous = count


class TestTrimSilence:
    def test_all_speech_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1000, 1000)
        x[:100] = 0.0  # give the silence estimate something quiet
        plan = FramePlan(100, 50)
        profile = energy_profile(buf(x), plan)
        out = trim_silence(buf(x), profile, plan)
        start = int(np.nonzero(profile.speech_flags)[0][0]) * plan.frame_shift
        np.testing.assert_array_equal(out.samples, x[start : start + len(out)])

    def test_interior_span_kept(self):
        x = np.concatenate((np.zeros(400), np.full(600, 1000.0), np.zeros(400)))
        plan = FramePlan(100, 50)
        profile = energy_profile(buf(x), plan)
        out = trim_silence(buf(x), profile, plan)
        speech = np.nonzero(profile.speech_flags)[0]
        expected_start = int(speech[0]) * plan.frame_shift
        expected_stop = int(speech[-1]) * plan.frame_shift + plan.frame_len
        np.testing.assert_array_equal(out.samples, x[expected_start:expected_stop])
        assert np.all(np.abs(out.samples) >= 0)
        assert 600 <= len(out) <= 800  # speech plus at most one frame each side

    def test_no_speech_rejected(self):
        plan = FramePlan(100, 50)
        silent = buf(np.zeros(500))
        profile = energy_profile(silent, plan)
        with pytest.raises(ValueError, match="no speech"):
            trim_silence(silent, profile, plan)

    def test_never_lengthens(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(0, 1, 700) * np.repeat(rng.uniform(0, 1, 7) ** 3, 100)
            plan = FramePlan(100, 50)
            profile = energy_profile(buf(x), plan)
            if not profile.speech_flags.any():
                continue
            out = trim_silence(buf(x), profile, plan)
            assert len(out) <= len(x)


class TestFramePlan:
    def test_shift_must_not_exceed_len(self):
        with pytest.raises(ValueError):
            FramePlan(50, 100)

    def test_shift_positive(self):
        with pytest.raises(ValueError):
            FramePlan(100, 0)
