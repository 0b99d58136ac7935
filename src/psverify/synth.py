"""Synthetic steady-state vowels, which stand in for the (unavailable)
hand-cut human corpus, and the seeded plan of a labeled corpus of them."""

import math
import sys
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .features import VOWELS
from .signal_io import DEFAULT_SAMPLE_RATE_HZ, SampleBuffer

# average male formant targets (centre Hz, bandwidth Hz) per vowel
VOWEL_FORMANTS = {
    "a": ((730.0, 90.0), (1090.0, 110.0), (2440.0, 170.0)),
    "e": ((530.0, 60.0), (1840.0, 90.0), (2480.0, 200.0)),
    "i": ((270.0, 60.0), (2290.0, 90.0), (3010.0, 200.0)),
    "o": ((570.0, 60.0), (840.0, 80.0), (2410.0, 200.0)),
    "u": ((300.0, 60.0), (870.0, 80.0), (2240.0, 200.0)),
}
WARMUP_S = 0.1  # resonator lead-in synthesized and discarded
# largest relative shift of a corpus utterance's F0 and formants, drawn once per utterance
UTTERANCE_F0_SPREAD = 0.02
UTTERANCE_FORMANT_SPREAD = 0.03
# the resonators' impulse response is cut once the slowest one's envelope
# r**m falls below 2**-DECAY_BITS; a bandwidth whose response would outlast
# MAX_RESPONSE samples (about 0.2 Hz at 16 kHz) is refused
DECAY_BITS = 60
MAX_RESPONSE = 2**20


def _decay_samples(bandwidth: float, sample_rate_hz: int) -> float:
    """Samples for a resonator of this bandwidth to decay below 2**-DECAY_BITS:
    its poles have radius r = exp(-pi * bandwidth / rate)."""
    return DECAY_BITS * math.log(2) * sample_rate_hz / (math.pi * bandwidth)


def _check_sizes(duration_s: float, silence_pad_s: float, sample_rate_hz: int) -> None:
    # an int past the largest float is finite, but no product with it is
    if not 0 < sample_rate_hz <= sys.float_info.max:
        raise ValueError(f"sample_rate_hz must be finite and positive, at most {sys.float_info.max:g}, "
                         f"got {sample_rate_hz}")
    if not 0 < duration_s < np.inf:
        raise ValueError(f"duration_s must be finite and positive, got {duration_s}")
    if not 0 <= silence_pad_s < np.inf:
        raise ValueError(f"silence_pad_s must be finite and non-negative, got {silence_pad_s}")
    for name, seconds in (("duration_s", duration_s), ("silence_pad_s", silence_pad_s)):
        if seconds * sample_rate_hz == np.inf:
            raise ValueError(f"{name} {seconds} s overflows a sample count at {sample_rate_hz} Hz")


def _check_voice(f0_hz: float, formants, sample_rate_hz: int, duration_s: float) -> tuple:
    """The formants as a tuple, once the f0 and every formant fit the rate
    and a whole period fits the voiced part."""
    # the period, round(rate / f0) samples, must be a count an int64 holds
    if not 0 < f0_hz < sample_rate_hz / 2 or not sample_rate_hz / f0_hz < 2**63:
        raise ValueError(f"f0 {f0_hz} Hz out of range for rate {sample_rate_hz}")
    period, voiced = round(sample_rate_hz / f0_hz), round(duration_s * sample_rate_hz)
    if period > voiced:  # no impulse would land in the voiced part
        raise ValueError(f"f0 {f0_hz} Hz: a period of {period} samples exceeds the {voiced} voiced samples")
    formants = tuple(formants)
    if len(formants) > 3:
        raise ValueError("at most three formants")
    for centre, bandwidth in formants:
        if not 0 < centre < sample_rate_hz / 2:
            raise ValueError(f"formant centre {centre} Hz beyond Nyquist")
        if not 0 < bandwidth < np.inf:
            raise ValueError(f"formant bandwidth must be finite and positive, got {bandwidth}")
        if not _decay_samples(bandwidth, sample_rate_hz) <= MAX_RESPONSE:
            raise ValueError(f"formant bandwidth {bandwidth} Hz too narrow for rate {sample_rate_hz}: "
                             f"its resonance outlasts {MAX_RESPONSE} samples")
    return formants


@lru_cache(maxsize=2)
def _unit_delays(size: int) -> tuple:
    """z**-1 and z**-2 on the real-FFT grid of `size` points, read-only."""
    z = np.exp(-2j * np.pi * np.arange(size // 2 + 1) / size)
    z2 = z * z
    z.flags.writeable = z2.flags.writeable = False
    return z, z2


def _impulse_response(formants, sample_rate_hz: int) -> np.ndarray:
    """The impulse response of the resonator cascade, up to where the
    narrowest resonator has decayed: one inverse real FFT of the reciprocal
    of the sections' product on a grid at least that long."""
    if not formants:
        return np.ones(1)
    decay = _decay_samples(min(bandwidth for _, bandwidth in formants), sample_rate_hz)
    size = 1 << (math.ceil(decay) - 1).bit_length()
    z, z2 = _unit_delays(size)
    denominator = np.ones_like(z)
    for centre, bandwidth in formants:
        r = np.exp(-np.pi * bandwidth / sample_rate_hz)
        theta = 2.0 * np.pi * centre / sample_rate_hz
        # one section 1 - 2r cos(theta) z**-1 + r**2 z**-2 at a time: the three
        # expanded into one 6th-order polynomial lose two to three digits
        section = z * (-2.0 * r * np.cos(theta))
        section += 1.0
        section += r * r * z2
        denominator *= section
    return np.fft.irfft(np.divide(1.0, denominator, out=denominator), size)


def synth_vowel(
    f0_hz: float,
    formants,
    duration_s: float,
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ,
    seed: int = 0,
    silence_pad_s: float = 0.0,
) -> SampleBuffer:
    """Steady-state synthetic vowel: an impulse train at period
    round(rate/f0) through up to three two-pole resonators.

    The resonators run for an extra lead-in that is cut off, so the emitted
    samples are already in the periodic steady state (the onset transient
    would not appear in a manually cut vowel segment either). The seed only
    moves the train onset inside the first period; the true source period
    stays exactly round(rate/f0) for oracle use. Optional zero-padding
    surrounds the voiced part with silence.
    """
    _check_sizes(duration_s, silence_pad_s, sample_rate_hz)
    formants = _check_voice(f0_hz, formants, sample_rate_hz, duration_s)
    period = int(round(sample_rate_hz / f0_hz))
    n = int(round(duration_s * sample_rate_hz))
    warmup = int(round(WARMUP_S * sample_rate_hz))
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, period))
    # from the first pulse on, row i of one-period rows is the impulse
    # response's rows 0..i summed: one pulse per period, each adding a copy
    rows = -(-(warmup + n - offset) // period)
    out = np.zeros(offset + rows * period)
    response = _impulse_response(formants, sample_rate_hz)[:rows * period]
    out[offset:offset + len(response)] = response
    train = out[offset:].reshape(rows, period)
    # past the response's last row each row adds nothing: the sums repeat
    support = -(-len(response) // period)
    np.cumsum(train[:support], axis=0, out=train[:support])
    train[support:] = train[support - 1]
    out = out[warmup:warmup + n]
    if silence_pad_s > 0:
        pad = np.zeros(int(round(silence_pad_s * sample_rate_hz)))
        out = np.concatenate((pad, out, pad))
    return SampleBuffer(out, sample_rate_hz)


# one planned corpus utterance: speaker (from 0), vowel, split, take (from 0
# over the speaker's takes of the vowel, train first) and the voice to render
Utterance = namedtuple("Utterance", "speaker vowel split take f0_hz formants seed")


def corpus_plan(n_speakers: int, train_per_vowel: int, test_per_vowel: int, seed: int,
                sample_rate_hz: int, duration_s: float, silence_pad_s: float) -> list[Utterance]:
    """Every utterance of a corpus, drawn from one seed and checked, speaker
    by speaker, vowel by vowel in `VOWELS` order. Each speaker gets a distinct
    fundamental and a vocal-tract scale applied to the vowel formant table;
    each utterance shifts both slightly and draws its pulse-train seed."""
    if n_speakers < 2:
        raise ValueError("need at least two speakers")
    if train_per_vowel < 1 or test_per_vowel < 0:
        raise ValueError("invalid utterance counts")
    _check_sizes(duration_s, silence_pad_s, sample_rate_hz)
    rng = np.random.default_rng(seed)
    f0s = np.linspace(95.0, 250.0, n_speakers) + rng.uniform(-2.0, 2.0, n_speakers)
    scales = np.linspace(0.88, 1.12, n_speakers)
    plan = []
    for s in range(n_speakers):
        for vowel in VOWELS:
            for take in range(train_per_vowel + test_per_vowel):
                split = "train" if take < train_per_vowel else "test"
                f0 = f0s[s] * (1.0 + rng.uniform(-UTTERANCE_F0_SPREAD, UTTERANCE_F0_SPREAD))
                formants = tuple(
                    (centre * scales[s]
                     * (1.0 + rng.uniform(-UTTERANCE_FORMANT_SPREAD, UTTERANCE_FORMANT_SPREAD)), bw)
                    for centre, bw in VOWEL_FORMANTS[vowel]
                )
                formants = _check_voice(f0, formants, sample_rate_hz, duration_s)
                plan.append(Utterance(s, vowel, split, take, f0, formants, int(rng.integers(0, 2**31))))
    return plan
