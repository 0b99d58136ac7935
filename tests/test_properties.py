"""Property tests: the vectorized stages against loop oracles, the
pipeline, the settings, the text loader, the manifest and the model file on
arbitrary input, and the array-backed distance report against plain dicts."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_argmin,
    brute_extrema,
    brute_half_peaks,
    composed_vector,
    loop_cepstra,
    loop_levinson,
    reference_load_text,
    report_key,
    weighted_distance,
)
from psverify.decision import DistanceReport, DistanceWeights, score_against_models
from psverify.features import (
    LPC_ORDER,
    MAX_CEPSTRAL_FRAMES,
    VOWELS,
    CepstralVector,
    TemporalFeatures,
    UtteranceFeatures,
    autocorrelation,
    levinson_durbin,
    lpc_to_cepstral,
    pitch_synchronous_cepstra,
    temporal_features,
)
from psverify.evaluation import load_manifest
from psverify.modeling import ModelSet, SpeakerModel, load_models, save_models, speaker_id_error
from psverify.pipeline import PipelineConfig, detect_marks, load_signal, preprocess_signal
from psverify.pitch import compute_stats, extract_half_peaks
from psverify.signal_io import SampleBuffer, load_text_samples
from psverify.synth import VOWEL_FORMANTS, synth_vowel

PROPERTY = settings(max_examples=200, deadline=None)

# small integers give exact zeros and plateaus; floats give ties only by chance
int_signals = st.lists(st.integers(-3, 3), min_size=1, max_size=300)
float_signals = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=300
)


def brute_mpds(signs, values):
    """Largest |difference| to the previous/next peak of the same sign."""
    mpds = []
    for i, (sign, value) in enumerate(zip(signs, values)):
        same = [j for j in range(len(signs)) if signs[j] == sign]
        pos = same.index(i)
        neighbours = [values[j] for j in same[max(pos - 1, 0) : pos + 2] if j != i]
        mpds.append(max([abs(value - v) for v in neighbours], default=0.0))
    return mpds


def check_half_peaks(samples):
    x = np.asarray(samples, dtype=np.float64)
    signs, indices, values = brute_half_peaks(x)
    if not (np.any(signs > 0) and np.any(signs < 0)):
        with pytest.raises(ValueError, match="no sign alternation"):
            extract_half_peaks(SampleBuffer(x, 16000))
        return
    peaks = extract_half_peaks(SampleBuffer(x, 16000))
    np.testing.assert_array_equal(peaks.signs, signs)
    np.testing.assert_array_equal(peaks.indices, indices)
    np.testing.assert_array_equal(peaks.values, values)
    assert peaks.mpds.tolist() == brute_mpds(signs.tolist(), values.tolist())


@PROPERTY
@given(int_signals)
def test_half_peaks_match_loop_on_integers(samples):
    check_half_peaks(samples)


@PROPERTY
@given(float_signals)
def test_half_peaks_match_loop_on_floats(samples):
    check_half_peaks(samples)


@st.composite
def signal_with_region(draw, min_length):
    """A signal and 1..20 contiguous periods inside it."""
    lengths = draw(st.lists(st.integers(min_length, 40), min_size=1, max_size=20))
    lead = draw(st.integers(0, 10))
    starts = lead + np.concatenate(([0], np.cumsum(lengths)[:-1]))
    n = lead + sum(lengths) + draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(-3, 4, n).astype(np.float64)
    else:
        x = rng.normal(0.0, 1.0, n)
    return x, np.column_stack((starts, lengths))


@PROPERTY
@given(signal_with_region(min_length=3))
def test_temporal_features_match_per_period_loop(case):
    x, region = case
    totals = np.zeros(4)
    for start, length in region.tolist():
        totals += brute_extrema(x[start : start + length])
    feats = temporal_features(SampleBuffer(x, 16000), region)
    np.testing.assert_array_equal(feats.vector, totals / len(region))


@PROPERTY
@given(signal_with_region(min_length=5))
def test_cepstra_equal_per_frame_chain(case):
    x, region = case
    n_frames = min(len(region) - 2, MAX_CEPSTRAL_FRAMES)
    buffer = SampleBuffer(x, 16000)
    try:
        acc = np.zeros(LPC_ORDER)
        for i in range(n_frames):
            start = region[i, 0]
            last_start, last_len = region[i + 2]
            a, _, _ = levinson_durbin(autocorrelation(x[start : last_start + last_len]))
            acc += lpc_to_cepstral(a).c
    except ValueError:
        with pytest.raises(ValueError):
            pitch_synchronous_cepstra(buffer, region)
        return
    if n_frames < 1:
        with pytest.raises(ValueError, match="region too short"):
            pitch_synchronous_cepstra(buffer, region)
        return
    np.testing.assert_array_equal(pitch_synchronous_cepstra(buffer, region).c, acc / n_frames)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(LPC_ORDER + 1, 400))
def test_levinson_and_cepstra_equal_scalar_loops(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    if seed % 2:  # resonant frames, where rounding differences grow most
        x = np.sin(2 * np.pi * rng.uniform(0.01, 0.2) * np.arange(n)) + 0.05 * x
    a, k, err = levinson_durbin(autocorrelation(x))
    for ours, loop in zip((a, k, err), loop_levinson(autocorrelation(x))):
        np.testing.assert_array_equal(ours, loop)
    np.testing.assert_array_equal(lpc_to_cepstral(a).c, loop_cepstra(a))


RATE = 16000


@st.composite
def finite_signals(draw):
    """1..3000 finite samples: noise, small integers, a constant or a
    synthetic vowel, scaled by 1e-300..1e300."""
    n = draw(st.integers(1, 3000))
    kind = draw(st.sampled_from(["noise", "integers", "constant", "vowel"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "noise":
        x = rng.normal(0.0, 1.0, n)
    elif kind == "integers":
        x = rng.integers(-3, 4, n).astype(np.float64)
    elif kind == "constant":
        x = np.full(n, 1.0)
    else:
        vowel = draw(st.sampled_from(sorted(VOWEL_FORMANTS)))
        f0 = draw(st.floats(60.0, 400.0))
        # synth_vowel refuses a signal shorter than one period; the first n samples
        # of a longer one are the same, since the resonators are causal
        voiced = max(n, round(RATE / f0))
        x = synth_vowel(f0, VOWEL_FORMANTS[vowel], voiced / RATE, RATE, seed=int(rng.integers(1000))).samples[:n]
        x = x / max(np.max(np.abs(x)), 1.0)  # peak at most 1, so the scaled signal stays finite
        x = x + draw(st.sampled_from([0.0, 0.01, 0.3])) * np.max(np.abs(x)) * rng.normal(0.0, 1.0, x.size)
    return x * 10.0 ** draw(st.integers(-300, 300))


@PROPERTY
@given(finite_signals())
def test_pipeline_raises_only_value_error(x):
    buffer = SampleBuffer(x, RATE)
    try:
        trimmed = preprocess_signal(buffer)
        composed_vector(trimmed, detect_marks(trimmed))
    except ValueError:
        pass


@PROPERTY
@given(finite_signals())
def test_marks_increase_within_period_bounds(x):
    config = PipelineConfig()
    try:
        trimmed = preprocess_signal(SampleBuffer(x, RATE), config)
        marks = detect_marks(trimmed, config).mark_indices
    except ValueError:
        return
    min_period, max_period = config.period_bounds(RATE)
    gaps = np.diff(marks)
    assert 0 <= marks[0] and marks[-1] < len(trimmed)
    assert np.all(gaps > 0)
    assert np.all((gaps >= min_period) & (gaps <= max_period)), gaps


@st.composite
def noisy_vowels(draw):
    """A synthetic vowel, with or without noise, a DC offset and silence around it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vowel = draw(st.sampled_from(sorted(VOWEL_FORMANTS)))
    x = synth_vowel(
        draw(st.floats(60.0, 400.0)), VOWEL_FORMANTS[vowel], draw(st.floats(0.1, 0.4)), RATE,
        seed=int(rng.integers(1000)), silence_pad_s=draw(st.sampled_from([0.0, 0.05])),
    ).samples
    noise = draw(st.sampled_from([0.0, 0.01, 0.3])) * np.max(np.abs(x)) * rng.normal(0.0, 1.0, x.size)
    return x + noise + draw(st.sampled_from([0.0, 0.5]))


@PROPERTY
@given(noisy_vowels())
def test_negation_swaps_the_signed_counts_and_keeps_the_cepstra(x):
    # negation swaps the halves' polarities and crests with troughs; a stage
    # that refuses the signal refuses its negation with the same message
    def refused_alike(exc, stage, negated_buffer):
        with pytest.raises(ValueError) as refused:
            stage(negated_buffer)
        assert str(refused.value) == str(exc)

    try:
        trimmed = preprocess_signal(SampleBuffer(x, RATE))
    except ValueError as exc:
        return refused_alike(exc, preprocess_signal, SampleBuffer(-x, RATE))
    negated = preprocess_signal(SampleBuffer(-x, RATE))
    assert negated.samples.tobytes() == (-trimmed.samples).tobytes()
    # the rules break the symmetry where choose_polarity ties, picking +1, and
    # at a strict extremum centred on exactly 0, which counts as negative
    stats = compute_stats(extract_half_peaks(trimmed))
    (ampv_pos, std_pos, _), (ampv_neg, std_neg, _) = stats[1], stats[-1]
    assume(ampv_pos > 0.0 and ampv_neg > 0.0 and std_pos / ampv_pos != std_neg / ampv_neg)
    a, c, b = trimmed.samples[:-2], trimmed.samples[1:-1], trimmed.samples[2:]
    assume(not np.any((c == 0.0) & (a * b > 0.0)))
    try:
        marks = detect_marks(trimmed)
        vector = composed_vector(trimmed, marks)
    except ValueError as exc:
        return refused_alike(exc, lambda buffer: composed_vector(buffer, detect_marks(buffer)), negated)
    negated_marks = detect_marks(negated)
    assert negated_marks.polarity_used == -marks.polarity_used
    assert negated_marks.mark_indices.tolist() == marks.mark_indices.tolist()
    negated_vector = composed_vector(negated, negated_marks)
    poc, pot, nec, net = vector[:4].tolist()
    assert negated_vector[:4].tolist() == [net, nec, pot, poc]
    assert negated_vector[4:].tobytes() == vector[4:].tobytes()


def test_constant_offset_keeps_the_marks_and_the_counts(small_corpus):
    # DC removal takes a constant added to every sample back out, up to the
    # rounding of the mean; the offset is added in memory, since a text file's
    # %.12g rounding would be a relation of its own
    _, entries = small_corpus
    for entry in entries:
        buffer = load_signal(entry.path)
        trimmed = preprocess_signal(buffer)
        marks = detect_marks(trimmed)
        vector = composed_vector(trimmed, marks)
        peak = np.max(np.abs(buffer.samples))
        for fraction in (-0.25, 0.25, 1.0):
            shifted = preprocess_signal(SampleBuffer(buffer.samples + fraction * peak, buffer.sample_rate_hz))
            shifted_marks = detect_marks(shifted)
            assert shifted_marks.polarity_used == marks.polarity_used, (entry.path, fraction)
            assert shifted_marks.mark_indices.tolist() == marks.mark_indices.tolist(), (entry.path, fraction)
            shifted_vector = composed_vector(shifted, shifted_marks)
            assert shifted_vector[:4].tobytes() == vector[:4].tobytes(), (entry.path, fraction)
            np.testing.assert_allclose(shifted_vector[4:], vector[4:], rtol=0, atol=1e-11,
                                       err_msg=f"{entry.path} {fraction}")


@PROPERTY
@given(
    st.one_of(st.integers(min_value=1), st.integers(300, 400).map(lambda e: 10**e)),
    st.floats(),
    st.floats(),
)
def test_settings_give_int_period_bounds_or_value_error(sample_rate_hz, min_f0_hz, max_f0_hz):
    try:
        config = PipelineConfig(sample_rate_hz=sample_rate_hz, min_f0_hz=min_f0_hz, max_f0_hz=max_f0_hz)
    except ValueError:
        return
    min_period, max_period = config.period_bounds(sample_rate_hz)
    assert type(min_period) is int and type(max_period) is int
    assert 2 <= min_period <= max_period


TEXT_TOKENS = [
    b"0", b"1", b"-2.5", b"+.5e3", b"1e308", b"1e999", b"-inf", b"nan", b"0x1p3", b"1_0",
    b"2 3", b"x", b" ", b"\t", b"\n", b"\r\n", b"\r", b"\x00", b"\xef\xbb\xbf", b"\xc2\x85",
    b"\xe2\x80\xa8", b"\xff",
]
text_files = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(TEXT_TOKENS), max_size=40).map(b"".join),
)


@pytest.fixture(scope="module")
def text_path(tmp_path_factory):
    return tmp_path_factory.mktemp("text") / "signal.txt"


@settings(max_examples=1000, deadline=None)
@given(data=text_files)
def test_text_loader_gives_finite_samples_or_value_error(text_path, data):
    text_path.write_bytes(data)
    try:
        buffer = load_text_samples(text_path)
    except ValueError:
        return
    assert buffer.samples.size > 0
    assert np.all(np.isfinite(buffer.samples))


MANIFEST_TOKENS = [
    b"path,speaker_id,vowel,split\n", b"path", b"speaker_id", b"vowel", b"split", b"x.txt", b"s01",
    b"a", b"u", b"train", b"test", b",", b'"', b"\n", b"\r\n", b"\r", b" ", b"\x00", b"\xef\xbb\xbf",
    b"\xc2\x85", b"\xff",
]
manifest_files = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(MANIFEST_TOKENS), max_size=40).map(b"".join),
)


@settings(max_examples=1000, deadline=None)
@given(data=manifest_files)
def test_manifest_gives_entries_or_value_error_naming_the_path(text_path, data):
    text_path.write_bytes(data)
    try:
        entries = load_manifest(text_path)
    except ValueError as refused:
        assert str(refused).startswith(f"{text_path}: ")
        return
    assert entries
    assert all(speaker_id_error(e.speaker_id) is None and e.vowel in VOWELS for e in entries)


# text signals: numbers as the writer and other tools print them, among
# which go a few blank, padded, two-number, underscored, non-finite or
# malformed lines, a comment-like line, and two numbers around a character
# that splitlines() breaks a line at but numpy's reader takes for a separator
number_lines = st.one_of(
    st.floats(-1e6, 1e6).map(lambda v: format(v, ".12g")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-32768, 32767).map(str),
)
odd_lines = st.sampled_from([
    "", " ", "\t", " 7 ", "2 3", "1_0", "+.5e3", "inf", "-inf", "nan", "1e999", "x",
    "#1", "1\x0c2", "1\x0b2", "1\x852", "1\u20282", "1\x1c2",
])


@st.composite
def signal_texts(draw):
    lines = draw(st.lists(number_lines, max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd_lines))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf", b"\xff"])) + text.encode("utf-8")


@settings(max_examples=500, deadline=None)
@given(data=signal_texts())
def test_text_loader_agrees_with_line_oracle(text_path, data):
    text_path.write_bytes(data)
    try:
        expected = reference_load_text(data)
    except ValueError as fault:
        (lineno,) = fault.args
        with pytest.raises(ValueError) as refused:
            load_text_samples(text_path)
        message = str(refused.value)
        assert message.startswith(f"{text_path}: ")
        if lineno:
            assert message.startswith(f"{text_path}: line {lineno}: not a number: ")
        else:
            assert not message.startswith(f"{text_path}: line ")
        return
    loaded = load_text_samples(text_path).samples
    assert loaded.tobytes() == np.array(expected, dtype=np.float64).tobytes()


# ids that the space-separated id lines and UTF-8 must carry exactly: non-ASCII
# text, a trailing NUL (which a numpy "<U" array would drop) and numeric-looking
# ids whose lexicographic order differs from their numeric one
model_ids = st.one_of(
    st.sampled_from(["s1", "s10", "s9", "s\x00", "d\u00e9", "\u8a71\u8005"]),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4).filter(
        lambda sid: speaker_id_error(sid) is None
    ),
)


@st.composite
def model_sets(draw):
    """0-2 speakers, each with models for a random subset of the vowels: every
    prefix and changed byte of the file is loaded, so the sets stay small."""
    model_set = ModelSet()
    for sid in draw(st.lists(model_ids, max_size=2, unique=True)):
        for vowel in sorted(draw(st.sets(st.sampled_from(VOWELS), min_size=1))):
            values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=16, max_size=16))
            model_set.add(SpeakerModel(sid, vowel, values, draw(st.integers(1, 2**63 - 1))))
    return model_set


def model_columns(model_set):
    """Each vowel's ids, matrix bytes and counts."""
    columns = []
    for vowel in VOWELS:
        ids, matrix = model_set.table(vowel)
        columns.append((ids, matrix.tobytes(), [m.n_utterances for m in model_set.for_vowel(vowel)]))
    return columns


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("models") / "models.bin"


@settings(max_examples=20, deadline=None)
@given(model_sets(), st.one_of(st.sampled_from(b"\n \x00\xff"), st.integers(0, 255)))
def test_model_file_round_trips_and_refuses_with_its_path(model_path, model_set, byte):
    """A saved set loads back bit for bit and saves to the same bytes. Every
    prefix of its file, and the file with any one byte set to `byte`, loads
    as a valid set or is refused with a ValueError that names the path."""
    save_models(model_set, model_path)
    data = model_path.read_bytes()
    loaded = load_models(model_path)
    assert model_columns(loaded) == model_columns(model_set)
    save_models(loaded, model_path)
    assert model_path.read_bytes() == data
    prefixes = (data[:n] for n in range(len(data)))
    changed = (data[:i] + bytes([byte]) + data[i + 1 :] for i in range(len(data)) if data[i] != byte)
    for variant in itertools.chain(prefixes, changed):
        model_path.write_bytes(variant)
        try:
            variant_set = load_models(model_path)
        except ValueError as refused:
            assert str(refused).startswith(f"{model_path}: ")
            continue
        for vowel in VOWELS:
            ids, matrix = variant_set.table(vowel)
            assert all(speaker_id_error(sid) is None for sid in ids) and np.isfinite(matrix).all()
            assert all(m.n_utterances >= 1 for m in variant_set.for_vowel(vowel))


@st.composite
def scored_sets(draw):
    """Quarter-integer models for 1-40 speakers, so every distance is exact
    whatever the summation order, and a test vector."""
    quarters = st.integers(-12, 12).map(lambda k: k / 4)
    ids = draw(st.lists(
        st.text("s019_", min_size=1, max_size=3), min_size=1, max_size=40, unique=True
    ))
    model_set = ModelSet()
    for sid in draw(st.permutations(ids)):
        vector = draw(st.lists(quarters, min_size=16, max_size=16))
        model_set.add(SpeakerModel(sid, "a", vector, 1))
    test = np.array(draw(st.lists(quarters, min_size=16, max_size=16)))
    return model_set, test


@PROPERTY
@given(scored_sets())
def test_array_report_equals_dict_report(case):
    model_set, vector = case
    feats = UtteranceFeatures(
        TemporalFeatures(*np.abs(vector[:4])), CepstralVector(vector[4:]), "a"
    )
    report = score_against_models(feats, model_set)
    ids, matrix = model_set.table("a")
    weights = DistanceWeights()
    # dicts filled in reverse id order: the report must not depend on it
    rows = list(zip(ids, matrix))[::-1]
    cep = {sid: weighted_distance(feats.cepstral.c, row[4:], weights.cepstral_weights)
           for sid, row in rows}
    tem = {sid: weighted_distance(feats.temporal.vector, row[:4], weights.temporal_weights)
           for sid, row in rows}
    built = DistanceReport(cep, tem, brute_argmin(cep), brute_argmin(tem))
    assert report_key(report) == report_key(built)
    for got in (report, built):
        assert got.ids == ids
        for distances in (got.cepstral_distances, got.temporal_distances):
            assert distances.dtype == np.float64 and distances.shape == (len(ids),)
            with pytest.raises(ValueError):
                distances[0] = 0.0
    cep[ids[0]] = -1.0
    assert built.cepstral_distances[0] != -1.0
