import bz2
import gzip
import lzma
import os
import re
import threading
import warnings
import wave

import numpy as np
import pytest

from psverify.pipeline import PipelineConfig, load_signal
from psverify.signal_io import (
    SampleBuffer,
    load_text_samples,
    load_wav_pcm16,
    write_text_samples,
)


def write_wav(path, samples, rate=16000, channels=1, sampwidth=2):
    data = np.asarray(samples)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(sampwidth)
        w.setframerate(rate)
        if sampwidth == 2:
            w.writeframes(data.astype("<i2").tobytes())
        else:
            w.writeframes((data.astype(np.int16) // 256 + 128).astype(np.uint8).tobytes())


class TestSampleBuffer:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            SampleBuffer(np.array([]), 16000)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SampleBuffer(np.array([1.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            SampleBuffer(np.array([1.0]), 0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "10**400"])
    def test_rejects_rate_that_is_not_finite(self, rate):
        with pytest.raises(ValueError, match="sample rate must be finite"):
            SampleBuffer(np.array([1.0]), rate)


class TestTextFormat:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("0\n100\n-50\n")
        buf = load_text_samples(p, 16000)
        assert buf.sample_rate_hz == 16000
        np.testing.assert_array_equal(buf.samples, [0.0, 100.0, -50.0])

    def test_crlf_and_blank_lines(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_bytes(b"1.5\r\n\r\n-2.5\r\n")
        np.testing.assert_array_equal(load_text_samples(p).samples, [1.5, -2.5])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("")
        with pytest.raises(ValueError, match="empty signal"):
            load_text_samples(p)

    def test_bad_line_reported(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("1\nabc\n3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_text_samples(p)

    def test_two_numbers_on_a_line_rejected(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("1\n2 3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_text_samples(p)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.txt"
        with pytest.raises(FileNotFoundError) as missing:
            load_text_samples(path)
        # the OS's message, not numpy's "nope.txt not found."
        assert str(missing.value) == f"[Errno 2] No such file or directory: {str(path)!r}"

    def test_write_example(self, tmp_path):
        p = tmp_path / "out.txt"
        write_text_samples(SampleBuffer(np.array([0.0, 100.0, -50.0]), 16000), p)
        assert p.read_text() == "0\n100\n-50\n"

    def test_round_trip_within_1e6(self, tmp_path):
        rng = np.random.default_rng(42)
        for trial in range(5):
            original = SampleBuffer(rng.uniform(-32768, 32767, 300), 8000)
            p = tmp_path / f"rt{trial}.txt"
            write_text_samples(original, p)
            loaded = load_text_samples(p, 8000)
            np.testing.assert_allclose(loaded.samples, original.samples, atol=1e-6)

    def test_write_matches_savetxt_bytes(self, tmp_path):
        rng = np.random.default_rng(43)
        samples = np.concatenate((
            [-0.0, 0.0, 1e-7, -1e-7, 1e15, -1e15, 32767.0, -32768.0, 3.0, 123456789012345.0],
            rng.uniform(-32768, 32767, 200),
            rng.normal(0, 1e-9, 20),
        ))
        ours, reference = tmp_path / "ours.txt", tmp_path / "savetxt.txt"
        write_text_samples(SampleBuffer(samples, 16000), ours)
        np.savetxt(reference, samples, fmt="%.12g")
        assert ours.read_bytes() == reference.read_bytes()

    def test_bom_padding_and_blank_lines(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_bytes(b"\xef\xbb\xbf  1.5 \r\n\r\n\t-2.5\r\n   \r\n7\r\n\r\n")
        np.testing.assert_array_equal(load_text_samples(p).samples, [1.5, -2.5, 7.0])
        p.write_bytes(b"\xef\xbb\xbf-3\n 4\n")
        np.testing.assert_array_equal(load_text_samples(p).samples, [-3.0, 4.0])

    def test_bad_line_number_counts_blank_lines(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_bytes(b"1\r\n\r\n2\r\nabc\r\n")
        with pytest.raises(ValueError, match="line 4: not a number: 'abc'"):
            load_text_samples(p)

    def test_single_line_of_two_numbers_rejected(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("2 3\n")
        with pytest.raises(ValueError, match="line 1: not a number: '2 3'"):
            load_text_samples(p)

    def test_write_to_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_text_samples(
                SampleBuffer(np.array([1.0]), 16000), tmp_path / "missing_dir" / "x.txt"
            )


# np.loadtxt opens a path through numpy's DataSource, which decompresses by
# suffix and tries compressed siblings of a missing file; the loader reads
# each of these files as the plain UTF-8 text it holds, as open() does
COMPRESSORS = {
    ".gz": lambda data: gzip.compress(data, mtime=0),
    ".bz2": bz2.compress,
    ".xz": lzma.compress,
    ".lzma": lambda data: lzma.compress(data, format=lzma.FORMAT_ALONE),
}


class TestNumpyOpener:
    def test_missing_file_ignores_compressed_sibling(self, tmp_path):
        (tmp_path / "x.txt.gz").write_bytes(gzip.compress(b"1\n2\n", mtime=0))
        with pytest.raises(FileNotFoundError, match="No such file"):
            load_text_samples(tmp_path / "x.txt")

    @pytest.mark.parametrize("suffix", sorted(COMPRESSORS))
    def test_compressed_file_is_not_decompressed(self, tmp_path, suffix):
        path = tmp_path / f"x.txt{suffix}"
        path.write_bytes(COMPRESSORS[suffix](b"1\n2\n"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text: "):
            load_text_samples(path)

    @pytest.mark.parametrize("suffix", sorted(COMPRESSORS))
    def test_text_under_a_compressed_suffix_is_read_as_text(self, tmp_path, suffix):
        path = tmp_path / f"x{suffix}"
        path.write_text("1\n2\n")
        np.testing.assert_array_equal(load_text_samples(path).samples, [1.0, 2.0])

    @pytest.mark.parametrize("data", [b"", b"\n\n", b" \r\n\t\n", b"\xef\xbb\xbf\n", "\u2028\x85\n".encode()])
    def test_blank_file_is_empty_signal_without_a_warning(self, tmp_path, data):
        path = tmp_path / "blank.txt"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty signal$"):
                load_text_samples(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_once(self, tmp_path):
        path = tmp_path / "pipe.txt"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("1\n2\n",), daemon=True)
        writer.start()
        samples = load_text_samples(path).samples
        writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(samples, [1.0, 2.0])


class TestWav:
    def test_one_second_mono(self, tmp_path):
        p = tmp_path / "a.wav"
        rng = np.random.default_rng(0)
        write_wav(p, rng.integers(-32768, 32768, 16000))
        buf = load_wav_pcm16(p)
        assert len(buf) == 16000
        assert buf.sample_rate_hz == 16000

    def test_output_range(self, tmp_path):
        p = tmp_path / "a.wav"
        write_wav(p, np.array([-32768, 0, 32767]))
        buf = load_wav_pcm16(p)
        assert buf.samples.min() >= -32768
        assert buf.samples.max() <= 32767

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        write_wav(p, np.zeros(200), channels=2)
        with pytest.raises(ValueError, match="mono required"):
            load_wav_pcm16(p)

    def test_8bit_rejected(self, tmp_path):
        p = tmp_path / "b8.wav"
        write_wav(p, np.zeros(100), sampwidth=1)
        with pytest.raises(ValueError, match="16-bit required"):
            load_wav_pcm16(p)

    def test_non_pcm_rejected(self, tmp_path):
        # minimal RIFF header claiming IEEE-float format (tag 3)
        import struct

        p = tmp_path / "f32.wav"
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 4) + b"\x00" * 4
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        # the wave module refuses every format tag but PCM's as it opens the file
        with pytest.raises(ValueError, match=r"f32.wav: not a readable PCM WAV file \(unknown format: 3\)"):
            load_wav_pcm16(p)

    @pytest.mark.parametrize("size", [4, 30])
    def test_header_cut_rejected(self, tmp_path, size):
        p = tmp_path / "a.wav"
        write_wav(p, np.arange(1000) % 100)
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(ValueError, match="truncated WAV header"):
            load_wav_pcm16(p)

    def test_data_cut_names_both_counts(self, tmp_path):
        p = tmp_path / "a.wav"
        write_wav(p, np.arange(1000) % 100)
        p.write_bytes(p.read_bytes()[: 44 + 56])  # 44-byte header, 28 frames
        with pytest.raises(ValueError, match="28 of 1000 frames"):
            load_wav_pcm16(p)

    def test_every_cut_rejected(self, tmp_path):
        full = tmp_path / "a.wav"
        write_wav(full, np.arange(300) % 100)
        data = full.read_bytes()
        cut = tmp_path / "cut.wav"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError):
                load_wav_pcm16(cut)

    def test_dispatch_by_extension(self, tmp_path):
        wav_path = tmp_path / "x.wav"
        write_wav(wav_path, np.arange(100))
        # the WAV header's rate wins over the configured one
        assert load_signal(wav_path, PipelineConfig(sample_rate_hz=8000)).sample_rate_hz == 16000
        txt_path = tmp_path / "x.txt"
        txt_path.write_text("5\n")
        assert load_signal(txt_path, PipelineConfig(sample_rate_hz=8000)).sample_rate_hz == 8000
