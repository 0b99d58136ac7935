"""Load and store speech signals: plain-text sample files and 16-bit PCM WAV.

Also home of `ArrayRecord`, the base of every record that holds an array.
"""

import sys
import wave
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

DEFAULT_SAMPLE_RATE_HZ = 16000
# suffixes whose files np.loadtxt decompresses rather than reads as text
_NUMPY_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


class ArrayRecord:
    """Base of the frozen dataclasses that hold arrays: each array field is a
    read-only copy of the value the record checked, and a copy or pickle goes
    back through the constructor, so it is checked and read-only too."""

    __slots__ = ()

    def _freeze(self, name, dtype=np.float64) -> np.ndarray:
        """Store field `name` as a read-only `dtype` copy and return it."""
        arr = np.array(getattr(self, name), dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(self, name, arr)
        return arr

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class SampleBuffer(ArrayRecord):
    """A mono speech signal: real-valued samples at a fixed rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = self._freeze("samples")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empty signal")
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal contains non-finite amplitudes")
        if not 0 < self.sample_rate_hz <= sys.float_info.max:
            raise ValueError(f"sample rate must be finite and positive, got {self.sample_rate_hz}")

    def __len__(self):
        return self.samples.size


def _named_buffer(path, samples, sample_rate_hz) -> SampleBuffer:
    """A SampleBuffer of a file's samples; a refusal names the file."""
    try:
        return SampleBuffer(samples, sample_rate_hz)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_utf8_text(path) -> str:
    """A UTF-8 file's text less any byte-order mark; bad bytes are a ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_text_samples(path, sample_rate_hz=DEFAULT_SAMPLE_RATE_HZ) -> SampleBuffer:
    """Read a one-number-per-line text signal (the Cool Edit export format).

    The file is UTF-8, with or without a byte-order mark. Blank lines are
    ignored; anything else that does not parse as a decimal number is
    reported with its 1-based line number. The format carries no header, so
    the sample rate is supplied by the caller.

    numpy's C reader parses the file; whatever it refuses or reads as more
    than one column is parsed again line by line, for the diagnostic.
    """
    path = Path(path)
    # read here first, so a missing file is the OS's error and bad bytes are
    # named; numpy then opens the path again, through np.lib._datasource,
    # which decompresses by suffix and warns when no line holds a value, and
    # a pipe is empty by then
    text = read_utf8_text(path)
    if text.strip() and path.suffix not in _NUMPY_DECOMPRESSED_SUFFIXES and path.is_file():
        try:
            table = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2, encoding="utf-8-sig")
        except ValueError:
            pass
        else:
            if table.shape[1] == 1:
                return _named_buffer(path, table[:, 0], sample_rate_hz)
    # refused, several numbers on a line, or not read by numpy: parse line by
    # line for a precise diagnostic
    values = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number: {line!r}") from None
    return _named_buffer(path, values, sample_rate_hz)


def load_wav_pcm16(path) -> SampleBuffer:
    """Read a RIFF/WAVE file; only 16-bit PCM mono is accepted.

    A file cut inside its header, or with fewer data bytes than the header
    announces, is rejected rather than loaded short.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getnchannels() != 1:
                raise ValueError(f"{path}: mono required, got {wav.getnchannels()} channels")
            if wav.getsampwidth() != 2:
                raise ValueError(f"{path}: 16-bit required, got {8 * wav.getsampwidth()}-bit")
            rate = wav.getframerate()
            n_frames = wav.getnframes()
            data = wav.readframes(n_frames)
    except EOFError:
        # the wave module's error for a file cut inside its chunk headers
        raise ValueError(f"{path}: truncated WAV header") from None
    except wave.Error as exc:
        raise ValueError(f"{path}: not a readable PCM WAV file ({exc})") from None
    if len(data) < 2 * n_frames:
        raise ValueError(f"{path}: truncated WAV: {len(data) // 2} of {n_frames} frames present")
    return _named_buffer(path, np.frombuffer(data, dtype="<i2"), rate)


def write_text_samples(buffer: SampleBuffer, path) -> None:
    """Write one sample per line; round-trips through load_text_samples to 1e-6.

    The bytes equal np.savetxt(path, samples, fmt="%.12g").
    """
    samples = buffer.samples.tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(("%.12g\n" * len(samples)) % tuple(samples))
