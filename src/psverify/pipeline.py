"""End-to-end pipeline: load, preprocess, mark, extract."""

import math
import numbers
import os
import signal
import threading
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from . import features, preprocess, signal_io
from .features import CepstralVector, UtteranceFeatures
from .pitch import (
    PitchMarks,
    choose_polarity,
    compute_stats,
    extract_half_peaks,
    mark_pitch_periods,
    periods_from_marks,
)
from .signal_io import SampleBuffer

# A pass gives each worker process at least this many files, or runs in this
# process: forking and joining a pool of two takes 10-15 ms on a 2-CPU x86-64
# host, the work of about 5 text files.
MIN_FILES_PER_WORKER = 16
# Files go to a worker this many at a time: the hand-off costs little next to
# their work, and a Ctrl-C waits only for the few chunks already handed out.
FILES_PER_CHUNK = 8


class PipelineError(ValueError):
    """A ValueError of one stage, named in `stage`: load, preprocess, marks or features."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage

    def __reduce__(self):
        return type(self), (self.stage, str(self))


@dataclass(frozen=True)
class PipelineConfig:
    """Text-input sample rate and pitch bounds; defaults follow the reference setup."""

    sample_rate_hz: int = signal_io.DEFAULT_SAMPLE_RATE_HZ
    min_f0_hz: float = 50.0
    max_f0_hz: float = 500.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0 < value < math.inf:
                raise ValueError(f"{field.name} must be finite and positive")
            if field.type is int and not isinstance(value, numbers.Integral):
                raise ValueError(f"{field.name} must be an integer, got {value!r}")
        if self.min_f0_hz >= self.max_f0_hz:
            raise ValueError("need min_f0_hz < max_f0_hz")
        self.period_bounds(self.sample_rate_hz)

    def period_bounds(self, sample_rate_hz: int) -> tuple[int, int]:
        """(min_period, max_period) in samples at this rate, which must exceed 2 * min_f0_hz."""
        if self.min_f0_hz >= sample_rate_hz / 2:
            raise ValueError(f"need min_f0_hz < sample_rate_hz / 2, got {self.min_f0_hz:g}/{sample_rate_hz}")
        min_period = max(2, math.floor(sample_rate_hz / self.max_f0_hz))
        max_period = math.ceil(sample_rate_hz / self.min_f0_hz)
        return min_period, max_period


def load_signal(path, config: PipelineConfig = PipelineConfig()) -> SampleBuffer:
    """Dispatch on extension: .wav/.wave to the WAV reader, else text read at
    the configured sample rate."""
    if Path(path).suffix.lower() in (".wav", ".wave"):
        return signal_io.load_wav_pcm16(path)
    return signal_io.load_text_samples(path, config.sample_rate_hz)


def preprocess_signal(buffer: SampleBuffer, config: PipelineConfig = PipelineConfig()) -> SampleBuffer:
    """DC removal, normalization to the fixed peak, silence trimming, in that
    order. No setting applies: `config` is accepted for callers and ignored."""
    x = preprocess.normalize_peak(preprocess.remove_dc(buffer.samples))
    start, stop = preprocess.speech_span(x)
    return SampleBuffer(x[start:stop], buffer.sample_rate_hz)


def detect_marks(buffer: SampleBuffer, config: PipelineConfig = PipelineConfig()) -> PitchMarks:
    """Pitch-mark a preprocessed buffer."""
    peaks = extract_half_peaks(buffer)
    stats = compute_stats(peaks)
    polarity = choose_polarity(stats)
    min_period, max_period = config.period_bounds(buffer.sample_rate_hz)
    return mark_pitch_periods(buffer, peaks, stats, polarity, min_period, max_period)


def _staged(path, config: PipelineConfig):
    """One file as far as its temporal features and cepstral lags, or the
    PipelineError or OSError it fails with."""
    stage = "load"
    try:
        buffer = load_signal(path, config)
        stage = "preprocess"
        buffer = preprocess_signal(buffer)
        stage = "marks"
        marks = detect_marks(buffer, config)
        stage = "features"
        region = features.select_steady_state(buffer, periods_from_marks(marks))
        return features.temporal_features(buffer, region), features.cepstral_lags(buffer, region)
    except (ValueError, OSError) as exc:
        return PipelineError(stage, str(exc)) if isinstance(exc, ValueError) else exc


def _ignore_interrupts():
    """A worker leaves Ctrl-C to the parent, which cancels what is queued."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _map_in_workers(fn, items, workers: int) -> list:
    """fn of each item, in order, across `workers` forked processes that are
    all joined before this returns, also when the pass fails or is
    interrupted. A worker that dies, as one the OOM killer ends does, fails
    the pass with a ChildProcessError."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # forked, not spawned: a spawned pool of two starts in about 300 ms on the
    # same host, as each worker imports numpy
    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(workers, mp_context=context, initializer=_ignore_interrupts) as pool:
            # map cancels the chunks not yet handed out when its results raise
            return list(pool.map(fn, items, chunksize=FILES_PER_CHUNK))
    except BrokenProcessPool as exc:
        raise ChildProcessError("a worker process died before the pass finished") from exc


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def features_of_files(files, config: PipelineConfig = PipelineConfig()) -> list:
    """UtteranceFeatures, or the PipelineError or OSError it fails with, for
    each (path, vowel), in order. Each file goes alone as far as its temporal
    features and cepstral lags, across the usable CPUs when the pass gives
    each worker process MIN_FILES_PER_WORKER files; then the cepstral frames
    of all are solved in one batch in this process."""
    files = list(files)
    paths = [path for path, _ in files]
    workers = min(_usable_cpus(), len(paths) // MIN_FILES_PER_WORKER)
    one_file = partial(_staged, config=config)
    # a fork copies the locks other threads hold, so a threaded caller stays in-process
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        results = _map_in_workers(one_file, paths, workers)
    else:
        results = list(map(one_file, paths))
    done = [i for i, result in enumerate(results) if isinstance(result, tuple)]
    for i, average in zip(done, features.average_cepstra([results[i][1] for i in done])):
        try:
            if isinstance(average, ValueError):
                raise average
            results[i] = UtteranceFeatures(results[i][0], CepstralVector(average), files[i][1])
        except ValueError as exc:
            results[i] = PipelineError("features", str(exc))
    return results


def utterance_features_from_file(
    path, vowel: str, config: PipelineConfig = PipelineConfig()
) -> UtteranceFeatures:
    """One file's features: a pass of one."""
    (result,) = features_of_files([(path, vowel)], config)
    if isinstance(result, Exception):
        raise result
    return result
