"""End-to-end pipeline: load, preprocess, mark, extract."""

import math
import numbers
import os
import signal
import sys
import threading
from dataclasses import dataclass, fields
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

# split_across_processes gives each process at least this many items, or runs
# in this process alone: forking, piping and joining one child of a 40 MB
# process takes 3.7-4.8 ms on a 2-CPU x86-64 host, the work of one or two
# feature files or corpus utterances (synthesis and text write) there.
MIN_FILES_PER_WORKER = 16


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
            # an int past the largest float is finite, but no division by it is
            if not 0 < value <= sys.float_info.max:
                raise ValueError(f"{field.name} must be finite and positive, at most {sys.float_info.max:g}")
            if field.type is int and not isinstance(value, numbers.Integral):
                raise ValueError(f"{field.name} must be an integer, got {value!r}")
        if self.min_f0_hz >= self.max_f0_hz:
            raise ValueError("need min_f0_hz < max_f0_hz")
        self.period_bounds(self.sample_rate_hz)

    def period_bounds(self, sample_rate_hz: int) -> tuple[int, int]:
        """(min_period, max_period) in samples at this rate, which must exceed 2 * min_f0_hz."""
        if self.min_f0_hz >= sample_rate_hz / 2:
            raise ValueError(f"need min_f0_hz < sample_rate_hz / 2, got {self.min_f0_hz:g}/{sample_rate_hz}")
        if sample_rate_hz / self.min_f0_hz == math.inf:
            raise ValueError(f"need sample_rate_hz / min_f0_hz finite, got {sample_rate_hz}/{self.min_f0_hz:g}")
        return max(2, math.floor(sample_rate_hz / self.max_f0_hz)), math.ceil(sample_rate_hz / self.min_f0_hz)


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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _features_of_share(files, config: PipelineConfig) -> list:
    """features_of_files for one process: each file alone as far as its
    temporal features and cepstral lags, then the cepstral frames of all
    solved in one batch."""
    results = [_staged(path, config) for path, _ in files]
    done = [i for i, result in enumerate(results) if isinstance(result, tuple)]
    for i, average in zip(done, features.average_cepstra([results[i][1] for i in done])):
        try:
            if isinstance(average, ValueError):
                raise average
            results[i] = UtteranceFeatures(results[i][0], CepstralVector(average), files[i][1])
        except ValueError as exc:
            results[i] = PipelineError("features", str(exc))
    return results


def _share_in_child(share, items, conn) -> None:
    """A forked child's share, sent to the parent as (True, share(items)) or
    as (False, the exception computing it raised). Ctrl-C is left to the
    parent, which kills its children."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        message = True, share(items)
    except Exception as exc:
        message = False, exc
    conn.send(message)


def split_across_processes(share, items) -> list:
    """share(items), for a share that maps a list to one result per item. When
    each of n usable CPUs gets MIN_FILES_PER_WORKER items, this process
    computes share(items[0::n]) and one forked child each share(items[k::n]).
    Every child is joined before this returns; when the work fails or is
    interrupted, those still running are killed first. An exception a child
    raises is raised here, and a child that dies, as one the OOM killer ends
    does, is a ChildProcessError."""
    items = list(items)
    shares = min(_usable_cpus(), len(items) // MIN_FILES_PER_WORKER)
    # a fork copies the locks other threads hold, so a threaded caller stays in-process
    if shares < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return share(items)
    import multiprocessing

    # forked, not spawned: a spawned child imports numpy, about 300 ms
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for k in range(1, shares):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_share_in_child, args=(share, items[k::shares], writer))
            children.append((child, reader))
            child.start()
            writer.close()  # so the reader sees EOF if the child dies
        results = [None] * len(items)
        results[0::shares] = share(items[0::shares])
        for k, (_, reader) in enumerate(children, 1):
            try:
                ok, value = reader.recv()
            except EOFError as exc:
                raise ChildProcessError("a worker process died before the pass finished") from exc
            if not ok:
                raise value
            results[k::shares] = value
        return results
    except BaseException:
        for child, _ in children:
            if child.pid is not None:
                child.kill()
        raise
    finally:
        for child, reader in children:
            if child.pid is not None:
                child.join()
            reader.close()


def features_of_files(files, config: PipelineConfig = PipelineConfig()) -> list:
    """UtteranceFeatures, or the PipelineError or OSError it fails with, for
    each (path, vowel), in order. Each file goes alone as far as its temporal
    features and cepstral lags; then the cepstral frames of all are solved in
    one batch, in each process of split_across_processes; batch rows are
    independent, so results are the same however the files are split."""
    return split_across_processes(lambda part: _features_of_share(part, config), files)


def utterance_features_from_file(
    path, vowel: str, config: PipelineConfig = PipelineConfig()
) -> UtteranceFeatures:
    """One file's features: a pass of one."""
    (result,) = features_of_files([(path, vowel)], config)
    if isinstance(result, Exception):
        raise result
    return result
