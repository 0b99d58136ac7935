"""The 16-dimensional utterance feature vector.

Four intrapitch temporal features (average crest/trough counts per pitch
period, keyed by the sign of the 3-sample window centre) plus 12 cepstral
coefficients from order-12 LPC over sliding frames of three consecutive
pitch periods, averaged over at most 18 frames.
"""

from dataclasses import dataclass

import numpy as np

from .pitch import PitchMarks, periods_from_marks
from .signal_io import SampleBuffer

VOWELS = ("a", "e", "i", "o", "u")
LPC_ORDER = 12
MAX_CEPSTRAL_FRAMES = 18
REGION_PERIODS_BEFORE = 10
REGION_PERIODS_AFTER = 9  # peak period itself plus 9 more: 20 in total


@dataclass(frozen=True)
class TemporalFeatures:
    """Average extrema counts per pitch period over the steady-state region."""

    poc: float
    pot: float
    nec: float
    net: float

    def __post_init__(self):
        for name in ("poc", "pot", "nec", "net"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.poc, self.pot, self.nec, self.net])


@dataclass(frozen=True, eq=False)
class CepstralVector:
    c: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=np.float64)
        object.__setattr__(self, "c", arr)
        if arr.shape != (LPC_ORDER,):
            raise ValueError(f"expected {LPC_ORDER} cepstral coefficients, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cepstral coefficients must be finite")


@dataclass(frozen=True)
class SteadyStateRegion:
    """Contiguous run of pitch periods around the amplitude peak.

    `periods` holds (start, length) pairs; `peak_offset` is the index within
    `periods` of the period containing the global amplitude peak.
    """

    periods: tuple
    peak_offset: int

    def __post_init__(self):
        if not 1 <= len(self.periods) <= REGION_PERIODS_BEFORE + REGION_PERIODS_AFTER + 1:
            raise ValueError(f"region must hold 1..20 periods, got {len(self.periods)}")
        if not 0 <= self.peak_offset < len(self.periods):
            raise ValueError("peak period must lie inside the region")

    def __len__(self):
        return len(self.periods)


@dataclass(frozen=True)
class UtteranceFeatures:
    temporal: TemporalFeatures
    cepstral: CepstralVector
    vowel: str

    def __post_init__(self):
        if self.vowel not in VOWELS:
            raise ValueError(f"unknown vowel {self.vowel!r}")

    @property
    def vector(self) -> np.ndarray:
        """Fixed layout: poc, pot, nec, net, c1..c12."""
        return np.concatenate((self.temporal.vector, self.cepstral.c))


def select_steady_state(buffer: SampleBuffer, periods) -> SteadyStateRegion:
    """Up to 20 periods centred on the one containing the amplitude peak.

    The window spans 10 periods before through 9 after the peak period and
    is clipped at the ends, so fewer periods are used near the edges.
    """
    n = len(periods)
    if n < 3:
        raise ValueError(f"need at least 3 pitch periods, got {n}")
    peak_idx = int(np.argmax(np.abs(buffer.samples)))
    starts = np.array([start for start, _ in periods])
    p = int(np.clip(np.searchsorted(starts, peak_idx, side="right") - 1, 0, n - 1))
    lo = max(0, p - REGION_PERIODS_BEFORE)
    hi = min(n - 1, p + REGION_PERIODS_AFTER)
    return SteadyStateRegion(tuple(periods[lo : hi + 1]), p - lo)


def _extrema_counts(x, periods) -> np.ndarray:
    """(poc, pot, nec, net) per period, as an (N, 4) integer array.

    The crest/trough masks are built once over the span the periods cover;
    each period's totals are differences of their running sums.
    """
    starts = np.array([start for start, _ in periods])
    lengths = np.array([length for _, length in periods])
    short = lengths < 3
    if np.any(short):
        raise ValueError(f"period of {lengths[short][0]} samples is shorter than one window")
    stops = starts + lengths
    if stops.max() > x.size:
        raise ValueError("period runs past the end of the signal")
    lo = starts.min()
    seg = x[lo : stops.max()]
    a, c, b = seg[:-2], seg[1:-1], seg[2:]
    crest = (a < c) & (c > b)
    trough = (a > c) & (c < b)
    pos = c > 0.0
    flags = np.stack((crest & pos, trough & pos, crest & ~pos, trough & ~pos))
    running = np.zeros((4, c.size + 1), dtype=np.int64)
    np.cumsum(flags, axis=1, out=running[:, 1:])
    # window centres of a period run from start + 1 to start + length - 2
    return (running[:, stops - lo - 2] - running[:, starts - lo]).T


def count_extrema(buffer: SampleBuffer, period) -> tuple[int, int, int, int]:
    """Slide a 3-sample window across one period and count strict extrema.

    Centre > 0: a strict local max counts as a positive crest (poc), a
    strict local min as a positive trough (pot). Centre <= 0: max counts as
    a negative crest (nec), min as a negative trough (net). Plateaus count
    nothing.
    """
    return tuple(_extrema_counts(buffer.samples, [period])[0].tolist())


def temporal_features(buffer: SampleBuffer, region: SteadyStateRegion) -> TemporalFeatures:
    """Sum the four counters over the region's N periods and divide by N."""
    totals = _extrema_counts(buffer.samples, region.periods).sum(axis=0) / len(region)
    return TemporalFeatures(*totals)


def autocorrelation(frame, max_lag: int = LPC_ORDER) -> np.ndarray:
    """R[k] = sum_n frame[n] * frame[n+k] for k = 0..max_lag, no tapering."""
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.size
    if n <= max_lag:
        raise ValueError(f"frame of {n} samples too short for lag {max_lag}")
    r = np.array([frame[: n - k] @ frame[k:] for k in range(max_lag + 1)])
    if r[0] <= 0.0:
        raise ValueError("all-zero frame has no autocorrelation")
    return r


@np.errstate(all="ignore")  # a reflection may overflow before its check
def _levinson_batch(r):
    """Levinson-Durbin on each row of r (F frames x order+1 lags) at once.

    Every sum is accumulated left to right, as a scalar loop over one frame
    would, so each row rounds exactly as if it were solved alone. A failing
    row goes on with R[0] or residual 1, or reflection 0, in place of the
    failed value; `failures` lists (rows, reason) in the order a solo solve
    checks, so its first entry for a row is the error that row raises alone.
    """
    frames, order = r.shape[0], r.shape[1] - 1
    a = np.zeros((frames, order))
    k = np.empty((frames, order))
    err = np.empty((frames, order + 1))
    failures = []

    def fail(rows, reason, values, fill):
        if rows.any():
            failures.append((rows, f"ill-conditioned autocorrelation: {reason}"))
            values[rows] = fill

    err[:, 0] = r[:, 0]
    fail(err[:, 0] <= 0.0, "R[0] <= 0", err[:, 0], 1.0)
    terms = np.zeros((frames, order))  # column 0 stays 0.0, where each sum starts
    for i in range(1, order + 1):
        e_prev = err[:, i - 1]
        fail(e_prev <= 0.0, "vanishing residual", e_prev, 1.0)
        np.multiply(a[:, : i - 1], r[:, i - 1 : 0 : -1], out=terms[:, 1:i])
        ki = (r[:, i] - terms[:, :i].cumsum(axis=1)[:, -1]) / e_prev
        fail(np.abs(ki) >= 1.0, "|reflection| >= 1", ki, 0.0)
        a[:, : i - 1] -= ki[:, None] * a[:, : i - 1][:, ::-1]
        a[:, i - 1] = ki
        k[:, i - 1] = ki
        err[:, i] = (1.0 - ki * ki) * e_prev
    return a, k, err, failures


def levinson_durbin(r, order: int | None = None):
    """Solve the Toeplitz normal equations order-recursively.

    Predictor convention s[n] ~ sum_j a[j] s[n-j].

    Returns
    -------
    a : ndarray
        Predictor coefficients a1..a_order.
    k : ndarray
        Reflection coefficients k1..k_order.
    err : ndarray
        Residual energies E0..E_order (non-increasing, positive).
    """
    r = np.asarray(r, dtype=np.float64)
    if order is None:
        order = r.size - 1
    if r.size < order + 1:
        raise ValueError(f"need {order + 1} autocorrelation lags, got {r.size}")
    a, k, err, failures = _levinson_batch(r[None, : order + 1])
    if failures:
        raise ValueError(failures[0][1])
    return a[0], k[0], err[0]


def _cepstra_batch(a) -> np.ndarray:
    """Cepstral recursion on each row of a (F frames x p predictor coefficients).

    Each c_n is summed left to right from a_n, as a scalar loop would.
    """
    c = np.empty_like(a)
    terms = np.empty_like(a)
    for n in range(1, a.shape[1] + 1):
        # a_n, then (j/n) c_j a_{n-j} for j = 1..n-1, each rounded as (j/n * c_j) * a_{n-j}
        terms[:, 0] = a[:, n - 1]
        np.multiply(np.arange(1, n) / n * c[:, : n - 1], a[:, : n - 1][:, ::-1], out=terms[:, 1:n])
        c[:, n - 1] = terms[:, :n].cumsum(axis=1)[:, -1]
    return c


def lpc_to_cepstral(a) -> CepstralVector:
    """Cepstrum of the all-pole model via the standard recursion.

    c_n = a_n + sum_{k=1}^{n-1} (k/n) c_k a_{n-k}; no c0, no liftering.
    """
    a = np.asarray(a, dtype=np.float64)
    return CepstralVector(_cepstra_batch(a[None, :])[0])


def cepstral_lags(buffer: SampleBuffer, region: SteadyStateRegion) -> np.ndarray:
    """Lags 0..12 of the autocorrelation of each sliding frame, (F, 13).

    Frame i spans region periods i, i+1, i+2; each iteration drops the
    first period and appends the next, for F = min(N-2, 18) frames.
    """
    n = len(region)
    if n < 3:
        raise ValueError(f"region too short: {n} periods, need 3")
    n_frames = min(n - 2, MAX_CEPSTRAL_FRAMES)
    x = buffer.samples
    r = np.empty((n_frames, LPC_ORDER + 1))
    for i in range(n_frames):
        last_start, last_len = region.periods[i + 2]
        r[i] = autocorrelation(x[region.periods[i][0] : last_start + last_len])
    return r


def average_cepstra(lag_matrices) -> list:
    """The frame-averaged cepstra of each (F, 13) lag matrix, or the ValueError
    solving it alone raises. One Levinson-Durbin and one cepstral batch solve
    every frame; rows are independent and each matrix's frames are summed in
    order, so each average is bit-identical to a solo solve."""
    a, _, _, failures = _levinson_batch(np.concatenate([np.empty((0, LPC_ORDER + 1)), *lag_matrices]))
    cepstra, averages, stop = _cepstra_batch(a), [], 0
    for lags in lag_matrices:
        start, stop = stop, stop + len(lags)
        reason = next((reason for rows, reason in failures if rows[start:stop].any()), None)
        acc = np.zeros(LPC_ORDER)
        for c in cepstra[start:stop]:  # frames summed in order
            acc += c
        averages.append(ValueError(reason) if reason else acc / len(lags))
    return averages


def pitch_synchronous_cepstra(buffer: SampleBuffer, region: SteadyStateRegion) -> CepstralVector:
    """Average cepstra over the region's sliding three-period frames
    (`cepstral_lags`): a batch of one for `average_cepstra`."""
    (average,) = average_cepstra([cepstral_lags(buffer, region)])
    if isinstance(average, ValueError):
        raise average
    return CepstralVector(average)


def extract_utterance_features(buffer: SampleBuffer, marks: PitchMarks, vowel: str) -> UtteranceFeatures:
    """Compose region selection, temporal counts and cepstra into 16 values."""
    periods = periods_from_marks(marks)
    region = select_steady_state(buffer, periods)
    return UtteranceFeatures(
        temporal=temporal_features(buffer, region),
        cepstral=pitch_synchronous_cepstra(buffer, region),
        vowel=vowel,
    )
