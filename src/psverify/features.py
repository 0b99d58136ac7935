"""The 16-dimensional utterance feature vector.

Four intrapitch temporal features (average crest/trough counts per pitch
period, keyed by the sign of the 3-sample window centre) plus 12 cepstral
coefficients from order-12 LPC over sliding frames of three consecutive
pitch periods, averaged over at most 18 frames.

The cepstral back end takes and returns (F, n) arrays, one row per frame,
but solves on their (n, F) transposes: each order step is then a handful of
numpy calls on rows of F values, frames along the contiguous axis. Every
sum over a frame's terms runs down its column in order (`_in_order_sum`),
so each frame rounds as a scalar loop over it alone would.
"""

import math
from dataclasses import dataclass

import numpy as np

from .signal_io import ArrayRecord, SampleBuffer

VOWELS = ("a", "e", "i", "o", "u")
LPC_ORDER = 12
TEMPORAL_DIM = 4  # poc, pot, nec, net: the vector's leading values
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
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.poc, self.pot, self.nec, self.net])


@dataclass(frozen=True, eq=False)
class CepstralVector(ArrayRecord):
    c: np.ndarray

    def __post_init__(self):
        arr = self._freeze("c")
        if arr.shape != (LPC_ORDER,):
            raise ValueError(f"expected {LPC_ORDER} cepstral coefficients, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cepstral coefficients must be finite")


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


def select_steady_state(buffer: SampleBuffer, periods: np.ndarray) -> np.ndarray:
    """Up to 20 periods centred on the one containing the amplitude peak,
    as a row slice of the (N, 2) array of (start, length) rows `periods`.

    The window spans 10 periods before through 9 after the peak period and
    is clipped at the ends, so fewer periods are used near the edges.
    """
    n = len(periods)
    if n < 3:
        raise ValueError(f"need at least 3 pitch periods, got {n}")
    peak_idx = int(np.argmax(np.abs(buffer.samples)))
    p = max(int(np.searchsorted(periods[:, 0], peak_idx, side="right")) - 1, 0)
    return periods[max(0, p - REGION_PERIODS_BEFORE) : p + REGION_PERIODS_AFTER + 1]


def _extrema_counts(x, periods: np.ndarray) -> np.ndarray:
    """(poc, pot, nec, net) per (start, length) row, as an (N, 4) integer array.

    The crest/trough masks are built once over the span the periods cover;
    each period's totals are differences of their running sums.
    """
    if len(periods) == 0:
        raise ValueError("region holds no pitch periods")
    starts, lengths = periods[:, 0], periods[:, 1]
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
    running = np.zeros((TEMPORAL_DIM, c.size + 1), dtype=np.int64)
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
    return tuple(_extrema_counts(buffer.samples, np.array([period]))[0].tolist())


def temporal_features(buffer: SampleBuffer, region: np.ndarray) -> TemporalFeatures:
    """Sum the four counters over the region's N periods and divide by N."""
    totals = _extrema_counts(buffer.samples, region).sum(axis=0) / len(region)
    return TemporalFeatures(*totals)


def _autocorrelations(frames, max_lag: int) -> np.ndarray:
    """R[k] = sum_n frame[n] * frame[n+k] for k = 0..max_lag, no tapering, of
    each 1-D float64 frame: an (F, max_lag + 1) array, or the ValueError of
    the first frame, in order, that has none."""
    short = next((i for i, frame in enumerate(frames) if frame.size <= max_lag), len(frames))
    # ndarray.dot is the BLAS ddot that `@` calls on two vectors, with less dispatch
    r = np.array([[frame[: frame.size - k].dot(frame[k:]) for k in range(max_lag + 1)]
                  for frame in frames[:short]]).reshape(short, max_lag + 1)
    if (r[:, 0] <= 0.0).any():
        raise ValueError("all-zero frame has no autocorrelation")
    if short < len(frames):
        raise ValueError(f"frame of {frames[short].size} samples too short for lag {max_lag}")
    return r


def autocorrelation(frame, max_lag: int = LPC_ORDER) -> np.ndarray:
    """R[k] = sum_n frame[n] * frame[n+k] for k = 0..max_lag, no tapering."""
    return _autocorrelations([np.asarray(frame, dtype=np.float64)], max_lag)[0]


def _in_order_sum(rows) -> np.ndarray:
    """The sum of the rows of `rows`, added first to last as a scalar loop
    adds. np.add.reduce down axis 0 would sum a single column (F = 1)
    pairwise, so its rounding would depend on the batch's width."""
    return np.add.accumulate(rows, axis=0)[-1]


@np.errstate(all="ignore")  # a failed row runs on into inf and nan
def _levinson_batch(r):
    """Levinson-Durbin on each row of r (F frames x order+1 lags) at once.

    The recursion runs on r's transpose, one frame per column, and returns
    (F, n) views of its column arrays. Every sum is accumulated in order, as
    a scalar loop over one frame would, so each frame rounds exactly as if it
    were solved alone. The frames are checked once, after the recursion: a
    frame keeps its solo values up to its first failed check (`first`, see
    _first_failed_checks), which therefore fails as it would alone. A failed
    frame's coefficients are zeroed.
    """
    r = np.ascontiguousarray(r.T)  # (order+1, F)
    order, frames = r.shape[0] - 1, r.shape[1]
    a = np.zeros((order, frames))
    k = np.empty((order, frames))
    err = np.empty((order + 1, frames))
    err[0] = r[0]
    terms = np.zeros((order, frames))  # row 0 stays 0.0, where each sum starts
    for i in range(1, order + 1):
        e_prev, head, ki = err[i - 1], a[: i - 1], k[i - 1]
        np.multiply(head, r[i - 1 : 0 : -1], out=terms[1:i])
        np.divide(r[i] - _in_order_sum(terms[:i]), e_prev, out=ki)
        head -= ki * head[::-1]
        a[i - 1] = ki
        np.multiply(1.0 - ki * ki, e_prev, out=err[i])
    first = _first_failed_checks(err.T, k.T)
    a[:, first <= 2 * order] = 0.0
    return a.T, k.T, err.T, first


def _first_failed_checks(err, k) -> np.ndarray:
    """Each row's first failed check, in the order a solo solve makes them:
    check 0 is R[0] > 0, checks 2i - 1 and 2i the residual and the
    reflection of step i; 2 * order + 1 if every check passed. Under IEEE
    gradual underflow a residual check never fails first, as (1 - k*k) * E
    with E > 0 and |k| < 1 rounds to at least one subnormal step: it guards
    only flush-to-zero floating-point modes."""
    failed = np.empty((k.shape[0], 2 * k.shape[1] + 1), dtype=bool)
    failed[:, 0] = err[:, 0] <= 0.0
    failed[:, 1::2] = err[:, :-1] <= 0.0
    failed[:, 2::2] = np.abs(k) >= 1.0
    return np.where(failed.any(axis=1), failed.argmax(axis=1), failed.shape[1])


def _check_error(check, order: int) -> ValueError | None:
    """The error of failed check `check` of an order-`order` solve, or None
    for 2 * order + 1, past the last check."""
    if check > 2 * order:
        return None
    reason = "R[0] <= 0" if check == 0 else ("vanishing residual", "|reflection| >= 1")[(check + 1) % 2]
    return ValueError(f"ill-conditioned autocorrelation: {reason}")


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
    a, k, err, first = _levinson_batch(r[None, : order + 1])
    error = _check_error(first[0], order)
    if error is not None:
        raise error
    return a[0], k[0], err[0]


def _cepstra_batch(a) -> np.ndarray:
    """Cepstral recursion on each row of a (F frames x p predictor
    coefficients), solved on its transpose: an (F, p) view of the (p, F)
    column result.

    Each c_n is summed in order from a_n, as a scalar loop would.
    """
    a = np.ascontiguousarray(a.T)  # (p, F)
    p = a.shape[0]
    ratios = np.arange(1, p)[:, None] / np.arange(1, p + 1)  # j/n at [j - 1, n - 1]
    c = np.empty_like(a)
    terms = np.empty_like(a)
    for n in range(1, p + 1):
        # a_n, then (j/n) c_j a_{n-j} for j = 1..n-1, each rounded as (j/n * c_j) * a_{n-j}
        terms[0] = a[n - 1]
        np.multiply(ratios[: n - 1, n - 1 : n], c[: n - 1], out=terms[1:n])
        terms[1:n] *= a[: n - 1][::-1]
        c[n - 1] = _in_order_sum(terms[:n])
    return c.T


def lpc_to_cepstral(a) -> CepstralVector:
    """Cepstrum of the all-pole model via the standard recursion.

    c_n = a_n + sum_{k=1}^{n-1} (k/n) c_k a_{n-k}; no c0, no liftering.
    """
    a = np.asarray(a, dtype=np.float64)
    return CepstralVector(_cepstra_batch(a[None, :])[0])


def cepstral_lags(buffer: SampleBuffer, region: np.ndarray) -> np.ndarray:
    """Lags 0..12 of the autocorrelation of each sliding frame, (F, 13).

    Frame i spans region periods i, i+1, i+2; each iteration drops the
    first period and appends the next, for F = min(N-2, 18) frames. The
    first frame, in order, that has no autocorrelation raises its error.
    """
    n = len(region)
    if n < 3:
        raise ValueError(f"region too short: {n} periods, need 3")
    x = buffer.samples
    starts, lengths = region.T.tolist()  # Python ints slice faster than numpy scalars
    return _autocorrelations([x[starts[i] : starts[i + 2] + lengths[i + 2]]
                              for i in range(min(n - 2, MAX_CEPSTRAL_FRAMES))], LPC_ORDER)


def average_cepstra(lag_matrices) -> list:
    """The frame-averaged cepstra of each (F, 13) lag matrix, or the ValueError
    solving it alone raises. One Levinson-Durbin and one cepstral batch solve
    every frame; rows are independent and each matrix's frames are summed in
    order, so each average is bit-identical to a solo solve."""
    a, _, _, first = _levinson_batch(np.concatenate([np.empty((0, LPC_ORDER + 1)), *lag_matrices]))
    cepstra, averages, stop = _cepstra_batch(a), [], 0
    for lags in lag_matrices:
        start, stop = stop, stop + len(lags)
        error = _check_error(first[start:stop].min(initial=2 * LPC_ORDER + 1), LPC_ORDER)
        # + 0.0 as a loop's sum starts from 0.0: it turns a sum of -0.0s into 0.0
        averages.append((_in_order_sum(cepstra[start:stop]) + 0.0) / len(lags) if error is None else error)
    return averages


def pitch_synchronous_cepstra(buffer: SampleBuffer, region: np.ndarray) -> CepstralVector:
    """Average cepstra over the region's sliding three-period frames
    (`cepstral_lags`): a batch of one for `average_cepstra`."""
    (average,) = average_cepstra([cepstral_lags(buffer, region)])
    if isinstance(average, ValueError):
        raise average
    return CepstralVector(average)

