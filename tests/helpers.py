"""Independent oracles used by the tests, which deliberately take different
routes than the library code they check, and the stage-by-stage composition
of one utterance's features."""

import math

import numpy as np

from psverify.features import pitch_synchronous_cepstra, select_steady_state, temporal_features
from psverify.pitch import periods_from_marks


def composed_vector(buffer, marks):
    """The 16 feature values of a preprocessed buffer, composed stage by
    stage: region selection, temporal counts, then its cepstra alone."""
    region = select_steady_state(buffer, periods_from_marks(marks))
    return np.concatenate((
        temporal_features(buffer, region).vector, pitch_synchronous_cepstra(buffer, region).c
    ))


def brute_extrema(x):
    """Classify every interior sample as strict local max/min, binned by
    the sign of the centre sample."""
    poc = pot = nec = net = 0
    for i in range(1, len(x) - 1):
        if x[i - 1] < x[i] > x[i + 1]:
            if x[i] > 0:
                poc += 1
            else:
                nec += 1
        elif x[i - 1] > x[i] < x[i + 1]:
            if x[i] > 0:
                pot += 1
            else:
                net += 1
    return poc, pot, nec, net


def brute_half_peaks(x):
    """Walk x once, closing a run at every sign change.

    Returns (signs, indices, values): run sign (+1/-1), the first index
    attaining the run's extremum, and its value; zeros belong to no run.
    """
    n = x.shape[0]
    pol = np.empty(n, np.int8)
    idx = np.empty(n, np.int64)
    val = np.empty(n, np.float64)
    count = 0
    run_sign = 0
    best_i = -1
    best_v = 0.0
    for i in range(n):
        v = x[i]
        s = 0
        if v > 0.0:
            s = 1
        elif v < 0.0:
            s = -1
        if s != run_sign:
            if run_sign != 0:
                pol[count] = run_sign
                idx[count] = best_i
                val[count] = best_v
                count += 1
            run_sign = s
            best_i = i
            best_v = v
        elif s > 0:
            if v > best_v:
                best_v = v
                best_i = i
        elif s < 0:
            if v < best_v:
                best_v = v
                best_i = i
    if run_sign != 0:
        pol[count] = run_sign
        idx[count] = best_i
        val[count] = best_v
        count += 1
    return pol[:count].copy(), idx[:count].copy(), val[:count].copy()


def numpy_order_sum(values):
    """sum(values) added in the order numpy adds a contiguous float64 array:
    in order below 8 values; up to 128, into 8 interleaved running sums that
    are then added pairwise, and the rest in order; above that, each half
    (split at a multiple of 8) alone."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return numpy_order_sum(values[:half]) + numpy_order_sum(values[half:])
    lanes = list(values[:8])
    stop = n - n % 8
    for i in range(8, stop, 8):
        for j in range(8):
            lanes[j] += values[i + j]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for v in values[stop:]:
        total += v
    return total


def literal_marks(x, min_period, max_period):
    """The paper's pitch-mark rule over the samples x, in plain Python: the
    (mark indices, polarity) it places, or None where it places no two marks.

    A half is a maximal run of strictly positive or strictly negative
    samples, its peak the first sample of largest magnitude, and its MPD the
    larger absolute difference between its peak and those of the previous
    and next halves of its sign (0 where there is none). Each sign's AMPV is
    the mean of its MPDs, its spread their population standard deviation.
    The sign with the smaller spread / AMPV is scanned, +1 on a tie or where
    either AMPV is 0. Each half's x is its MPD's interval among the ten of
    [0, AMPV] (1..10) or the ten of (AMPV, max MPD] (11..20), and its
    threshold magnitude is (1 - x/100) of its peak's. The first half of the
    sign is marked; a later one is marked when its distance from the last
    mark lies in [min_period, max_period] and its magnitude reaches the last
    mark's threshold.

    Each formula rounds as the library's does, and each sum is added in
    numpy's order (`numpy_order_sum`): exact ties, as between proportional
    MPD lists, then break the same way in both."""
    halves = {1: [], -1: []}  # sign -> [(peak index, peak value)]
    run = 0
    for i, v in enumerate(x):
        v = float(v)
        sign = (v > 0.0) - (v < 0.0)
        if sign and sign == run:
            _, peak = halves[sign][-1]
            if abs(v) > abs(peak):
                halves[sign][-1] = (i, v)
        elif sign:
            halves[sign].append((i, v))
        run = sign
    if not halves[1] or not halves[-1]:
        return None
    mpds, stats = {}, {}
    for sign, peaks in halves.items():
        values = [v for _, v in peaks]
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        mpds[sign] = [max(before, after) for before, after in zip([0.0] + diffs, diffs + [0.0])]
        ampv = numpy_order_sum(mpds[sign]) / len(values)
        spread = math.sqrt(numpy_order_sum([(m - ampv) * (m - ampv) for m in mpds[sign]]) / len(values))
        stats[sign] = ampv, spread, max(mpds[sign])
    (ampv_pos, spread_pos, _), (ampv_neg, spread_neg, _) = stats[1], stats[-1]
    if ampv_pos == 0.0 or ampv_neg == 0.0 or spread_pos / ampv_pos <= spread_neg / ampv_neg:
        polarity = 1
    else:
        polarity = -1
    ampv, _, max_mpd = stats[polarity]
    thresholds = []
    for (_, value), mpd in zip(halves[polarity], mpds[polarity]):
        if mpd <= ampv:
            x_index = 1 if ampv <= 0.0 else min(math.floor(mpd * 10.0 / ampv) + 1, 10)
        elif max_mpd - ampv <= 0.0:
            x_index = 20
        else:
            x_index = 10 + min(max(math.ceil((mpd - ampv) * 10.0 / (max_mpd - ampv)), 1), 10)
        thresholds.append(abs(value) * (1.0 - x_index / 100.0))
    peaks = halves[polarity]
    marks, threshold = [peaks[0][0]], thresholds[0]
    for (index, value), next_threshold in zip(peaks[1:], thresholds[1:]):
        if min_period <= index - marks[-1] <= max_period and abs(value) >= threshold:
            marks.append(index)
            threshold = next_threshold
    return (marks, polarity) if len(marks) >= 2 else None


def toeplitz_lpc(r, order):
    """Dense solve of the Toeplitz normal equations."""
    r = np.asarray(r, dtype=np.float64)
    t = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            t[i, j] = r[abs(i - j)]
    return np.linalg.solve(t, r[1 : order + 1])


def loop_levinson(r):
    """Levinson-Durbin one order at a time on one frame; (a, k, err)."""
    r = np.asarray(r, dtype=np.float64)
    order = r.size - 1
    a = np.zeros(order)
    k = np.zeros(order)
    err = np.empty(order + 1)
    err[0] = r[0]
    for i in range(1, order + 1):
        ki = (r[i] - a[: i - 1] @ r[i - 1 : 0 : -1]) / err[i - 1]
        head = a[: i - 1].copy()
        a[: i - 1] = head - ki * head[::-1]
        a[i - 1] = ki
        k[i - 1] = ki
        err[i] = (1.0 - ki * ki) * err[i - 1]
    return a, k, err


def scalar_levinson(r):
    """Levinson-Durbin on one frame in Python floats, each sum added term by
    term from 0.0: the rounding the batch kernel keeps for every frame,
    whatever the batch's width. (a, k, err) as arrays."""
    r = [float(v) for v in r]
    order = len(r) - 1
    a, k, err = [0.0] * order, [], [r[0]]
    for i in range(1, order + 1):
        acc = 0.0
        for j in range(1, i):
            acc += a[j - 1] * r[i - j]
        ki = (r[i] - acc) / err[-1]
        a[: i - 1] = [a[j] - ki * a[i - 2 - j] for j in range(i - 1)]
        a[i - 1] = ki
        k.append(ki)
        err.append((1.0 - ki * ki) * err[-1])
    return np.array(a), np.array(k), np.array(err)


def first_ill_conditioned(r):
    """The error a whole-matrix Levinson-Durbin over the rows of r raises at
    its first failed check, or None: R[0] of any row, then at each order
    step the residual of any row before the reflection of any row."""
    r = np.asarray(r, dtype=np.float64)
    if (r[:, 0] <= 0.0).any():
        return "ill-conditioned autocorrelation: R[0] <= 0"
    a = np.zeros((r.shape[0], r.shape[1] - 1))
    err = r[:, 0].copy()
    for i in range(1, r.shape[1]):
        if (err <= 0.0).any():
            return "ill-conditioned autocorrelation: vanishing residual"
        k = np.array([(row[i] - a_row[: i - 1] @ row[i - 1 : 0 : -1]) / e
                      for row, a_row, e in zip(r, a, err)])
        if (np.abs(k) >= 1.0).any():
            return "ill-conditioned autocorrelation: |reflection| >= 1"
        head = a[:, : i - 1].copy()
        a[:, : i - 1] = head - k[:, None] * head[:, ::-1]
        a[:, i - 1] = k
        err = (1.0 - k * k) * err
    return None


def loop_cepstra(a):
    """c_n = a_n + sum_{j=1}^{n-1} (j/n) c_j a_{n-j}, one term at a time."""
    p = len(a)
    c = np.zeros(p)
    for n in range(1, p + 1):
        acc = a[n - 1]
        for j in range(1, n):
            acc += (j / n) * c[j - 1] * a[n - j - 1]
        c[n - 1] = acc
    return c


def spectral_cepstra(a, n_ceps, n_fft=1 << 18):
    """Cepstrum of log|1/A| by dense FFT quadrature of the log spectrum."""
    a = np.asarray(a, dtype=np.float64)
    poly = np.zeros(n_fft)
    poly[0] = 1.0
    poly[1 : a.size + 1] = -a
    log_mag = -np.log(np.abs(np.fft.rfft(poly)))
    ceps = np.fft.irfft(log_mag, n_fft)
    return 2.0 * ceps[1 : n_ceps + 1]


def lpc_from_reflection(ks):
    """Step-up recursion: reflection coefficients to a stable predictor."""
    a = np.zeros(0)
    for k in ks:
        grown = np.empty(a.size + 1)
        grown[: a.size] = a - k * a[::-1]
        grown[a.size] = k
        a = grown
    return a


def random_stable_predictor(rng, order=12, max_pole_modulus=0.98):
    """Stable random predictor with pole moduli bounded away from 1.

    The bound keeps log|A| resolvable by the FFT quadrature in
    spectral_cepstra; poles within ~1e-5 of the unit circle would need an
    impractically dense grid to reach 1e-6 accuracy.
    """
    while True:
        a = lpc_from_reflection(rng.uniform(-0.9, 0.9, order))
        poles = np.roots(np.concatenate(([1.0], -a)))
        if np.max(np.abs(poles)) <= max_pole_modulus:
            return a


def brute_argmin(distances):
    """Smallest distance, ties to the lexicographically smallest id."""
    return min(distances, key=lambda sid: (distances[sid], sid))


def weighted_distance(x, y, w) -> float:
    """Tokhura's weighted squared-Euclidean distance, one pair at a time:
    sum_i w_i (x_i - y_i)^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape != y.shape or x.shape != w.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape} vs {w.shape}")
    d = x - y
    return float(w @ (d * d))


def distance_dict(report, family):
    """A report's `family` ("cepstral" or "temporal") distances as an
    id -> float dict."""
    return dict(zip(report.ids, getattr(report, f"{family}_distances").tolist()))


def report_key(report):
    """What a distance report says: its ids, both picks and the bytes of
    both distance arrays. Reports do not compare by value."""
    return (
        report.ids, report.argmin_cepstral, report.argmin_temporal,
        report.cepstral_distances.tobytes(), report.temporal_distances.tobytes(),
    )


def autocorr_period(x, min_lag, max_lag):
    """Lag of the autocorrelation peak inside [min_lag, max_lag]."""
    x = np.asarray(x, dtype=np.float64)
    acf = np.array([x[: x.size - k] @ x[k:] for k in range(max_lag + 1)])
    return min_lag + int(np.argmax(acf[min_lag : max_lag + 1]))


def reference_load_text(data: bytes):
    """Read a one-number-per-line text signal one line at a time with
    float(): the list of sample values. A refused file raises ValueError
    whose only argument is the faulty line number (None when the fault is
    the encoding, an empty signal or a non-finite value)."""
    try:
        lines = data.decode("utf-8-sig").splitlines()
    except UnicodeDecodeError:
        raise ValueError(None) from None
    values = []
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(lineno) from None
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(None)
    return values
