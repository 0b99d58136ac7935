"""Independent oracles used by the tests; deliberately take different
routes than the library code they check."""

import math

import numpy as np


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


def autocorr_period(x, min_lag, max_lag):
    """Lag of the autocorrelation peak inside [min_lag, max_lag]."""
    x = np.asarray(x, dtype=np.float64)
    acf = np.array([x[: x.size - k] @ x[k:] for k in range(max_lag + 1)])
    return min_lag + int(np.argmax(acf[min_lag : max_lag + 1]))


MODEL_HEADER = "PSV-MODELS v1"
MODEL_VOWELS = ("a", "e", "i", "o", "u")


def reference_model_text(records):
    """The v1 model file as first written: one line per (speaker id, vowel,
    count, 16 values) record, sorted by (speaker, vowel), each value
    formatted on its own with format(v, ".12g")."""
    lines = [MODEL_HEADER]
    for sid, vowel, n, values in sorted(records, key=lambda r: (r[0], r[1])):
        lines.append(f"{sid} {vowel} {n} " + " ".join(format(v, ".12g") for v in values))
    return "\n".join(lines) + "\n"


def reference_load_models(data: bytes):
    """Read a v1 model file one line at a time with str.split, int and
    float: {(sid, vowel): (count, [16 floats])}. A broken file raises
    ValueError whose only argument is the faulty line number (None for the
    header or the encoding)."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise ValueError(None) from None
    if not lines or lines[0].strip() != MODEL_HEADER:
        raise ValueError(None)
    models = {}
    for lineno, line in enumerate(lines[1:], 2):
        tokens = line.split()
        if not tokens:
            continue
        try:
            if len(tokens) != 19:
                raise ValueError
            sid, vowel = tokens[:2]
            n = int(tokens[2])
            values = [float(t) for t in tokens[3:]]
            if (sid, vowel) in models or vowel not in MODEL_VOWELS:
                raise ValueError
            if not (1 <= n < 2**63 and all(math.isfinite(v) for v in values)):
                raise ValueError
        except ValueError:
            raise ValueError(lineno) from None
        models[sid, vowel] = (n, values)
    return models
