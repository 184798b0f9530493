"""Phase and frequency extraction from oscillating traces.

Limit cycles produced by the fluid and packet simulators are close to
harmonic, so instantaneous phase is taken from the analytic signal (spectral
Hilbert transform) of the mean-removed series and then unwrapped; lock
frequencies come from a straight-line fit to that phase.  Dominant
frequencies use a Hann-windowed spectrum with parabolic refinement of the
peak bin.
"""

import math

import numpy as np


def analytic_signal(x):
    """x + j H[x] by FFT (Marple, IEEE TSP 47(9), 1999): the one-sided
    spectrum keeps DC (and Nyquist for even length) once and doubles the
    positive bins.  This is the algorithm of ``scipy.signal.hilbert``; the
    bits match it up to the sign of an exact zero."""
    x = np.asarray(x, dtype=float)
    half = np.fft.rfft(x)
    mask = np.full(len(half), 2.0)
    mask[0] = 1.0
    if len(x) % 2 == 0:
        mask[-1] = 1.0
    spec = np.zeros(len(x), dtype=complex)
    spec[: len(half)] = half * mask
    return np.fft.ifft(spec)


def analytic_phase(x):
    """Unwrapped instantaneous phase of the mean-removed analytic signal."""
    x = np.asarray(x, dtype=float)
    return np.unwrap(np.angle(analytic_signal(x - x.mean())))


def fit_frequency(phase, dt):
    """Mean angular speed (rad/s) of an unwrapped phase via linear fit."""
    phase = np.asarray(phase, dtype=float)
    t = dt * np.arange(len(phase))
    slope = np.polyfit(t, phase, 1)[0]
    return float(slope)


def dominant_frequency(x, dt):
    """Dominant angular frequency (rad/s) of a series; 0 for flat input.

    Hann-windowed magnitude spectrum, DC excluded; the peak bin is refined
    parabolically when it has two interior neighbours.
    """
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    if len(x) < 4 or not np.any(x):
        return 0.0
    win = np.hanning(len(x))
    mag = np.abs(np.fft.rfft(x * win))
    if len(mag) < 3:
        return 0.0
    k = 1 + int(np.argmax(mag[1:]))
    df = 2.0 * math.pi / (len(x) * dt)
    if 1 <= k - 1 and k + 1 < len(mag) and mag[k] > 0:
        with np.errstate(divide="ignore"):
            la, lb, lc = np.log(mag[k - 1 : k + 2])
        denom = la - 2.0 * lb + lc
        if np.isfinite(denom) and denom < 0:
            k = k - 0.5 * (lc - la) / denom
    return float(k * df)


def bandpass(x, dt, w_lo, w_hi):
    """Zero-phase band-pass by FFT masking; band edges in rad/s."""
    x = np.asarray(x, dtype=float)
    spec = np.fft.rfft(x - x.mean())
    w = 2.0 * math.pi * np.fft.rfftfreq(len(x), dt)
    spec[(w < w_lo) | (w > w_hi)] = 0.0
    return np.fft.irfft(spec, n=len(x))


def autocorr_period(y, dt, w_lo, w_hi):
    """Cycle period from the autocorrelation of ``y``, a series already
    band-passed to (w_lo, w_hi) rad/s: the highest local peak between the
    band's own period limits, else the largest value there.  Returns
    (period_s, peak_correlation); (nan, 0) when ``y`` is flat or the lag
    range is empty."""
    if not np.any(y):
        return float("nan"), 0.0
    ac = np.correlate(y, y, "full")[len(y) - 1 :]
    if ac[0] <= 0:
        return float("nan"), 0.0
    ac = ac / ac[0]
    lag_lo = max(1, int(2.0 * math.pi / w_hi / dt))
    lag_hi = min(len(ac) - 2, int(2.0 * math.pi / w_lo / dt))
    if lag_hi <= lag_lo:
        return float("nan"), 0.0
    seg = ac[lag_lo : lag_hi + 1]
    peaks = local_maxima(seg)
    if len(peaks) == 0:
        k = int(np.argmax(seg))
    else:
        k = int(peaks[np.argmax(seg[peaks])])
    return (lag_lo + k) * dt, float(seg[k])


def local_maxima(x):
    """Indices of strict interior local maxima."""
    x = np.asarray(x, dtype=float)
    idx = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:]))[0] + 1
    return idx
