import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import hilbert

from tcpsync.signals import (
    analytic_phase,
    analytic_signal,
    dominant_frequency,
    fit_frequency,
    local_maxima,
)


def test_dominant_frequency_pure_tone_within_one_bin():
    dt = 0.002
    n = 4000
    t = dt * np.arange(n)
    omega = 37.3
    x = 1.7 * np.sin(omega * t)
    bin_width = 2 * math.pi / (n * dt)
    assert abs(dominant_frequency(x, dt) - omega) <= bin_width


def test_dominant_frequency_flat_input():
    assert dominant_frequency(np.ones(100), 0.01) == 0.0


def test_analytic_phase_slope_recovers_frequency():
    dt = 0.001
    t = dt * np.arange(20000)
    x = np.sin(52.0 * t + 0.3)
    ph = analytic_phase(x)
    # ignore the transform's edge artefacts
    k = len(ph) // 10
    assert fit_frequency(ph[k:-k], dt) == pytest.approx(52.0, rel=1e-3)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=300))
def test_analytic_signal_matches_scipy_hilbert(x):
    """The FFT analytic signal equals scipy.signal.hilbert value for value,
    odd and even N: the same bits, up to the sign of an exact zero."""
    x = np.array(x)
    assert np.array_equal(analytic_signal(x), hilbert(x))


def test_cli_import_loads_no_scipy():
    """Importing the CLI loads neither scipy nor the process-pool machinery,
    which only ``sweep --workers N`` with N > 1 needs."""
    code = (
        "import sys, tcpsync.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
        "in ('scipy', 'multiprocessing') or m == 'concurrent.futures.process'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_local_maxima():
    x = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0])
    idx = local_maxima(x)
    assert list(idx) == [1, 3, 5]
