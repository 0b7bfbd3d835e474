"""Fixed reference kernels that turn raw seconds into reference-adjusted seconds.

The host this benchmark was defined on changes speed by up to 1.7x within
seconds (a fixed kernel flips between about 0.28 ms and 0.47 ms), and the
share of time spent slow drifts from one minute to the next: back-to-back
runs of identical code had raw medians 9-19 % apart.  Bracketing a whole
rep with two reference runs did not follow these flips (per-rep spread
14.5 % raw, 12.9 % adjusted).  So the in-process reference is sampled all
through the timed work instead: a timer signal runs `kernel()` every
`SAMPLE_INTERVAL_S` seconds, and a rep's `R_measured` is the harmonic mean
of the kernel times seen while it ran.  In trials on 128-bit root solving
this cut the per-rep spread from 19 % raw to 4 %, and adding the 128-bit
mpmath part to the kernel brought it to 2 %; it also halved the spread of
8-rep medians on root solving (2.1 % to 1.05 %) and on exact chains
(3.1 % to 1.8 %).  A value is reported as

    adjusted = raw * R_NOMINAL / R_measured

where `R_NOMINAL` is the kernel time recorded on the defining host.  Both
kernels are fixed here and never change with the program under test.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np
from mpmath.libmp import from_float, mpc_add, mpc_mul, round_nearest

__all__ = [
    "R_NOMINAL",
    "FRESH_R_NOMINAL",
    "SAMPLE_INTERVAL_S",
    "FRESH_REFERENCE_CODE",
    "kernel",
    "SpeedSampler",
    "harmonic_mean",
]

# Medians over the reps and setup samples of one run of each workload on
# the defining host (2 vCPUs, x86_64, Python 3.11, numpy 2.4), in seconds:
# the `kernel()` thread time sampled during the reps, and the wall time of
# a fresh interpreter running FRESH_REFERENCE_CODE.
R_NOMINAL = 7.6e-4
FRESH_R_NOMINAL = 0.143
SAMPLE_INTERVAL_S = 0.02

# Imports only the standard library: the same kind of work (finding,
# unmarshalling and executing modules, loading shared libraries) as
# importing the program with numpy and mpmath.
FRESH_REFERENCE_CODE = (
    "import argparse, json, fractions, decimal, statistics, dataclasses, "
    "typing, email.message, http.client, xml.etree.ElementTree, "
    "unittest, logging, csv, concurrent.futures, ssl, sqlite3, ctypes"
)

_COEFFS = [complex(k % 7 - 3, (k * 5) % 11 - 5) / 8 for k in range(24)]
_MP_COEFFS = [(from_float(c.real), from_float(c.imag)) for c in _COEFFS]
_MP_ZERO = (from_float(0.0), from_float(0.0))
_A0 = np.array([1.0, 1.0, 20.0])


def kernel():
    """About 0.4 ms of interpreter-bound, big-integer and numpy work."""
    total = 0j
    for j in range(20):
        z = complex(0.9 + 0.001 * j, 0.3)
        acc = 0j
        for c in _COEFFS:
            acc = acc * z + c
        total += acc
    s = Fraction(0)
    for k in range(1, 13):
        s += Fraction(2 * k + 1, 3 << (k % 40))
    x = 3 ** 200
    for k in range(30):
        x = (x * 0x9E3779B97F4A7C15 + k) % (1 << 384)
    # 128-bit complex Horner on mpmath's integer-mantissa floats
    mp = _MP_ZERO
    for j in range(2):
        z = (from_float(0.9 + 0.001 * j), from_float(0.3))
        acc = _MP_ZERO
        for c in _MP_COEFFS:
            acc = mpc_add(mpc_mul(acc, z, 128, round_nearest), c, 128, round_nearest)
        mp = mpc_add(mp, acc, 128, round_nearest)
    a = _A0
    for _ in range(25):
        a = a + 1e-3 * np.array([10.0 * (a[1] - a[0]),
                                 a[0] * (28.0 - a[2]) - a[1],
                                 a[0] * a[1] - 2.5 * a[2]])
    return total, s, x, mp, a


class SpeedSampler:
    """Runs `kernel()` from a SIGALRM handler while it is active.

    Kernel times are taken with `time.thread_time`, which on this host
    tracks the wall-clock slowdowns but, unlike wall time, excludes waits
    for the interpreter lock while worker threads run.  `spent` is the
    thread time used inside the handler; `work_clock()` excludes it, so
    timings of the work under test do not include the sampling.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.thread_time()
        kernel()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.spent += dt

    def work_clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self) -> list:
        """Return the kernel times gathered so far and start a new batch."""
        out, self.samples = self.samples, []
        return out


def harmonic_mean(values) -> float:
    values = list(values)
    return len(values) / sum(1.0 / v for v in values)
