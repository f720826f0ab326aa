"""Host speed calibration.

The benchmark host is a shared virtual machine whose speed changes by up
to a factor of two for seconds at a time, for all code alike.  A short
fixed kernel, timed next to every measurement, tracks that speed, and a
measured time is scaled to what it would have been had the kernel taken
REFERENCE_S.  The kernel mixes the work eak does: interpreted integer
loops, Fraction arithmetic and small int64 numpy products.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.002  # the kernel's time at the reference speed
# Process start-up does not follow the kernel; a bare interpreter started
# next to the measured one tracks it instead.
SPAWN_REFERENCE_S = 0.08  # a bare `python3 -c pass` at the reference speed
WINDOW = 2  # neighbours on each side whose kernel times are pooled

_A = np.arange(4 * 8, dtype=np.int64).reshape(8, 4) - 16
_X = np.arange(1500 * 4, dtype=np.int64).reshape(1500, 4) % 97


def kernel_s() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 7, i)
    x = 0
    for i in range(6000):
        x += i * i
    for _ in range(4):
        (_X @ _A.T <= 40).all(axis=1).sum()
    return time.perf_counter() - start


def normalize(seconds: list[float], kernels: list[float]) -> list[float]:
    """Each time scaled by REFERENCE_S over the median kernel time of its
    neighbourhood, which damps the kernel's own noise."""
    out = []
    for i, s in enumerate(seconds):
        near = kernels[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(s * REFERENCE_S / statistics.median(near))
    return out
