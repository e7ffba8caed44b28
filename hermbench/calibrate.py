"""Machine-speed calibration.

On a shared machine the same pass can take 1.8 times as long for a minute
or more while neighbours are busy, and the speed also changes from one
second to the next; medians within one run cannot remove that.  The
benchmark therefore times a short fixed kernel, independent of hermkit,
between consecutive CLI calls (and around every set-up interpreter), and
scales each measured time by ``REFERENCE_S / kernel time``, using the mean of
the kernel times just before and just after it.  Times then read as seconds
at the speed at which the kernel takes ``REFERENCE_S``.  The kernel mixes
interpreter work with small NumPy operations, as hermkit does, so it slows
down with it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Kernel time on the unloaded 2-core x86-64 machine (Python 3.11, NumPy 2.4)
#: the benchmark was defined on.
REFERENCE_S = 0.00175
STEPS = 300


def kernel() -> float:
    acc = 0.0
    a = np.eye(4)
    for i in range(STEPS):
        v = np.asarray([i * 0.5, 1.0, 2.0, 3.0])
        a = 0.5 * (a + np.outer(v, v) * 1e-6)
        acc += float(v @ a @ v) * 1e-9
    return acc


def kernel_seconds(repeats: int = 1) -> float:
    """Median time of the kernel over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between two kernel timings to seconds at
    the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
