"""Machine-speed calibration for the benchmark's time metrics.

A shared 2-core virtual machine (Python 3.11.7, numpy 2.4.6) changed
speed by up to 1.8x over minutes (a 4.4 s job took 9 s in a slow phase),
which no median over passes inside a 36 s run can hide.  `kernel_times()` times a fixed kernel in the style of the jet
product loop (graded products of a list of arrays) between the jobs of a
pass; a time t measured among those kernel runs is reported as
t * REF_SECONDS / (their median): seconds on a machine where the kernel
takes REF_SECONDS.  The kernel uses numpy and the standard library only,
so a change to frontal_lab cannot move it.  The first run in a process
is slow (fresh pages), so callers take the median of several.
"""

from __future__ import annotations

import statistics
import time

REF_SECONDS = 0.05
# (lanes, rounds): interpreter-bound, cache-resident and memory-bound
# products, about a third of the kernel time each, because the workloads'
# jets run at about 100, 1k-4k and 40k lanes.
_SIZES = ((64, 120), (4096, 30), (65536, 2))


def _products(lanes, rounds):
    import numpy as np      # not at module level: set-up timing imports it
    coeffs = [np.linspace(0.5, 1.5, lanes) + k for k in range(10)]
    for _ in range(rounds):
        out = []
        for i in range(10):
            acc = 0.0
            for j in range(i + 1):
                acc = acc + coeffs[j] * coeffs[i - j]
            out.append(acc)
        coeffs = [c * (1.0 / 64.0) for c in out]


def _kernel():
    t0 = time.perf_counter()
    for lanes, rounds in _SIZES:
        _products(lanes, rounds)
    return time.perf_counter() - t0


def kernel_times(reps=2):
    """Times of `reps` runs of the calibration kernel."""
    return [_kernel() for _ in range(reps)]


def scale(times):
    """Factor converting a time measured among these kernel times."""
    return REF_SECONDS / statistics.median(times)
