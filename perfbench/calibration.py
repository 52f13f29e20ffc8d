"""Host-speed calibration for the benchmark's timings.

On a shared host the CPU speed of one vCPU drifts by up to about 1.8x,
in phases that last from a second to several minutes, so no statistic
over one 30-second run of raw wall times is steady from run to run.
Every timed stage is therefore bracketed by a fixed calibration loop and
reported in reference seconds:

    reported = wall time * REFERENCE_LOOP_S / calibration loop time

where the calibration time is the mean of the loop's median time just
before and just after the stage. A change to gftnn moves the wall time
and not the loop, so it moves the reported time by the same share; a
slow phase of the host moves both and cancels.

The loop is the benchmark's own code and calls nothing from gftnn: a
mix of interpreter work and 9x9 numpy products, like gftnn's inner loops.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median time of one loop on the 2-vCPU Xeon (Sapphire Rapids, 2.1 GHz)
# VM the benchmark was tuned on, so reference seconds are close to the
# wall seconds measured there.
REFERENCE_LOOP_S = 1.5e-3
REPEATS = 5
_MATRIX = np.linspace(0.0, 1.0, 81).reshape(9, 9)


def _loop() -> float:
    total = 0.0
    a = _MATRIX
    for i in range(200):
        b = a @ a.T + a
        total += float(b[i % 9, (i * 7) % 9])
        for j in range(40):
            total += j * 0.5
    return total


def loop_seconds() -> float:
    """Median time of the calibration loop over a few repeats."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def timed(fn):
    """Run ``fn()``; return its result, wall seconds and the factor that
    turns wall seconds into reference seconds."""
    before = loop_seconds()
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    after = loop_seconds()
    return result, wall, REFERENCE_LOOP_S / (0.5 * (before + after))
