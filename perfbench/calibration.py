"""Machine-speed calibration for the benchmark's timings.

The reference machine (a 2-vCPU Intel Xeon VM, Python 3.11.7) changes speed
by up to 2x for seconds to minutes at a time, while nothing else runs in it.
The same seed of the `sweep` workload gave a median op latency of 60 ms in one
run and 92 ms in the next. So every timed op is bracketed by runs of
`calibrate`, a fixed loop of pure-Python work. The library never runs inside
it. Each time is then rescaled to the reference machine's quiet speed:

    normalized = measured * CAL_REF_S / (time of calibrate() next to it)

A change to the library moves the normalized figures exactly as much as the
measured ones. A change in machine speed moves the calibration too, and
mostly cancels out.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Median time of calibrate() on the reference machine in a quiet minute.
CAL_REF_S = 1.0e-3


def calibrate() -> float:
    """Seconds taken by a fixed mix of Fraction arithmetic, tuple sorting and
    dict updates, the kinds of work the library does."""
    start = perf_counter()
    acc = Fraction(0)
    counts = {}
    for i in range(1, 320):
        t = tuple(sorted((i % 7, i % 11, i % 13)))
        counts[t] = counts.get(t, 0) + 1
        acc += Fraction(i, i + 1)
    return perf_counter() - start
