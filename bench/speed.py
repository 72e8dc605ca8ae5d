"""Timings corrected for the speed the CPU gives this process.

On a shared 2-vCPU VM the speed of the same code drifts by up to 2x over
minutes, longer than a run, so raw throughput of ten identical 20 s runs
spread by 12-37% (quartile distance over median).  A fixed reference
kernel, timed before and after each stretch of work, measures that
speed, and each duration is reported in reference seconds: raw seconds
times REFERENCE_S / (the reference's time).  Package code never runs in
the reference, so a change to the package moves the corrected figures as
it moves the raw ones.  With the correction the same spread fell to 2-5%.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# What the reference takes on the machine the benchmark was built on
# (Intel Xeon, 2 vCPU, Python 3.11, numpy 2.4), so corrected figures read
# close to seconds there.
REFERENCE_S = 0.003
RECALIBRATE_S = 0.2  # seconds of work between timings of the reference

_M10 = np.arange(100, dtype=np.int64).reshape(10, 10)
_FLOATS = np.random.default_rng(0).standard_normal(1 << 15)


def reference():
    """A fixed mix of the kinds of work the package does: Fraction and
    dict arithmetic in Python, small int64 matrix products, a float sort."""
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(i % 7 - 3, i % 5 + 1)
    d: dict[int, int] = {}
    for i in range(3000):
        k = i * 7 % 1009
        d[k] = d.get(k, 0) + i
    a = _M10
    for _ in range(150):
        a = (a @ _M10) % 1009
    return f, d, a, np.sort(_FLOATS)


def reference_seconds() -> float:
    """Median time of three runs of the reference."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times calls, and times the reference (median of 3) before a call
    once RECALIBRATE_S have passed since it was last timed.  A call's duration
    in reference seconds uses the mean of the reference times just before
    and just after its stretch of calls."""

    def __init__(self):
        self.raw: list[float] = []
        self._refs: list[tuple[int, float]] = []  # (first call, reference time)
        self._last = -float("inf")

    def _calibrate(self):
        self._refs.append((len(self.raw), reference_seconds()))
        self._last = time.perf_counter()

    def measure(self, fn, *args, **kwargs):
        """Run fn; keep its raw duration and return its result."""
        if time.perf_counter() - self._last >= RECALIBRATE_S:
            self._calibrate()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.raw.append(time.perf_counter() - t0)
        return result

    def corrected(self) -> list[float]:
        """Every call's duration so far, in reference seconds."""
        if self._refs and self._refs[-1][0] < len(self.raw):
            self._calibrate()  # closes the last stretch
        out = []
        for (start, before), (end, after) in zip(self._refs, self._refs[1:]):
            factor = 2 * REFERENCE_S / (before + after)
            out += [d * factor for d in self.raw[start:end]]
        return out
