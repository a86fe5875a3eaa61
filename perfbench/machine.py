"""Correct wall-clock timings for the speed the machine runs at now.

On a shared host the same code runs up to 1.5x slower while other
tenants load the physical core, in phases lasting from under a second
to tens of seconds, so raw timings of identical work spread far more
than the regressions the benchmark must catch.  A :class:`Meter`
therefore times a fixed reference kernel (interpreter loops, small dict
and NumPy operations, none of it from the program) at short intervals
between operations, and every reported time is scaled to a fixed
nominal kernel rate::

    reported_seconds = wall_seconds * measured_rate / NOMINAL_RATE

where ``measured_rate`` is the mean of the two samples bracketing the
interval.  The sampling slices themselves are excluded from every
timed interval, and the garbage collector is off while the kernel runs,
so the program's heap does not slow the kernel down.  A cost the
program adds is scaled by the same factor as the rest of its run, so it
shows at its full share; a wait that does not slow down with the CPU
(an fsync, say) is scaled too, which is exact only while the measured
rate stays near the nominal one.  Raw figures and the measured speed go
to standard error on every run.
"""

from __future__ import annotations

import bisect
import gc
import time

import numpy as np

#: Kernel iterations per second the reported times are scaled to
#: (about the rate of an unloaded 2.1 GHz Xeon core).
NOMINAL_RATE = 100_000.0
#: Seconds one sample times the kernel for.
SLICE_S = 0.01
#: Seconds between samples taken with :meth:`Meter.maybe_sample`.
EVERY_S = 0.1

_MATRIX = np.linspace(0.0, 1.0, 256).reshape(16, 16)


def _kernel() -> None:
    total = sum(i * i for i in range(50))
    product = _MATRIX @ _MATRIX
    table = {str(i): i for i in range(20)}
    if total < 0 or product[0, 0] < 0 or len(table) != 20:
        raise AssertionError("reference kernel computed garbage")


def reference_rate(duration: float) -> float:
    """Kernel iterations per second over about ``duration`` seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        iterations = 0
        while True:
            for _ in range(10):
                _kernel()
            iterations += 10
            elapsed = time.perf_counter() - start
            if elapsed >= duration:
                return iterations / elapsed
    finally:
        if collecting:
            gc.enable()


class Meter:
    """Reference-kernel samples over a run, and the scaling they imply.

    Call :meth:`sample` before the first and after the last timed
    interval, and :meth:`maybe_sample` between operations; intervals
    are then converted with :meth:`scaled`.
    """

    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._rates: list[float] = []

    def sample(self, slice_s: float = SLICE_S) -> None:
        """Time the reference kernel now."""
        start = time.perf_counter()
        rate = reference_rate(slice_s)
        self._starts.append(start)
        self._ends.append(time.perf_counter())
        self._rates.append(rate)

    def maybe_sample(self) -> None:
        """Sample if the last sample is at least ``EVERY_S`` old."""
        if time.perf_counter() - self._ends[-1] >= EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Nominal-speed seconds of ``[start, end]``, samples excluded."""
        i = max(bisect.bisect_right(self._ends, start) - 1, 0)
        total = 0.0
        while i + 1 < len(self._ends) and self._ends[i] < end:
            low = max(start, self._ends[i])
            high = min(end, self._starts[i + 1])
            if high > low:
                rate = 0.5 * (self._rates[i] + self._rates[i + 1])
                total += (high - low) * rate / NOMINAL_RATE
            i += 1
        return total

    def median_speed(self) -> float:
        """Median sampled rate relative to the nominal rate."""
        rates = sorted(self._rates)
        return rates[len(rates) // 2] / NOMINAL_RATE
