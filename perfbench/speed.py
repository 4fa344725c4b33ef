"""How fast the host runs Python right now, from a fixed reference kernel.

A shared machine's speed drifts by tens of percent for tens of seconds at a
time, and other processes take turns on its few CPUs.  Op times are CPU
times, which leave the turns out, and the timed loop samples the CPU time of
a small fixed kernel (exact rational arithmetic and dict updates, as the
library's own inner loops do) every SAMPLE_EVERY seconds.  A time measured
near a sample is scaled by REFERENCE_S over the median of the samples around
it: what it would have taken on a host where the kernel takes REFERENCE_S.
The kernel is this file's own code, so no change to the library moves it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

SAMPLE_EVERY = 0.1  # wall seconds between samples
WINDOW = 4  # a time is scaled by the median of the samples within this many of its own
REFERENCE_S = 0.0018  # the kernel's median CPU time on a calm 2-vCPU x86-64 VM, Python 3.11


def reference_kernel(n: int = 400):
    total = Fraction(0)
    seen: dict = {}
    for i in range(1, n):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 13, str(i % 11))
        seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []  # CPU seconds per kernel run
        self._last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Sample the kernel if a sample is due (or ``force``); returns the
        index of the latest sample."""
        if force or time.perf_counter() - self._last >= SAMPLE_EVERY:
            # no collection inside the kernel, whose cost would grow with
            # the heap the library keeps
            gc.disable()
            start = time.process_time()
            reference_kernel()
            self.samples.append(time.process_time() - start)
            gc.enable()
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """The factor that turns a CPU time measured next to sample ``index``
        into the time it would take at the reference speed."""
        window = self.samples[max(0, index - WINDOW) : index + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)
