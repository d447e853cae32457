"""A fixed reference computation that gauges how fast the machine runs now.

On a host shared with other tenants, they change how fast this process runs
by a fifth or more, over periods of seconds to minutes.  That swamps the
differences the benchmark exists to show.  So the benchmark times a
reference kernel between instances and scales each instance's time by
``nominal / kernel time``: the figures it reports are times at the speed at
which the kernel takes its nominal time.

The kernel sums products of fractions with the standard library, as exact
jet products do.  One kernel serves every workload: in alternated runs it
kept each workload as steady as a kernel shaped like that workload's own
work did (the README gives the figures).  It is part of the benchmark, never
of the program, and runs with the cycle collector paused.  It runs in the
same process as jetcheck, straight after it, so a change to jetcheck that
left the caches or the allocator in a worse state for it would be partly
scaled away; the README records how far this was checked.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The kernel's typical time on a 2-vCPU Intel Xeon virtual machine with
# Python 3.11, so scaled figures stay close to wall time.
NOMINAL_S = 0.0011
# How often the gauge reads the kernel between instances.
INTERVAL_S = 0.2


def _kernel() -> None:
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Runs the kernel every ``INTERVAL_S`` between instances and turns each
    instance's wall time into a time at the kernel's nominal speed."""

    def __init__(self) -> None:
        self._last_read = 0.0

    def read(self) -> float:
        """Kernel time now: the mean of two runs."""
        reading = (kernel_s() + kernel_s()) / 2
        self._last_read = time.perf_counter()
        return reading

    def due(self) -> bool:
        return time.perf_counter() - self._last_read >= INTERVAL_S

    def normalize(self, raw: list[float], before: float, after: float) -> list[float]:
        """Scale times measured between two readings to nominal speed."""
        factor = NOMINAL_S / ((before + after) / 2)
        return [t * factor for t in raw]
