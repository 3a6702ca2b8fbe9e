"""Host speed sampling, so timings can be read at one nominal speed.

A shared host can run a core at half its speed for seconds at a time while
other tenants load it, which no number of repeats inside one run averages
out. While a measured interval runs, a timer interrupts the process every
PERIOD_S and times a fixed kernel of the benchmark's own: an interpreted
loop, which tracked the slowdowns of both the Python-bound and the
BLAS-bound workloads more closely than small or large dense linear
algebra did. The kernel runs once untimed first, so the timed run finds
its code and data in cache whatever the program left there. The kernel's mean time over the
interval, against NOMINAL_S, says how fast the core ran, and a measured
time is rescaled by that factor:

    scaled = (wall - time spent sampling) * NOMINAL_S / kernel mean

The kernel never calls the program, so a change to the program moves the
scaled time exactly as it moves the wall time at constant host speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
# The kernel's time on an idle core of the machine this was written on
# (Intel Xeon, 2 vCPUs). Any constant works: parent and change share it.
NOMINAL_S = 5.5e-4


def kernel() -> None:
    x = 0
    for i in range(10000):
        x += i * i


class SpeedSampler:
    """``with SpeedSampler() as s:`` samples the kernel during the block;
    afterwards ``s.spent`` is the time the samples took and ``s.factor``
    the ratio NOMINAL_S / mean kernel time (below 1 on a slowed core)."""

    def __init__(self):
        self.samples: list = []

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        kernel()
        t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an interval shorter than one period
            spent = self.spent
            self._on_alarm(None, None)
            self.spent = spent
        self.factor = NOMINAL_S / statistics.fmean(self.samples)
        return False
