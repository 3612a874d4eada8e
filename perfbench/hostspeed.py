"""Host speed, from a fixed computation timed between benchmark items.

On a shared 2-vCPU VM the host's speed swings by up to 2x, in phases
of seconds to minutes, and every kind of work slows alike: binned
into 3 s windows of one 60 s run, the slowdown of ``reference()`` and
that of the items had correlation 0.96 on ``decide_sweep`` and
``iterative_bench`` (0.77 over 6 s windows on ``anchored_oracle``,
whose windows hold only a few items). Scaling a run's timings by the
reference's mean time over the run therefore takes the host's phase
out of them. ``reference()`` does not touch fprlab, so a change to the
package does not move it.
"""

from __future__ import annotations

import time

import numpy as np

EVERY_S = 0.25
CALLS = 3  # a sample is the fastest of CALLS back-to-back calls: drops a rare preemption
# Time of one reference() on the host this benchmark was written on
# (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6) in a quiet phase. Scaled
# timings read as if the host ran reference() in exactly this time.
QUIET_S = 0.0016

_SIGNAL = np.exp(0.01j * np.arange(4096))


def reference() -> int:
    """A pure-Python loop and FFT round trips: the two kinds of work the
    items do."""
    s = 0
    for i in range(10000):
        s += i * i % 7
    for _ in range(10):
        np.fft.ifft(np.fft.fft(_SIGNAL))
    return s


class HostSpeed:
    """Samples ``reference()`` at most every EVERY_S seconds of benchmark
    work; each sample stands for the time since the one before it."""

    def __init__(self):
        reference()  # warm-up: first-call costs are not host speed
        self.samples: list = []  # (reference seconds, seconds it stands for)
        self._last = time.perf_counter()

    def sample(self, due_only: bool = True):
        start = time.perf_counter()
        if due_only and start - self._last < EVERY_S:
            return
        best = float("inf")
        for _ in range(CALLS):
            t0 = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t0)
        self.samples.append((best, start - self._last))
        self._last = time.perf_counter()

    def ref_s(self) -> float:
        """Mean reference time, weighted by the time each sample stands for."""
        return sum(r * w for r, w in self.samples) / sum(w for _, w in self.samples)

    def scale(self) -> float:
        """Factor that turns this run's timings into quiet-host timings."""
        return QUIET_S / self.ref_s()
