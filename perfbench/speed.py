"""Host speed sampling, so that times can be scaled to a reference speed.

On a shared machine the speed of the same Python code can switch between
levels far apart (1.7x on a 2-vCPU KVM guest) every few milliseconds, and the
share of slow time drifts over minutes.  A benchmark that reports bare wall
time then measures its neighbours as much as the program.

``SpeedSampler`` runs a fixed pure-Python loop (the *kernel*) from a SIGPROF
handler every ``PERIOD_S`` of process CPU time, that is, in the middle of the
work being measured, and records how long each run of the kernel took.  The
mean kernel time over an interval is the host's speed during that interval.
A time measured over the interval, times ``factor`` of the samples, is in
*reference seconds*: the time on a host that runs the kernel in
``REFERENCE_S``.  The kernel's own time is kept out of measured times by
reading ``SpeedSampler.clock``.

The kernel is integer arithmetic that stays in the CPU's first-level cache,
so its time does not depend on what the program under test left in the
caches: a change to the program moves reference seconds as it moves wall
seconds at a steady host speed.  (Kernels that read scattered memory tracked
contention better on some workloads, but their times rose with the program's
own cache footprint, so they were not used.)  Contention slows the workloads
by different amounts than it slows the kernel, so scaling narrows the spread
of times but does not remove it.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_N = 16_000      # loop length
REFERENCE_S = 1.1e-3   # the kernel's time on an uncontended vCPU of a Xeon KVM host
PERIOD_S = 0.02        # CPU time between kernel runs (about 5% overhead)


def kernel() -> float:
    """Seconds taken by one run of the fixed reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(KERNEL_N):
        s += i * i
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs ``kernel`` every ``PERIOD_S`` of CPU time while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0     # total time of all kernel runs so far
        self._old = None

    def _tick(self, signum, frame):
        dt = kernel()
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in the kernel."""
        return time.perf_counter() - self.spent


def factor(samples) -> float:
    """Reference seconds per second measured while the kernel took ``samples``."""
    return REFERENCE_S / statistics.fmean(samples)
