"""Host-speed probe: a fixed calibration kernel, timed five times a second.

The benchmark runs on shared machines whose speed drifts while it runs:
on a 2-core host, one identical plan took 0.070 s and 0.117 s within the
same minute, with no other benchmark process running.  The probe times a
kernel that does not use splinetraj, from a SIGALRM handler, so the
samples interleave with the plans.  A plan's time in reference seconds is
its wall time (minus the probe's own time) scaled by
``REFERENCE_S / kernel time`` around the plan.  A change to splinetraj
cannot change the kernel, so it moves reference seconds as it moves wall
seconds, while most of a slow-down of the whole host cancels out.

The kernel has three parts because contention slows different work by
different amounts: small-array numpy calls and Python loops (the cost
profile of the mobile plans), mid-size matrix products (that of the
``FitOperator`` fits of the arm plans) and a sum over a 16 MB array
(memory bandwidth).  On the host above, the run-to-run spread of
``arm_dynamic`` plan times was 0.16 of the median in wall seconds, 0.15
normalised by the first part alone and 0.05 by the whole kernel.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Kernel seconds that define one reference second of host speed.
REFERENCE_S = 4e-3
PERIOD_S = 0.2
# Samples behind a scale factor: those taken inside a plan, or at least
# this many of the latest ones when the plan is shorter.
WINDOW = 10


class SpeedProbe:
    """Samples the kernel while active; a context manager."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((40, 40)) / 7.0
        self._v = rng.standard_normal(40)
        self._b = rng.standard_normal((1600, 40))
        self._c = rng.standard_normal((40, 8))
        self._big = rng.standard_normal(2_000_000)
        self.starts: list[float] = []
        self.kernel: list[float] = []
        self.spent = 0.0
        self._previous = None

    def kernel_seconds(self) -> float:
        """Run the calibration kernel once and return its wall time."""
        t0 = time.perf_counter()
        x = self._v.copy()
        for _ in range(100):
            x = np.tanh(self._a @ x) * 0.5 + 0.5 * x
            s = float(np.maximum(x, 0.0).sum())
            _ = [s * i for i in range(30)]
        for _ in range(12):
            y = self._b @ self._c
            y = self._b.T @ (y * y)
        float(self._big.sum())
        return time.perf_counter() - t0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.kernel.append(self.kernel_seconds())
        self.starts.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WINDOW):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        samples = self.kernel[min(lo, max(hi - WINDOW, 0)):hi]
        return REFERENCE_S / statistics.median(samples)


def reference_seconds(probe: SpeedProbe, fn):
    """Call ``fn()``; return (result, wall seconds, reference seconds).

    Wall seconds exclude the time the probe spent sampling during the call.
    """
    spent = probe.spent
    t0 = time.perf_counter()
    result = fn()
    t1 = time.perf_counter()
    wall = t1 - t0 - (probe.spent - spent)
    return result, wall, wall * probe.scale(t0, t1)
