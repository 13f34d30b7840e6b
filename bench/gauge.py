"""Machine-speed gauge: a fixed calibration kernel timed between package calls.

The shared virtual machines this benchmark runs on change speed by 15 to
40%, for reasons outside the benchmark process: its CPU time and its
wall time drift together.  The machine flips between a fast and a slow
state, in phases of about a second that add up to minutes of drift.
Every gated timing is therefore scaled to a reference speed.  A run
times the kernel below between its package calls, and multiplies the
time of each call by

    REFERENCE_S / mean(kernel times near the call)

(rates are divided by the same factor).  The kernel mixes the three
kinds of work the package does: interpreter-bound Python, small numpy
array arithmetic and big-integer ``Fraction`` arithmetic; ``cli_cold``,
whose work is interpreter start-up, uses ``start_kernel`` instead.
Neither calls the package, so a change to the package moves the scaled metrics exactly
as much as the raw ones; only the machine's drift cancels.  The raw
values go into the report line.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# Kernel times that count as reference speed: about their means on the
# 2-vCPU machine the benchmark was written on.
REFERENCE_S = 0.010
START_REFERENCE_S = 0.070

# One sample per this much time, so the gauge costs about 4% of a run
# (7% with the start-up kernel).
INTERVAL_S = 0.25
START_INTERVAL_S = 1.0
# At most this many samples in a row after one long package call.
MAX_BURST = 4
# A call is scaled by the samples taken during it and within this many
# sampling intervals around it.  With the in-process kernel that is 1 s:
# the machine's phases last about a second, and a window this wide
# follows them while holding about ten samples.  The start-up kernel
# samples less often, so its window is wider.
WINDOW_INTERVALS = 4

_GRID = np.linspace(0.0, 1.0, 64) + 0.5j


def kernel():
    """In-process work of about 10 ms; returns its results so nothing is skipped."""
    acc = 0j
    for k in range(400):
        acc += np.exp(_GRID * (k / 100.0)).sum()
    f = Fraction(1)
    for k in range(1, 300):
        f = f * Fraction(k + 1, k + 2) + Fraction(1, k * k + 1)
    s = 0
    for k in range(20000):
        s += k * k % 7
    return acc, f, s


def start_kernel():
    """A bare interpreter start, about 70 ms: the gauge for start-up work.

    Fresh-interpreter CLI commands spend their time in process start,
    imports and page faults, which the machine's slow state slows by a
    different share than in-process arithmetic.
    """
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   capture_output=True, timeout=60)


class Gauge:
    """Kernel times spread evenly over one run, and the scale they give.

    The workload calls ``tick()`` after every timed package call.  The
    gauge then takes one sample per ``interval_s`` elapsed since its last
    one (at most ``MAX_BURST``), so the samples see the machine's fast
    and slow phases in the same mix as the timed calls do.  The kernel
    runs with the garbage collector off, so that its time does not
    depend on how many objects the workload holds.
    """

    def __init__(self, kernel=kernel, reference_s=REFERENCE_S,
                 interval_s=INTERVAL_S):
        self.kernel = kernel
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.samples = []    # kernel times
        self.times = []      # perf_counter at the middle of each sample
        self.due = None

    def sample(self):
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(t1 - t0)
        self.times.append(0.5 * (t0 + t1))

    def tick(self):
        now = time.perf_counter()
        if self.due is None:
            self.due = now
        self.due = max(self.due, now - (MAX_BURST - 1) * self.interval_s)
        while self.due <= now:
            self.sample()
            self.due += self.interval_s

    def scale(self, start=None, end=None):
        """Factor that turns a time measured from start to end into reference time.

        It uses the samples within ``WINDOW_INTERVALS`` sampling
        intervals of that interval, or every sample when no interval is
        given or none falls near it.
        """
        near = []
        if start is not None:
            pad = WINDOW_INTERVALS * self.interval_s
            near = [s for t, s in zip(self.times, self.samples)
                    if start - pad <= t <= end + pad]
        return self.reference_s / statistics.fmean(near or self.samples)

    def report(self):
        return {"gauge_mean_ms": 1e3 * statistics.fmean(self.samples),
                "gauge_samples": len(self.samples)}


def start_gauge():
    return Gauge(start_kernel, START_REFERENCE_S, START_INTERVAL_S)
