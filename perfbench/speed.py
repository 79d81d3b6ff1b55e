"""Machine-speed correction for wall times on a shared machine.

On a small shared VM the CPU's speed drifts by tens of percent over
seconds to minutes, and the drift slows CPU-bound numpy kernels roughly
in proportion.
A SpeedSampler times a fixed numpy kernel (FFT round trip, |.|^p sum,
gather/scatter, nothing from fiokit) from a SIGALRM handler every
PERIOD seconds while a run is in progress.  For a timed region it
reports

    wall_s = region time minus the time spent in the handler, and
    ref_s  = wall_s * REFERENCE_KERNEL_S / mean kernel time in the region,

the region's time at the reference speed.  The mean is the right
average: samples come at even wall-clock intervals, so it is the
time-average slowdown the region saw.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.25
# kernel time taken as the reference speed (about its median on a
# 2-vCPU x86-64 VM, numpy 2.4); any constant works, as only ratios of
# times measured with the same constant are compared
REFERENCE_KERNEL_S = 0.005
MIN_SAMPLES = 5


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(0)
        # the two grid sizes the workloads run most: 128^2 and 256^2
        self._fields = [rng.standard_normal((N, N)) + 0j for N in (128, 256)]
        self._idx = rng.integers(0, 128 * 128, 4096)
        self.samples = []  # (start, end) of each kernel run

    def _kernel(self):
        for a in self._fields:
            b = np.fft.ifft2(np.fft.fft2(a))
            (np.abs(b) ** 1.5).sum()
            g = np.zeros(b.size, dtype=complex)
            g[self._idx] = b.ravel()[self._idx]

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self._kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def region(self, t0: float, t1: float) -> tuple:
        """(wall_s, ref_s) of the region [t0, t1]."""
        inside = [(s, e) for s, e in self.samples if t0 <= s < t1]
        wall = t1 - t0 - sum(e - s for s, e in inside)
        if len(inside) < MIN_SAMPLES:
            # too short to sample: use the samples that ended last before t1
            inside = [(s, e) for s, e in self.samples if s < t1][-MIN_SAMPLES:]
        if not inside:
            return wall, wall
        kernel = float(np.mean([e - s for s, e in inside]))
        return wall, wall * REFERENCE_KERNEL_S / kernel
