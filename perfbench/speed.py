"""Speed probe: rescales wall times to a reference machine speed.

On a shared machine the speed of one core drifts by up to 2x over
seconds to minutes, for reasons outside the benchmarked process.  A
fixed reference computation, timed next to the measured work, tracks
that drift; dividing by it turns a wall time into the wall time the same
work takes on the reference machine.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the speed probe takes on the reference machine (Intel Xeon
#: KVM guest, 2 vCPUs, one BLAS thread) when no other tenant slows it.
REFERENCE_PROBE_S = 5.3e-3

#: Least wall time between two speed probes.
PROBE_EVERY_S = 0.2


class SpeedProbe:
    """A fixed reference computation timed between measured steps.

    It mixes interpreter work, small dense linear algebra and copies of
    8 MiB buffers (memory bandwidth and shared-cache contention, which
    slow the large-tensor jobs), and does not touch tnq.  Its buffers add
    a fixed 16 MiB to the resident memory of the process.  ``maybe(i)`` times it (best of two)
    before step i when ``PROBE_EVERY_S`` has passed since the last probe;
    ``factors(n)`` gives each step 0..n-1 the factor
    ``REFERENCE_PROBE_S / (mean of the probes just before and after)``.
    """

    def __init__(self):
        self.samples = []          # (index of the next execution, seconds)
        self._last = -float("inf")
        self._a = np.random.default_rng(0).normal(size=(64, 64))
        self._buf = (np.ones(2**20), np.empty(2**20))      # 8 MiB each

    def measure(self):
        """Best of two probe timings, in seconds."""
        return min(self._once(), self._once())

    def _once(self):
        start = time.perf_counter()
        acc = {}
        for i in range(20000):
            acc[i % 97] = acc.get(i % 97, 0) + i
        for _ in range(20):
            b = self._a @ self._a
            np.linalg.svd(b[:16, :16], compute_uv=False)
        x, y = self._buf
        for _ in range(2):
            np.copyto(y, x)
            np.copyto(x, y)
        return time.perf_counter() - start

    def mark(self, index):
        """Probe now, before step ``index``."""
        self.samples.append((index, self.measure()))
        self._last = time.perf_counter()

    def maybe(self, index):
        """Probe before step ``index`` if ``PROBE_EVERY_S`` has passed."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.mark(index)

    def factors(self, n):
        """Speed factor of each step 0..n-1 (reference / this machine)."""
        out, j = [], 0
        for i in range(n):
            while j + 1 < len(self.samples) and self.samples[j + 1][0] <= i:
                j += 1
            before = self.samples[j][1]
            after = (self.samples[j + 1][1] if j + 1 < len(self.samples)
                     else before)
            out.append(REFERENCE_PROBE_S / ((before + after) / 2))
        return out
