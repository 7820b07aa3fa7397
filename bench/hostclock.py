"""Host-speed calibration of measured times.

The benchmark shares its host with other tenants.  Their load slows all Python
code down, by up to 2.6x, in stretches from under a second to minutes, so raw
times of identical runs spread far wider than any useful regression bound.  A
fixed pure-Python kernel, timed between operations, slows down with the host.
Each measured interval is scaled by ``NOMINAL_KERNEL_S`` over the kernel's
current time.  A calibrated time is thus the time the work takes when the
kernel runs at its nominal speed; on a quiet host of the reference type the
two agree.  A slower program still reads slower, because the kernel runs none
of its code.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_KERNEL_S = 1.34e-3   # kernel time on a quiet 2-vCPU Intel Xeon VM, Python 3.11.7 (estimated)
REFRESH_S = 0.1              # re-time the kernel when the last timing is older than this


_OCC = [[(i * 37 + j * 11) % 300 for j in range(6)] for i in range(400)]


def kernel() -> int:
    """Fixed interpreter work of the two kinds the package's checkers are made
    of: big-int bit arithmetic (the bitset walks) and counter updates over
    occurrence lists with an undo trail (unit propagation).  Of the kernels
    tried, this mix tracked the slowdown of compile, exhaustive and sampled
    checks best."""
    x = acc = 0
    mask = (1 << 200) - 1
    for i in range(4000):
        x = (x << 1 | (i & 1)) & mask
        acc += (x & -x).bit_length()
    count = [0] * 300
    trail = []
    for _ in range(3):
        for v in range(400):
            trail.append(v)
            for ci in _OCC[v]:
                count[ci] += 1
        while trail:
            for ci in _OCC[trail.pop()]:
                count[ci] -= 1
    return acc + count[0]


class HostClock:
    """Calibrated stopwatch: ``start()``, run the work with ``split()`` calls
    wherever the kernel may be re-timed, then ``stop()``."""

    def __init__(self):
        self.factor = 1.0            # nominal / current kernel time
        self.stamp = float("-inf")   # when the kernel was last timed
        self.factors: list[float] = []
        self._f0 = 1.0
        self._t0 = perf_counter()
        self._total = 0.0

    def _refresh(self) -> float:
        if perf_counter() - self.stamp >= REFRESH_S:
            t0 = perf_counter()
            kernel()
            kernel()
            self.factor = 2 * NOMINAL_KERNEL_S / (perf_counter() - t0)
            self.factors.append(self.factor)
            self.stamp = perf_counter()
        return self.factor

    def start(self) -> None:
        self._total = 0.0
        self._f0 = self._refresh()
        self._t0 = perf_counter()

    def split(self) -> None:
        """Count the interval since the last split at the mean speed of its
        two ends; the kernel runs outside the counted intervals."""
        t = perf_counter()
        f = self._refresh()
        self._total += (t - self._t0) * (self._f0 + f) / 2
        self._f0 = f
        self._t0 = perf_counter()

    def stop(self) -> float:
        """Calibrated seconds since ``start()``."""
        self.split()
        return self._total
