"""Machine-speed calibration for the timed metrics.

On a shared 2-CPU KVM guest (Intel Xeon, see RESULTS.md) the speed steps
between states that differ by up to 2x, every few seconds, for CPU time as
much as for wall time (a fixed kernel's 50 ms medians ranged from 1.8 to
4.6 ms within 30 s; its 5 s medians from 2.4 to 3.7 ms).  Raw times from
two runs are therefore not comparable; RESULTS.md shows the raw figures of
the same runs missing the bounds that the calibrated ones keep.

* Operations: a fixed kernel (small batched LAPACK solves, symmetric
  eigenvalues and a Python loop, the same mix as a kubomeans operation) runs
  between operations, at most every ``SLICE_S`` seconds.  Each operation's
  time is multiplied by a factor, ``NOMINAL_MS`` over the median of the last
  three kernel samples, averaged between the start and the end of the
  operation; it reads as milliseconds on a machine where the kernel takes
  2 ms.
* Set-up: each fresh-interpreter probe runs between two runs of a reference
  child, a fresh interpreter of the same kind (it imports NumPy and runs a
  fixed Python loop).  The probe's time is multiplied by
  ``REFERENCE_NOMINAL_S`` over the mean of those two reference times.

Under load the references take longer and calibrated times read below wall
times; every run prints the uncalibrated figures too.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

NOMINAL_MS = 2.0
SLICE_S = 0.05

REFERENCE_CHILD = (
    "import numpy\n"
    "acc = 0\n"
    "for k in range(200000):\n"
    "    acc += k * k\n"
    "numpy.linalg.eigvalsh(numpy.eye(16))\n"
)
REFERENCE_NOMINAL_S = 0.15


def reference_child_cmd() -> list[str]:
    return [sys.executable, "-c", REFERENCE_CHILD]


class Calibrator:
    def __init__(self):
        rng = np.random.Generator(np.random.Philox(key=12345))
        g = rng.normal(size=(64, 16, 16))
        self._stack = g @ g.transpose(0, 2, 1) + 16.0 * np.eye(16)
        self._rhs = np.ascontiguousarray(self._stack[::-1])
        self._sym = self._stack[0]
        self._samples: list[float] = []
        self._last = -float("inf")
        # wall seconds spent in the kernel, so rounds can leave it out
        self.kernel_seconds = 0.0

    def kernel(self) -> float:
        """Run the fixed kernel once; return its wall time in seconds."""
        start = time.perf_counter()
        for _ in range(4):
            np.linalg.solve(self._stack, self._rhs)
        for _ in range(20):
            np.linalg.eigvalsh(self._sym)
        acc = 0
        for k in range(3000):
            acc += k * k
        took = time.perf_counter() - start
        self.kernel_seconds += took
        return took

    def factor(self) -> float:
        """Factor that turns seconds now into nominal seconds, from the last
        three kernel samples; samples again if ``SLICE_S`` has passed."""
        now = time.perf_counter()
        if now - self._last >= SLICE_S:
            self._samples.append(self.kernel())
            while len(self._samples) < 3:
                self._samples.append(self.kernel())
            del self._samples[:-3]
            self._last = time.perf_counter()
        return NOMINAL_MS / 1e3 / statistics.median(self._samples)


class CalibratedCall:
    """The per-op ``call`` hook of ``Workload.run_round``: times the op and
    keeps the mean of the calibration factors current at its start and end
    (an op longer than ``SLICE_S`` gets a fresh sample after it)."""

    def __init__(self, cal: Calibrator, call):
        self.cal = cal
        self.call = call
        self.factors: list[float] = []

    def __call__(self, fn, *args, **kwargs):
        before = self.cal.factor()
        out = self.call(fn, *args, **kwargs)
        self.factors.append(0.5 * (before + self.cal.factor()))
        return out
