"""Host calibration: time every op against a fixed pure-Python kernel.

The benchmark runs on small shared VMs whose speed drifts by tens of
percent within seconds (CPU time equals wall time there, so the drift
is the host, not the program).  A fixed dict/int loop of about 10 ms is
timed before each op, or each short window of ops, and every reported
timing is ``raw * CAL_REF_MS / adjacent_calibration``: the op's time in
units of "kernel runs on a reference host".  The kernel imports nothing
from the program, so a change to the program never moves it.

A pure-Python kernel is used on purpose: the program under test is
mostly interpreter-bound, and a numpy-heavy kernel tracked its drift
worse (see NOTES.md).
"""

from __future__ import annotations

import bisect
import statistics
import time

#: What one kernel run is taken to cost on the reference host, in ms.
#: Calibrated timings are expressed against this constant; it is fixed
#: so that numbers from different runs and hosts stay comparable.
CAL_REF_MS = 10.0

#: Loop length giving roughly CAL_REF_MS on a 2-vCPU cloud VM.
KERNEL_STEPS = 22_000


def kernel(steps: int = KERNEL_STEPS) -> int:
    """The calibration loop: integer mixing plus dict updates."""
    table: dict = {}
    acc = 0
    for i in range(steps):
        acc = (acc * 1103515245 + i) & 0xFFFFF
        key = acc & 1023
        table[key] = table.get(key, 0) + (i ^ acc)
    return acc + len(table)


class Calibrator:
    """Calibration samples on a timeline, and the factor at any instant.

    ``window_s`` is the longest stretch of ops allowed between two
    samples: 0 samples before every op.  The factor for an instant is
    taken from the mean of the samples just before and just after it.
    """

    def __init__(self, window_s: float = 0.0):
        self.window_s = window_s
        self.stamps: list[float] = []  # perf_counter at each sample's end
        self.samples_ms: list[float] = []
        self._last_end = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.samples_ms.append((end - start) * 1000.0)
        self._last_end = end

    def maybe_sample(self) -> None:
        """Sample when the current window is used up."""
        if time.perf_counter() - self._last_end >= self.window_s:
            self.sample()

    def factor_at(self, instant: float) -> float:
        """``CAL_REF_MS / adjacent_calibration`` at ``instant``."""
        i = bisect.bisect_left(self.stamps, instant)
        before = self.samples_ms[max(i - 1, 0)]
        after = self.samples_ms[min(i, len(self.samples_ms) - 1)]
        return CAL_REF_MS / ((before + after) / 2.0)

    def median_factor(self) -> float:
        return CAL_REF_MS / statistics.median(self.samples_ms)

    def iqr_ratio(self) -> float:
        """Spread of the calibration samples: IQR over median."""
        q1, q2, q3 = statistics.quantiles(self.samples_ms, n=4)
        return (q3 - q1) / q2
