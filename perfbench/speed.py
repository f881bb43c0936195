"""A reference computation that tracks the host's speed during a run.

On a shared machine the same code can run at very different speeds from
one minute to the next: the 2-core host this benchmark was defined on
drifted between about 20 and 46 us per reference unit within seconds, and
by a quarter between runs minutes apart, in thread CPU time as much as in
wall time (see ``results/drift-1s-samples.txt``).  The benchmark times a
fixed reference unit in short bursts between ops (never inside one) and
scales each op's measured time by ``NOMINAL_UNIT_S / (unit time around
the op)``: the time the op would have taken with the host at its nominal
speed.  The reference never calls the library, so a change to the
library moves the scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: Median time of one reference unit on the host the benchmark was defined
#: on (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).  Scaled times are
#: seconds at this speed; the constant only sets the scale.
NOMINAL_UNIT_S = 30e-6
BURST_UNITS = 32
BURST_EVERY_S = 0.1
#: Bursts within this distance of an op's span set its local speed.
WINDOW_S = 0.25

_X = [0.25 + i / 32 for i in range(64)]
_ARR = np.array(_X)


def reference_unit() -> float:
    """Fixed float work in the interpreter and in small numpy calls, the mix
    the library's per-table code spends its time in."""
    total = 0.0
    for x in _X:
        total += math.log(x) - math.exp(-x) * x
    a = _ARR
    for _ in range(4):
        a = np.sqrt(a * 1.0001 + 0.5)
    return total + float(a.sum())


class SpeedProbe:
    """Reference bursts taken through a run and the speed they imply."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.times: list = []
        self.unit_s: list = []

    def burst(self) -> None:
        t0 = self.clock()
        for _ in range(BURST_UNITS):
            reference_unit()
        t1 = self.clock()
        self.times.append(t1)
        self.unit_s.append((t1 - t0) / BURST_UNITS)

    def maybe_burst(self) -> None:
        """Take a burst if the last one is more than ``BURST_EVERY_S`` old."""
        if not self.times or self.clock() - self.times[-1] >= BURST_EVERY_S:
            self.burst()

    def scales(self, starts, ends) -> np.ndarray:
        """``NOMINAL_UNIT_S`` over the mean unit time of the bursts near each span."""
        times = np.asarray(self.times)
        cumulative = np.concatenate(([0.0], np.cumsum(self.unit_s)))
        lo = np.searchsorted(times, np.asarray(starts) - WINDOW_S)
        hi = np.searchsorted(times, np.asarray(ends) + WINDOW_S)
        lo = np.minimum(lo, len(times) - 1)
        hi = np.maximum(hi, lo + 1)  # no burst in the window: take the nearest later one
        local = (cumulative[hi] - cumulative[lo]) / (hi - lo)
        return NOMINAL_UNIT_S / local
