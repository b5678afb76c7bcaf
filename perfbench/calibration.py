"""Scaling of measured times to a nominal machine speed.

On a shared machine the CPU can run in clock regimes up to about 1.8x apart
that last for minutes, so the same op takes very different wall times in two
runs.  Every timed stretch is therefore bracketed by calibration samples: a
fixed pure-Python kernel, the reference evaluator over a fixed formula set,
which shares no code with hardyworlds.  A sample is the fastest of five
runs of the kernel, so one interrupted run does not skew it, while a clock
regime, which outlasts all five, does show.  A time ``t`` measured between
samples ``a`` and ``b`` is reported as ``t * NOMINAL_S / ((a + b) / 2)``,
that is, in the time it would take on a machine where the kernel takes
``NOMINAL_S``.  A change to hardyworlds cannot move the kernel, so a slower
package still reads slower; only the machine's own speed is divided out.
"""

from __future__ import annotations

import random
import time

import reference as ref
from inputs import random_claim

NOMINAL_S = 0.5e-3
REPEATS = 5


class Calibration:
    def __init__(self) -> None:
        self.model = ref.Model(ref.table(*ref.family(1.0 / 3.0)), "r-first")
        rng = random.Random("calibration")
        self.formulas = [random_claim(rng, 4) for _ in range(16)]
        self.samples: list[float] = []
        self.last = self.sample()

    def sample(self) -> float:
        runs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for formula in self.formulas:
                ref.check(self.model, formula, "loc1")
            runs.append(time.perf_counter() - start)
        self.samples.append(min(runs))
        return min(runs)

    def start(self) -> None:
        """Take the sample that opens the next timed stretch."""
        self.last = self.sample()

    def scale(self) -> float:
        """Factor for the stretch since the last sample; the closing sample
        also opens the next stretch."""
        before, self.last = self.last, self.sample()
        return NOMINAL_S / ((before + self.last) / 2.0)
