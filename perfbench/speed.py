"""Speed normalization: wall times scaled to a nominal machine speed.

On a shared virtual machine the CPU speed drifts by a quarter or more, over
seconds as well as minutes, and wall time drifts with it. The benchmark
therefore times a fixed reference kernel right before and right after each
stage of a request, and scales the stage's wall time by the kernel's nominal
time over the mean of those two kernel timings. A stage that took 30 ms
while the kernel took 6 ms instead of 5 ms is reported as 25 ms. The kernel
is pure Python rational arithmetic and dict work, the kind of work the
program does, so both slow down together; the same kernel runs on every
commit, so the scaling cancels in a comparison between commits. The kernel
runs in a helper interpreter (helper.py), so the program's own interpreter
state cannot change the divisor.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.005  # the kernel's duration at nominal speed


def kernel() -> None:
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    table = {}
    for i in range(5000):
        table[(i * 7919) % 1009] = i
    sorted(table)


class Stopwatch:
    """Times one request stage by stage; `lap` ends a stage.

    `timer` times the kernel (helper.Helper.calibrate, or a wrapper of it
    that records a span); `before` is the
    kernel timing taken just before the request started.
    """

    def __init__(self, timer, before: float):
        self.timer = timer
        self.before = before
        self.wall = 0.0
        self.scaled = 0.0
        self.t0 = time.perf_counter()

    def lap(self) -> None:
        dt = time.perf_counter() - self.t0
        after = self.timer()
        self.wall += dt
        self.scaled += dt * NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        self.t0 = time.perf_counter()
