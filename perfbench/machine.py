"""The speed of the machine at a moment, read from a fixed reference task.

On a shared machine the cores run slower for stretches of seconds to
minutes, and a whole run can fall in one. Each timed sample is therefore
taken next to a run of reference_s(), and scaled by REF_S / reference_s():
the result reads in seconds of a machine on which the reference task takes
REF_S. The reference task is this file's own code, run in each pass's
process before wilsonlab is imported, so no change to the package can move
it; a change that makes the package faster or slower moves the scaled figure
by the same share as the raw one. It runs in the pass's process because the
two cores of the machine are slowed at different times, and a pass's own
process runs its reference on the core it then runs on.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Nominal time of the reference task: scaled figures are in seconds of a
# machine that runs it in this time. About its time on the baseline machine.
REF_S = 0.1


def reference_s() -> float:
    """Seconds for a fixed mix of pure-Python work of the kinds wilsonlab
    does: a dictionary of small objects built and read (allocation, which
    contention slows more than arithmetic), a modular product loop, a
    Fraction sum and modular powers."""
    t0 = time.perf_counter()
    acc = 0
    # a small dictionary rebuilt rather than a large one, so that the task
    # adds at most ~0.4 MB to the peak RSS of a pass
    for _ in range(20):
        rows = {}
        for i in range(1, 2_000):
            rows[(i % 101, i)] = [i * i % 1_000_003, str(i)]
        for (a, b), v in rows.items():
            acc += v[0] * a % 7919
    m = 1_000_003 ** 2
    for i in range(1, 200_000):
        acc = acc * i % m
    total = Fraction(0)
    for k in range(1, 1200):
        total += Fraction(k, k * k + 1)
    for p in range(3, 16_000, 2):
        acc += pow(7, p - 1, p ** 4)
    return time.perf_counter() - t0


def scaled(seconds: float, ref_s: float) -> float:
    """A timing in seconds of the nominal machine."""
    return seconds * REF_S / ref_s
