"""Machine speed, read from a fixed reference loop.

On a shared virtual machine the same work can take 25% more or less time
from one few seconds to the next. The benchmark times the reference loop
next to every operation and scales the operation's time by the loop's:
``scaled = raw * REFERENCE_NS / loop_ns``. Scaled times read as the times
on a machine where the loop takes REFERENCE_NS, which is what it takes
between operations on the 2-vCPU machine the reference figures come from.
The loop is benchmark code, so no change to the program moves it.
"""

from __future__ import annotations

import time

REFERENCE_NS = 2_400_000


def _loop() -> int:
    # dict, tuple, set and string work, as the program does
    d, s = {}, set()
    for i in range(3000):
        k = (i % 61, "ab"[i & 1])
        d[k] = d.get(k, 0) + 1
        s.add(str(i % 97) + "x")
    return len(sorted(d)) + len(s)


def loop_ns() -> int:
    """The loop's time now: the faster of two runs, which drops most
    interruptions."""
    best = None
    for _ in range(2):
        t = time.perf_counter_ns()
        _loop()
        dt = time.perf_counter_ns() - t
        best = dt if best is None else min(best, dt)
    return best


def scaled(raw_ns: float, before_ns: int, after_ns: int) -> float:
    """raw_ns scaled by the loop times read just before and just after."""
    return raw_ns * REFERENCE_NS * 2 / (before_ns + after_ns)
