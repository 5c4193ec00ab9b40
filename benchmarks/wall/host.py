"""The host-speed yardstick.

The reference sandbox's CPU drifts, second by second, between speeds a
factor 1.3 apart (this loop reads 10.5 to 14 ms, with bursts to 25), and
every piece of Python slows down or speeds up with it: CPU time tracks wall
time, so it is the core that slows, not the process that waits, and no
amount of repetition inside one run averages that away.  Each episode times
this fixed loop before set-up and right before and after its timed region.

``metrics.py`` scales a timing by ``REFERENCE_CALIB_MS`` over the mean of the
two loops around it, so that a reported millisecond is what the wall clock
reads on a host whose loop takes ``REFERENCE_CALIB_MS``; unscaled, the same
commit's runs spread by 7-28 %, past any regression bound.  The ledger
keeps the loop times and the timings as the wall clock read them beside the
scaled ones, so ROADMAP item 1's "machine-independent ratio" gate can be
built from either.
"""

from __future__ import annotations

import os
import platform
from time import perf_counter

#: The loop's time on the reference sandbox at its usual clock speed.
REFERENCE_CALIB_MS = 12.5


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop (dict/tuple/compare mix,
    nothing imported from the program), min of five."""

    def loop() -> int:
        table: dict[tuple[int, int], int] = {}
        hits = 0
        for i in range(60_000):
            key = (i % 997, i % 13)
            if key in table and table[key] < i:
                hits += 1
            table[key] = i
        return hits

    best = float("inf")
    for _ in range(5):
        started = perf_counter()
        loop()
        best = min(best, perf_counter() - started)
    return best * 1e3


def describe() -> dict:
    """What ``latest.json`` records about the machine."""
    return {
        "calib_ms": calibrate(),
        "reference_calib_ms": REFERENCE_CALIB_MS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
