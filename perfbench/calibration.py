"""A fixed pure-Python reference loop that measures how fast the machine runs right now.

On a shared virtual machine the speed of one core swings by up to a
factor of two over seconds, for every program alike.  Timing this loop
next to each measurement and scaling the measurement to the loop's
nominal time removes most of that swing: the loop's code never changes,
so the ratio moves only when the program does.  The loop does the kind
of work that dominates the simulator, a Python-level loop updating a
dict keyed by index tuples as the query ledger does; on the reference
machine it tracked the swings of the n=1000 campaigns better than pure
arithmetic did.
"""

from __future__ import annotations

import time

ITERATIONS = 60_000
NOMINAL_S = 0.018  # about the loop's time on the reference machine (see README.md)


def reference_seconds() -> float:
    """Wall seconds the reference loop takes now."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(ITERATIONS):
        key = (i & 1023, (i * 7) & 511)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def machine_slowdown(before: float, after: float) -> float:
    """How many times slower than nominal the machine ran between two reference timings."""
    return (before + after) / 2.0 / NOMINAL_S
