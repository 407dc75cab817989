"""Host-speed probe: a fixed pure-Python kernel timed between rounds.

Shared machines change speed by tens of percent from one minute to the
next as neighbours come and go, and the simulator slows down with them.
The benchmark times this kernel, which does not touch ``repro``, before
and after every measured block and scales the block's host seconds by
``REFERENCE_S / kernel seconds``, so times read as if on a host that runs
the kernel in ``REFERENCE_S``.  Raw times are reported beside them.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Median kernel time on the reference host (2-CPU Xeon container,
#: Python 3.11).  A fixed constant: changing it rescales every reading.
REFERENCE_S = 0.012
#: Short kernel runs per probe; the probe reports their median.
REPEATS = 5


class _Entry:
    __slots__ = ("key", "value", "log")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = key * 3
        self.log: list = []

    def step(self, x: int) -> int:
        self.log.append(x)
        return self.value + x


def kernel(n: int = 6000) -> int:
    """Object churn, dict counting and a small heap: the simulator's mix."""
    heap: list = []
    counts: dict = {}
    total = 0
    for i in range(n):
        entry = _Entry(i & 1023)
        total += entry.step(i)
        k = (i * 2654435761) & 0x3FF
        counts[k] = counts.get(k, 0) + 1
        heapq.heappush(heap, (k, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


def probe(repeats: int = REPEATS) -> float:
    """Median seconds of ``repeats`` kernel runs, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` on the reference host, from the probes around them."""
    return seconds * REFERENCE_S / ((probe_before + probe_after) / 2)
