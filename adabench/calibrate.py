"""Host-speed calibration: a frozen pure-Python kernel timed next to every op.

The benchmark's host is a shared 2-core VM on which a fixed pure-Python loop
runs at speeds up to 2x apart, in stretches of seconds to minutes; process
CPU time slows with wall time, so the loss is contention, not stolen time.
A run that falls wholly in a slow stretch cannot find a fast timing to keep,
so the benchmark measures the host instead: it times this kernel before and
after every op and rescales each op's time to the speed at which the kernel
takes ``REFERENCE_S``. The kernel lives in the benchmark, not the program, so
a change to the program moves the rescaled times and a change of host speed
mostly does not.

The kernel mixes the interpreter work the ops spend their time in:
tuple-keyed dict lookups, slot attribute reads, calls, float arithmetic,
list appends and a 0/1 knapsack DP over lists. Of the kernels tried, this
mix tracked the ops' slowdown most closely, though not fully (the log-log
slope of op time on kernel time was 0.61-0.83). It never changes: changing
it, or ``REFERENCE_S``, rescales every time metric.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: Kernel seconds at the reference speed (about its median on the
#: benchmark's 2-core VM). Rescaled times read as seconds at that speed.
REFERENCE_S = 3.0e-3

#: Ops per side of the window whose kernel timings give an op's host speed.
HALF_WINDOW = 2

#: Kernel timings read before and after each set-up.
SETUP_KERNELS = 9


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b


def _lookups() -> float:
    table = {}
    acc = 0.0
    points = [_Point(i * 0.5, i % 13) for i in range(200)]
    for rnd in range(12):
        for point in points:
            key = (point.b, rnd % 5)
            entry = table.get(key)
            if entry is None:
                entry = table[key] = [point.a]
            else:
                entry.append(point.a * 1.0001 + acc * 1e-9)
            acc += max(point.a, acc * 0.5) - min(point.a, 1.0)
    return acc + len(table)


def _knapsack() -> float:
    items, capacity = 60, 120
    weight = [(i * 7) % 11 + 1 for i in range(items)]
    value = [((i * 13) % 17) * 0.37 for i in range(items)]
    best = [0.0] * (capacity + 1)
    for i in range(items):
        w, v = weight[i], value[i]
        for c in range(capacity, w - 1, -1):
            candidate = best[c - w] + v
            if candidate > best[c]:
                best[c] = candidate
    return best[-1]


def kernel_seconds() -> float:
    """Wall time of one kernel call (about 3 ms)."""
    start = time.perf_counter()
    _lookups()
    _knapsack()
    return time.perf_counter() - start


def host_speed(readings: int) -> float:
    """Median of ``readings`` back-to-back kernel timings."""
    return statistics.median(kernel_seconds() for _ in range(readings))


def local_kernels(kernels: Sequence[float]) -> List[float]:
    """Per op, the median kernel time of the ops within ``HALF_WINDOW`` of it.

    ``kernels`` holds each op's kernel time in execution order. The window
    is short because the host's speed moves within seconds; the median keeps
    one disturbed kernel timing from rescaling its neighbours.
    """
    local = []
    for index in range(len(kernels)):
        low = max(0, index - HALF_WINDOW)
        local.append(statistics.median(kernels[low : index + HALF_WINDOW + 1]))
    return local


def rescale(seconds: float, kernel: float) -> float:
    """``seconds`` measured where the kernel took ``kernel``, at the reference speed."""
    return seconds * REFERENCE_S / kernel
