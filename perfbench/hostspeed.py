"""Host-speed calibration for normalizing timings.

On a shared host the same pass can take 1.5 s one minute and 2.6 s the
next: neighbours compete for cores, caches and memory bandwidth, and
process CPU time rises with wall time.  The benchmark therefore times a
fixed calibration kernel right before and after every timed section and
divides the section by the mean of the two.  A normalized time is reported
in reference-host seconds: that ratio times the kernel's median time on the
reference host (2 vCPUs, Python 3.11, NumPy 2.4, SciPy 1.17).

For a workload pass the kernel is :func:`kernel_seconds`, which mixes the
kinds of work qkdlink does in NumPy and in the interpreter.  Its arrays are
small (256 KiB each), so it never sets the process's peak RSS.
For set-up the kernel is a fresh interpreter importing qkdlink's
dependencies, NumPy and ``scipy.optimize``, which track import cost far
better than a compute kernel does.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace

import numpy as np

REFERENCE_KERNEL_S = 0.11  # kernel_seconds() median, reference host, fast state
REFERENCE_IMPORT_S = 0.5  # NumPy + scipy.optimize import, same host
_N = 1 << 15


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel.

    Two halves of similar weight: NumPy work like the event engine's
    (Philox draws, sort, repeat, sparse selection) and interpreter work
    like the analytic engine's (scalar special functions, frozen-dataclass
    copies, heap operations).  Either half alone tracks one engine well and
    the other poorly under contention.
    """
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(2008))
    for _ in range(60):
        x = rng.random(_N)
        counts = rng.poisson(0.05, _N)
        np.sort(x)
        picked = np.repeat(np.arange(_N), counts)
        np.flatnonzero(x < 0.01)
    heap: list = []
    total = 0.0
    point = _Point(1.0, 2.0)
    for i in range(60_000):
        u = i * 1e-5
        total += math.erf(u) - math.exp(-u) + math.hypot(u, point.y)
        if i % 50 == 0:
            point = replace(point, x=u)
        heapq.heappush(heap, (u, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    if not math.isfinite(total) or picked.size == 0:
        raise RuntimeError("calibration kernel produced no work")
    return time.perf_counter() - start


class Normalizer:
    """Brackets timed sections with kernel runs; collects normalized times."""

    def __init__(self, kernel=kernel_seconds, reference_s: float = REFERENCE_KERNEL_S):
        self.raw: list[float] = []
        self.ratios: list[float] = []
        self._kernel = kernel
        self._reference_s = reference_s
        self.kernels = [kernel()]

    def add(self, seconds: float) -> None:
        self.kernels.append(self._kernel())
        self.raw.append(seconds)
        self.ratios.append(seconds / (0.5 * (self.kernels[-2] + self.kernels[-1])))

    def reference_seconds(self) -> list[float]:
        return [self._reference_s * r for r in self.ratios]
