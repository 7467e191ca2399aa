"""How fast the machine runs right now, from a fixed kernel that never calls coniccond.

On a shared 2-core virtual machine the same CPU-bound work ran up to
35% slower for stretches of 5 s to a minute, so whole 50 s runs read
fast or slow.  In 300 s of ``orthant-report`` cycles, each preceded by
this kernel, the kernel's time and the cycle's time moved together:
over 5 s windows they correlated at 0.97 with a log-log slope of 1.02.
Scaling each cycle by the kernel timed just before it cut the spread of
50 s throughput from 0.30 of the median to 0.05.  A change to the
library does not touch the kernel, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time that counts as the reference speed: scaled times are those
# of a machine on which the kernel takes this long.
REFERENCE_S = 0.015


class Gauge:
    """Times a kernel that mixes the workloads' kinds of work."""

    def __init__(self):
        rng = np.random.default_rng(20110519)
        batch = rng.standard_normal((64, 6, 6))
        self._batch = batch + batch.transpose(0, 2, 1)
        big = rng.standard_normal((256, 10, 10))
        self._big = big + big.transpose(0, 2, 1)
        self._small = rng.standard_normal((4, 8))
        self.scale()  # the first reading pays for cold caches; discard it

    def scale(self) -> float:
        """Run the kernel once; return REFERENCE_S over its wall time."""
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.eigh(self._batch)
        np.linalg.eigh(self._big)
        for _ in range(150):
            u, s, vh = np.linalg.svd(self._small, full_matrices=False)
            (u * s) @ vh
        total = 0
        for i in range(20000):
            total += i * i % 7
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        return REFERENCE_S / (time.perf_counter() - start)
