"""Host time scaled to a reference host speed.

The shared 2-core machine the benchmark was built on changes speed by
up to 2x within minutes; a plain wall-clock median then moves more
between two sets of runs than many changes worth catching.  So every
host time the benchmark reports is scaled by the host's speed, measured
with a fixed calibration chunk -- work owned by the benchmark, which no
change to the program can speed up or slow down -- sampled every
:data:`EVERY_S` while the timed code runs, between simulation steps:

    reference seconds = raw seconds x REFERENCE_CHUNK_S / median(chunk)

The chunks' own time (about 1%) is subtracted from the raw time.  Over
two sets of ten runs per workload the scaling cut the run-to-run spread
of ``wall_s`` (interquartile distance over median) from 8-24% to 6-15%;
the exec storms gained most, and once, on the migration storm, it did
not help (14% raw, 15% scaled).
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter
from typing import List

#: Sample the host speed at most this often while timing.
EVERY_S = 0.05
#: Chunk duration on the reference host: about the median on the
#: machine the benchmark was built on (0.42-0.45 ms), so reference
#: seconds read close to its raw seconds.
REFERENCE_CHUNK_S = 0.00045


class _Cell:
    __slots__ = ("a", "b", "next")

    def __init__(self, a: int):
        self.a = a
        self.b = 0
        self.next = None

    def step(self, x: int) -> int:
        self.b = (self.b + x) & 255
        return self.b


_HOT: List[_Cell] = []
_RING: List[_Cell] = []


def _cells() -> None:
    """64 hot cells, and a ring of 60k cells (a few MB) linked in a
    shuffled order so walking it misses the caches."""
    _HOT.extend(_Cell(i) for i in range(64))
    ring = [_Cell(i & 255) for i in range(60_000)]
    order = list(range(len(ring)))
    random.Random(0).shuffle(order)
    for i, j in enumerate(order):
        ring[j].next = ring[order[(i + 1) % len(order)]]
    _RING.append(ring[0])


def _chunk() -> int:
    """Interpreter work on preallocated objects and small ints, so
    nothing is allocated and no garbage collection runs inside: calls,
    attribute and dict-free list work on hot cells, then a pointer
    chase that misses the caches.  Both halves are needed: on shared
    hosts the simulator slows with both interpreter and memory
    contention, and the mix tracked it best (spread of identical runs
    12% -> 8% and 7.6% -> 4.4%, against 10% and 6.4% for the hot half
    alone)."""
    if not _HOT:
        _cells()
    hot = _HOT
    acc = 0
    for i in range(1000):
        j = i & 63
        acc = (acc + hot[j].step(hot[(j * 5) & 63].a)) & 255
    cell = _RING[0]
    for _ in range(800):
        acc = (acc + cell.a) & 255
        cell = cell.next
    _RING[0] = cell
    return acc


class HostClock:
    """Times one stretch of code in raw and reference seconds."""

    def __init__(self):
        self.samples: List[float] = []
        self._spent = 0.0
        self._last = 0.0
        self._start = 0.0

    def sample(self) -> None:
        started = perf_counter()
        _chunk()
        ended = perf_counter()
        self.samples.append(ended - started)
        self._spent += ended - started
        self._last = ended

    def tick(self) -> None:
        """Call between simulation steps: samples when one is due."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def start(self) -> None:
        self.samples.clear()
        self.sample()
        self._spent = 0.0
        self._start = perf_counter()

    def stop(self) -> "tuple[float, float]":
        """(raw seconds, reference seconds) since :meth:`start`."""
        raw = perf_counter() - self._start - self._spent
        self.sample()
        return raw, raw * REFERENCE_CHUNK_S / median(self.samples)
