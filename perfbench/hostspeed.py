"""Host-speed normalisation of CPU-bound timings.

The benchmark runs on shared hosts whose speed drifts: a fixed loop of
pure-Python work was measured to take anywhere from 78 to 129 ms within
one minute on a 2-core container, with 5-second medians moving by 15%.
Raw seconds of a 30-second run then wander by 20-30% between runs of
identical code, wider than any useful regression bound.

So CPU-bound operations are timed between two short calibrations: a
fixed loop shaped like the simulator's own hot code (heap pushes and
pops of tuples, dict stores, small allocations).  An operation's
*reference seconds* are its measured seconds times ``REF_S`` over the
mean of the calibrations on either side of it, i.e. the time it would
take on a host where the loop takes ``REF_S``.  This shape of loop cut
the spread (quartile distance over median) of 10-sample medians of a
1-second message-level run from 0.21 to 0.04, where a plain arithmetic
loop reached 0.13.  A ``sweep`` cold pass computes in two worker
processes on both cores, which a calibration in the parent does not
describe: scaled pass by pass its spread across runs was 0.15, scaled
by the run's mean host speed (:func:`speed` over all its calibrations)
0.07.

Waiting in ``fsync`` is not CPU work, and the host's disk is shared
too, so it gets a calibration of its own: :func:`fsync_probe` times
fsyncs of small appends to a scratch file, and :class:`FsyncClock`
times each ``fsync`` a ``sweep`` pass makes.  The pass's fsync seconds
are taken out of the CPU-scaled part; each call is charged instead the
run's median fsync latency scaled by ``REF_FSYNC_S`` over the run's
median probe latency.  On a slower disk both medians rise together;
a change in what the program's own fsyncs cost does not move the probe.

Scaling by the calibrations on either side only works for operations
short enough that both see the same host: for the 8-12 s ``fig2`` call
it widened the spread (0.20 to 0.26).  ``paper`` passes, and the
certified ``pdes`` run, are scaled by the run's mean host speed instead.
``serve`` latencies, set by sleeps, polls and the server tick as much
as by CPU work, are raw.
"""

from __future__ import annotations

import heapq
import os
import time
from statistics import median
from typing import List

#: Calibration time on the reference host (the 2-core container the
#: benchmark was defined on, at its median speed).
REF_S = 0.022
#: Median :func:`fsync_probe` latency on the same host.
REF_FSYNC_S = 0.0001
_FSYNC_PROBES = 25
_REPEATS = 3


def _loop() -> float:
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(12_500):
        heapq.heappush(heap, ((i * 7919) % 1000, i, (i, i + 1)))
        table[(i % 977, i % 13)] = [i]
        if len(heap) > 500:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds the calibration loop takes now (best of a few)."""
    return min(_loop() for _ in range(_REPEATS))


def fsync_probe(path) -> float:
    """Median seconds of an ``fsync`` after a small append to ``path``."""
    latencies = []
    with open(path, "ab") as fh:
        for _ in range(_FSYNC_PROBES):
            fh.write(b"x" * 100)
            fh.flush()
            t0 = time.perf_counter()
            os.fsync(fh.fileno())
            latencies.append(time.perf_counter() - t0)
    return median(latencies)


def normalise(seconds: float, before: float, after: float) -> float:
    """Reference seconds for ``seconds`` measured between two calibrations."""
    return seconds * REF_S / ((before + after) / 2.0)


def speed(calibrations: List[float]) -> float:
    """Host speed relative to the reference (above 1 is faster)."""
    return REF_S / (sum(calibrations) / len(calibrations)) if calibrations else 0.0


class FsyncClock:
    """The latency of each ``os.fsync`` call this process makes while active.

    The campaign journal fsyncs once per job.  On the reference host one
    such fsync took 0.09-2.4 ms from one second to the next, and the
    median over a run moved from 0.11 to 0.27 ms between runs, so the
    fsync seconds of a 0.2 s warm pass swing it by more than any useful
    bound.  :meth:`reference` therefore charges each call a reference
    latency (see :func:`reference_fsync`): a change in the number of
    fsyncs or in what a typical one costs still shows; a burst of slow
    calls in one pass, or a slower disk, does not.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self._original = None

    def __enter__(self) -> "FsyncClock":
        original = self._original = os.fsync

        def timed(fd):
            t0 = time.perf_counter()
            try:
                return original(fd)
            finally:
                self.latencies.append(time.perf_counter() - t0)

        os.fsync = timed
        return self

    def __exit__(self, *_exc) -> None:
        os.fsync = self._original

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    def reference(self, seconds: float, host_speed: float, per_call: float) -> float:
        """Reference seconds for ``seconds`` that included these fsyncs:
        the rest scaled by ``host_speed`` (see :func:`speed`), each fsync
        charged ``per_call`` instead of its own latency."""
        return (seconds - self.seconds) * host_speed + len(self.latencies) * per_call


def reference_fsync(clocks: List[FsyncClock], probes: List[float]) -> float:
    """Reference seconds of one of the program's fsyncs: their median
    latency over ``clocks``, scaled by ``REF_FSYNC_S`` over the median
    of ``probes`` taken alongside (0 if the program never fsynced)."""
    latencies = [x for clock in clocks for x in clock.latencies]
    if not latencies:
        return 0.0
    return median(latencies) * REF_FSYNC_S / median(probes)
