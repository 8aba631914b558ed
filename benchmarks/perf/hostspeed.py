"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few virtual CPUs of a shared host, where how
fast a CPU runs Python depends on what other tenants run on its sibling
hardware thread and the shared caches.  On a 2-vCPU host a fixed loop
took 1.1 ms in one second and 1.9 ms two seconds later, and workload
rounds ran up to twice as long from one minute to the next.

A :class:`HostSpeed` times :func:`kernel`, a small fixed piece of
interpreter work, every :data:`PERIOD_S` on a daemon thread of the
measured process, in that thread's own CPU time.  The host's *slowdown*
at a moment is the kernel time of the samples around it over
:data:`REFERENCE_S`, and :meth:`HostSpeed.reference_seconds` turns an
interval of wall time into seconds of the reference host, the one on
which the kernel takes exactly ``REFERENCE_S``: the integral of one
over the slowdown.  Over one-second windows of a serial event-engine
sweep on the host above, wall time varied by 35% and reference time by
3%.

The kernel only tracks the host when it runs on the CPU the work runs
on, so the measured process, with its threads and the processes it
starts, runs on one CPU (:func:`pinned`), and the sampling thread
inherits it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Iterator

#: Thread CPU seconds :func:`kernel` takes on the reference host (about
#: its fastest on an idle core of the host the baseline was taken on).
REFERENCE_S = 1.0e-3

#: Seconds between two samples.  A kernel run costs 1-2 ms, so sampling
#: takes 1-2 % of the measured CPU.
PERIOD_S = 0.1


def kernel() -> float:
    """Thread CPU seconds of one fixed piece of interpreter work."""
    start = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(8000):
        table[i & 1023] = i
        total += table.get(i & 511, 0) % 7
    return time.thread_time() - start


@contextmanager
def pinned() -> Iterator[int]:
    """Run the calling thread, and the threads and processes it starts
    meanwhile, on one CPU, the highest it may use; yields that CPU."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


class HostSpeed:
    """Kernel samples over time, taken on a thread between :meth:`start`
    and :meth:`stop`."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.times: list[float] = []
        self.costs: list[float] = []
        self._slowdowns: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="host-speed", daemon=True)

    def _loop(self) -> None:
        while True:
            self.times.append(time.perf_counter())
            self.costs.append(kernel())
            if self._stop.wait(self.period_s):
                return

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowdowns(self) -> list[float]:
        """Per sample, the median cost of the three samples nearest it
        (it and its neighbours) over ``REFERENCE_S``: one preempted
        kernel run does not count."""
        costs = self.costs
        first = [max(0, min(i - 1, len(costs) - 3)) for i in range(len(costs))]
        return [statistics.median(costs[k:k + 3]) / REFERENCE_S
                for k in first]

    def reference_seconds(self, start: float, end: float) -> float:
        """The wall interval [``start``, ``end``] (``perf_counter``
        seconds) in seconds of the reference host; call it once the
        sampling has stopped.

        Each moment takes the slowdown of the sample nearest it, so the
        time before the first sample and after the last takes theirs.
        """
        if len(self._slowdowns) != len(self.costs):
            self._slowdowns = self.slowdowns()
        times, slowdowns = self.times, self._slowdowns
        # sample k is nearest on [bounds[k - 1], bounds[k]]
        bounds = [(a + b) / 2 for a, b in zip(times, times[1:])]
        first = bisect_left(bounds, start)
        last = bisect_right(bounds, end)
        total = 0.0
        for k in range(first, last + 1):
            lo = max(start, bounds[k - 1]) if k > 0 else start
            hi = min(end, bounds[k]) if k < len(bounds) else end
            total += (hi - lo) / slowdowns[k]
        return total
