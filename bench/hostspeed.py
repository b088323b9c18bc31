"""Host-speed sampling, so host-time metrics hold still on a shared host.

On a shared machine the same code runs up to ~1.8x slower for seconds
to minutes at a time, while other tenants load the host. A median over
the reps of one 20-second run cannot remove a slow spell that lasts
longer than the run. So, while a timed region runs, a fixed pure-Python
probe runs every 100 ms from a ``SIGALRM`` handler and measures how fast
the host is at that moment. The region's time, less the time the probes
took, is then scaled by ``(REFERENCE_PROBE_S / median probe time) **
SENSITIVITY``: about the host seconds the region would take on the
reference host when nothing else is running.

The probe uses no ``repro`` code, so a change to the simulator moves the
region's time but not the probe's. Its data is small, and it is timed on
its second pass, once that data is back in cache, so the simulator's own
cache footprint does not move it either.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Callable, List, Tuple

PERIOD_S = 0.1
# Probes taken just before a region, so a region shorter than PERIOD_S
# still has a speed to scale by.
PRE_SAMPLES = 3
# Median probe time on the reference host (2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11) while the host was quiet.
REFERENCE_PROBE_S = 0.00022
# Under contention the simulator slows less than the probe: in heavy
# spells the probe ran ~2.3x slower while the simulator ran 1.5-1.75x
# slower. Over 30 runs of each workload, in quiet, mixed and heavy
# spells, this exponent kept every ten-run spread of run_s within 10%
# and the medians of the three ten-run sets within 7% of each other
# (exponent 1: 21% and 20%; unscaled: 30% and 32%).
SENSITIVITY = 0.6


class _Slot:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0

    def add(self, amount: int) -> int:
        self.total += amount
        return self.total


class HostSpeed:
    """Times regions and scales them to the reference host speed.

    The probe does what the simulator does most: method calls on slotted
    objects, dict lookups and heap pushes and pops.
    """

    def __init__(self) -> None:
        self._slots = [_Slot(i) for i in range(256)]
        self._table = {(i * 2654435761) & 0xFFFFFF: i for i in range(1024)}
        self._keys = list(self._table)
        self._heap: List[int] = []
        self.samples: List[float] = []
        self.probe_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _pass(self) -> None:
        slots, table, keys, heap = self._slots, self._table, self._keys, self._heap
        for i in range(500):
            slots[(i * 37) & 255].add(i)
            table.get(keys[(i * 7919) & 1023])
            heapq.heappush(heap, (i * 104729) & 65535)
            if len(heap) > 256:
                heapq.heappop(heap)

    def probe(self) -> float:
        """Host seconds of one warm probe pass."""
        self._pass()
        t0 = time.perf_counter()
        self._pass()
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self.probe_s += time.perf_counter() - t0

    def timed(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """Call ``fn(*args)``; return its result, its host seconds less
        the probes', and those seconds scaled to the reference speed."""
        self.samples = [self.probe() for _ in range(PRE_SAMPLES)]
        self.probe_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - t0
        host_s = elapsed - self.probe_s
        scale = (REFERENCE_PROBE_S / statistics.median(self.samples)) ** SENSITIVITY
        return result, host_s, host_s * scale
