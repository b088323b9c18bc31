"""Kernel hot-path profiler: wall-clock per event-callback owner.

The profiler subscribes to the kernel's ``dispatch``/``dispatched``
probes and times each dispatch with ``perf_counter``; it aggregates
``(count, seconds)`` per callback *owner* — the ``__qualname__`` of
the scheduled function, which for bound methods reads
``L3Bank._process`` etc. Work a handler runs fused (DESIGN.md §12) is
charged to the handler that dispatched it.

Wall-clock numbers are host-dependent by nature; they are reported in
the ``--profile`` artifact but deliberately kept out of Stats and the
run cache so cached records stay byte-identical across hosts.

Two sample sources feed the accumulator. The dispatch probes time
each queue dispatch (:meth:`KernelProfiler.record`). Deliveries the
network batches inside ``Network._drain_cycle`` — including every
lane-cached packet — would all land on that one dispatch qualname, so
the ``noc_deliver``/``noc_delivered`` probes additionally time each
endpoint handler and credit the *real* handler's ``__qualname__``
(:meth:`KernelProfiler.record_inner`). The dispatch sample then
subtracts the nested handler time it contains, so host seconds are
counted exactly once.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List


class KernelProfiler:
    """Aggregates host time and event counts per callback qualname."""

    def __init__(self, probes=None) -> None:
        self._acc: Dict[str, List[float]] = {}  # name -> [count, seconds]
        self.events = 0
        # Handler time recorded inside the current dispatch, to be
        # subtracted from the enclosing dispatch sample.
        self._nested_pending = 0.0
        self._dispatch_t0 = 0.0
        self._deliver_t0 = 0.0
        if probes is not None:
            probes.subscribe("dispatch", self.on_dispatch)
            probes.subscribe("dispatched", self.on_dispatched)
            probes.subscribe("noc_deliver", self.on_deliver)
            probes.subscribe("noc_delivered", self.on_delivered)

    # -- probe subscribers ----------------------------------------------
    def on_dispatch(self, when: int, fn: Any) -> None:
        self._dispatch_t0 = perf_counter()

    def on_dispatched(self, when: int, fn: Any) -> None:
        self.record(fn, perf_counter() - self._dispatch_t0)

    def on_deliver(self, handler: Any, packet: Any) -> None:
        self._deliver_t0 = perf_counter()

    def on_delivered(self, handler: Any, packet: Any) -> None:
        self.record_inner(
            getattr(handler, "__qualname__", repr(handler)),
            perf_counter() - self._deliver_t0,
        )

    def record(self, fn: Any, seconds: float) -> None:
        nested = self._nested_pending
        if nested:
            self._nested_pending = 0.0
            seconds = seconds - nested if seconds > nested else 0.0
        name = getattr(fn, "__qualname__", repr(fn))
        slot = self._acc.get(name)
        if slot is None:
            slot = self._acc[name] = [0, 0.0]
        slot[0] += 1
        slot[1] += seconds
        self.events += 1

    def record_inner(self, name: str, seconds: float) -> None:
        """Credit a network-delivered handler under its own qualname
        (lane-cached deliveries never surface as queue dispatches)."""
        slot = self._acc.get(name)
        if slot is None:
            slot = self._acc[name] = [0, 0.0]
        slot[0] += 1
        slot[1] += seconds
        self._nested_pending += seconds

    @property
    def total_seconds(self) -> float:
        return sum(slot[1] for slot in self._acc.values())

    def top(self, n: int = 20) -> List[Dict[str, float]]:
        """Top-``n`` callbacks by cumulative host seconds."""
        rows = [
            {
                "callback": name,
                "events": slot[0],
                "seconds": round(slot[1], 6),
                "us_per_event": round(slot[1] / slot[0] * 1e6, 3),
            }
            for name, slot in self._acc.items()
        ]
        rows.sort(key=lambda r: (-r["seconds"], r["callback"]))
        return rows[:n]

    def payload(self, n: int = 20) -> Dict[str, Any]:
        """JSON-ready artifact body (schema in DESIGN.md §8)."""
        return {
            "events": self.events,
            "callbacks": len(self._acc),
            "total_seconds": round(self.total_seconds, 6),
            "top": self.top(n),
        }
