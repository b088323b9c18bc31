"""Interval metrics sampler: Stats deltas every N cycles.

Once per sampling period (in *simulated* cycles, checked on the
kernel's ``dispatched`` probe) the sampler snapshots a fixed set of
Stats counters and records the delta since the previous sample, plus
derived rates:

- ``ipc`` — chip-aggregate ops per cycle over the interval;
- ``noc_util`` — flit-hops / (links x interval cycles);
- ``l3_mpki`` — L3 misses per thousand core ops in the interval;
- ``streams_alive`` — floated streams alive at the sample instant
  (gauge: floated on ``se_floated``, retired on ``se_sunk`` or
  ``se_l3_end``, whichever comes first);
- ``flits.<class>`` — flits injected per traffic class.

Given a probe table, the sampler subscribes itself: ``built`` binds
the chip, ``dispatched`` steps it, and the three stream probes keep
the gauge. Samples are plain dicts (written as JSONL by
:func:`repro.obs.export.write_intervals`). Everything here is
simulated-time arithmetic — deterministic across hosts and runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.noc.message import TRAFFIC_CLASSES

# Counters snapshotted each interval (deltas reported with dots
# replaced per-schema below).
TRACKED = (
    "core.ops", "core.loads", "core.stores",
    "l1.misses", "l2.misses", "l3.hits", "l3.misses",
    "dram.reads", "dram.writes",
    "se_l3.elements_issued",
) + tuple(f"noc.flits.{c}" for c in TRAFFIC_CLASSES) + tuple(
    f"noc.flit_hops.{c}" for c in TRAFFIC_CLASSES
)


class IntervalSampler:
    """Samples bound Stats every ``period`` simulated cycles."""

    def __init__(self, period: int, probes=None) -> None:
        if period <= 0:
            raise ValueError(f"interval period must be positive, got {period}")
        self.period = period
        # Floated streams alive, as (requesting tile, sid) pairs.
        self._alive: Set[Tuple[int, Any]] = set()
        self.samples: List[Dict[str, float]] = []
        self._stats = None
        self._links = 1
        self._cores = 1
        self._next = period
        self._last_cycle = 0
        self._last: Dict[str, float] = {name: 0.0 for name in TRACKED}
        if probes is not None:
            probes.subscribe("built", self._on_built)
            probes.subscribe("dispatched", self.on_step)
            probes.subscribe("se_floated", self._on_se_floated)
            probes.subscribe("se_sunk", self._on_se_sunk)
            probes.subscribe("se_l3_end", self._on_se_l3_end)

    def bind(self, stats, links: int, cores: int) -> None:
        """Attach the chip's Stats tree and mesh geometry."""
        self._stats = stats
        self._links = max(1, links)
        self._cores = max(1, cores)

    def _on_built(self, role: str, comp) -> None:
        if role == "chip":
            self.bind(comp.stats, links=comp.mesh.num_links,
                      cores=comp.mesh.num_tiles)

    # Gauge bookkeeping: set ops are idempotent, so sink-then-end
    # double closes are harmless.
    def _on_se_floated(self, se, stream) -> None:
        self._alive.add((se.tile, stream.sid))

    def _on_se_sunk(self, se, stream) -> None:
        self._alive.discard((se.tile, stream.sid))

    def _on_se_l3_end(self, se3, body) -> None:
        self._alive.discard((body.requester, body.sid))

    def on_step(self, now: int, fn: Any = None) -> None:
        """Kernel heartbeat (the ``dispatched`` probe); samples when the
        period boundary passes."""
        if now >= self._next and self._stats is not None:
            self._sample(now)
            # Skip ahead past idle gaps rather than emitting a backlog
            # of empty samples.
            while self._next <= now:
                self._next += self.period

    def flush(self, now: int) -> None:
        """Final (possibly partial) sample at end of run."""
        if self._stats is not None and now > self._last_cycle:
            self._sample(now)

    def _sample(self, now: int) -> None:
        stats = self._stats
        cur = {name: stats.get(name) for name in TRACKED}
        delta = {name: cur[name] - self._last[name] for name in TRACKED}
        dcycles = now - self._last_cycle
        ops = delta["core.ops"]
        flit_hops = sum(delta[f"noc.flit_hops.{c}"] for c in TRAFFIC_CLASSES)
        sample: Dict[str, float] = {
            "cycle": now,
            "dcycles": dcycles,
            "ipc": round(ops / dcycles, 6) if dcycles else 0.0,
            "noc_util": (
                round(flit_hops / (self._links * dcycles), 6)
                if dcycles else 0.0
            ),
            "l3_mpki": (
                round(delta["l3.misses"] / (ops / 1000.0), 6) if ops else 0.0
            ),
            "streams_alive": len(self._alive),
        }
        for name in TRACKED:
            sample[name.replace(".", "_")] = delta[name]
        self.samples.append(sample)
        self._last = cur
        self._last_cycle = now

    @staticmethod
    def columns() -> List[str]:
        """The fields each sample carries, in a stable order."""
        return [
            "cycle", "dcycles", "ipc", "noc_util", "l3_mpki",
            "streams_alive",
        ] + [name.replace(".", "_") for name in TRACKED]
