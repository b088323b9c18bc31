"""Telemetry: the pillars that observe a run through the probe seam.

``Telemetry`` is the observability counterpart of
:class:`~repro.sim.sanitizer.Sanitizer` and observes through the same
probe seam (:mod:`repro.obs.probes`). It is an argument of a run, not
of the process: ``Telemetry(sim, config)`` (or :func:`attach`) hangs
it off a built chip's :class:`~repro.sim.kernel.Simulator` and builds
the pillars its config asks for; ``repro.harness.runner.simulate`` does
that for a point that names pillars (its ``obs`` parameter) and for
``python -m repro.obs run``. Each pillar subscribes to the probes it
needs itself. Without telemetry nothing subscribes, so every probe
costs one attribute test and no call.

The pillars are each independently enabled by
:class:`TelemetryConfig` (DESIGN.md §8):

- **spans** (:mod:`repro.obs.spans`): request-lifecycle spans for
  core loads/stores, floated-stream elements, and floated-stream
  lifetimes, exportable as Chrome trace-event JSON;
- **interval** (:mod:`repro.obs.interval`): a time-series sampler
  snapshotting Stats deltas every N cycles;
- **provenance** (:mod:`repro.obs.provenance`): the decision ledger
  plus tile/link activity matrices (DESIGN.md §11);
- **attribution** (:mod:`repro.obs.attribution`): per-core cycle
  accounting into CPI-stack buckets with an exact conservation
  assertion (DESIGN.md §15).

:meth:`Telemetry.record` needs no pillar: it logs the floated-stream
lifecycle as :class:`StreamEvent` records, straight from the probes
of the kinds asked for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, Iterable, Optional, Tuple

from repro.obs.attribution import CycleAccountant
from repro.obs.interval import IntervalSampler
from repro.obs.provenance import ProvenanceLedger
from repro.obs.spans import SpanCollector

PILLARS = ("spans", "interval", "provenance", "attribution")

DEFAULT_INTERVAL = 10_000

# The floated-stream lifecycle a record() log keeps: kind -> the probe
# it comes from and the detail text of that probe's arguments.
STREAM_PROBES: Dict[str, Tuple[str, Callable[..., str]]] = {
    "float": ("se_floated",
              lambda se, s: f"sid {s.sid} @elem {s.float_start}"),
    "sink": ("se_sunk", lambda se, s: f"sid {s.sid}"),
    "migrate": ("se_l3_migrate",
                lambda se, s, to: f"{s.key} elem {s.next_idx} -> bank {to}"),
    "confluence": ("se_l3_confluence",
                   lambda se, s: f"{s.key} joined group of "
                                 f"{len(s.group.members)}"),
    "credit": ("se_l3_credit",
               lambda se, b: f"({b.requester},{b.sid}) +{b.count}"),
    "end": ("se_l3_end", lambda se, b: f"({b.requester},{b.sid})"),
}
TRACE_KINDS = tuple(STREAM_PROBES)


@dataclass
class TelemetryConfig:
    """Which pillars are active.

    A config with every pillar off is still useful: it is what
    :meth:`Telemetry.record` logs attach with.
    """

    spans: bool = False
    interval: int = 0  # sampling period in cycles; 0 disables
    provenance: bool = False  # decision ledger + tile/link activity
    attribution: bool = False  # per-core CPI-stack cycle accounting

    @classmethod
    def parse(cls, pillars: str,
              interval: int = DEFAULT_INTERVAL) -> "TelemetryConfig":
        """``all`` or a comma list of :data:`PILLARS`; ``interval`` is
        the sampling period if the interval pillar is named."""
        raw = pillars.strip().lower()
        if raw == "all":
            enabled = set(PILLARS)
        else:
            enabled = {p.strip() for p in raw.split(",") if p.strip()}
            unknown = enabled - set(PILLARS)
            if unknown:
                raise ValueError(
                    f"unknown telemetry pillars {sorted(unknown)}; "
                    f"valid: {PILLARS} (or all)"
                )
        return cls(
            spans="spans" in enabled,
            interval=interval if "interval" in enabled else 0,
            provenance="provenance" in enabled,
            attribution="attribution" in enabled,
        )


def attach(sim) -> "Telemetry":
    """The telemetry on ``sim``, attaching one with no pillar if none is.

    Works on an already-built chip: components reach observers through
    the probe seam at fire time, so subscribing late loses nothing but
    the events already past.
    """
    tel = sim.telemetry
    return tel if tel is not None else Telemetry(sim)


@dataclass(frozen=True)
class StreamEvent:
    """One floated-stream lifecycle event in a :meth:`Telemetry.record`
    log."""

    kind: str
    cycle: int
    tile: int
    detail: str = ""

    def __str__(self) -> str:
        return (f"[{self.cycle:>9}] {self.kind:<8} tile {self.tile:<3} "
                f"{self.detail}")


class Telemetry:
    """The per-simulator telemetry hub: config, pillars, summary."""

    def __init__(self, sim, config: Optional[TelemetryConfig] = None) -> None:
        self.sim = sim
        sim.telemetry = self
        self.config = config = config or TelemetryConfig()
        self.spans: Optional[SpanCollector] = (
            SpanCollector(sim) if config.spans else None
        )
        self.provenance: Optional[ProvenanceLedger] = (
            ProvenanceLedger(sim) if config.provenance else None
        )
        self.attribution: Optional[CycleAccountant] = (
            CycleAccountant(sim) if config.attribution else None
        )
        self.sampler: Optional[IntervalSampler] = (
            IntervalSampler(config.interval, sim.probes)
            if config.interval > 0 else None
        )

    def record(self, kinds: Iterable[str] = TRACE_KINDS,
               capacity: int = 100_000) -> Deque[StreamEvent]:
        """A ring buffer of the last ``capacity`` floated-stream events
        of ``kinds`` (default: all of :data:`TRACE_KINDS`), in cycle
        order."""
        kinds = tuple(kinds)
        unknown = sorted(set(kinds) - set(STREAM_PROBES))
        if unknown:
            raise ValueError(
                f"unknown stream event kinds {unknown}; "
                f"valid: {TRACE_KINDS}"
            )
        log: Deque[StreamEvent] = deque(maxlen=capacity)
        for kind in kinds:
            probe, detail = STREAM_PROBES[kind]
            self.sim.probes.subscribe(
                probe, partial(self._log, log, kind, detail))
        return log

    def _log(self, log: Deque[StreamEvent], kind: str,
             detail: Callable[..., str], se, *args) -> None:
        log.append(StreamEvent(kind, self.sim.now, se.tile,
                               detail(se, *args)))

    # ------------------------------------------------------------------
    # run completion
    # ------------------------------------------------------------------
    def finalize(self, stats=None) -> None:
        """Flush pillar state at the end of a run; publish summary
        counters into ``stats`` (all deterministic — no wall clock)."""
        if self.sampler is not None:
            self.sampler.flush(self.sim.now)
        if self.attribution is not None:
            self.attribution.check()
        if stats is not None:
            for name, value in self.summary().items():
                stats.set(f"telemetry.{name}", value)

    def summary(self) -> Dict[str, float]:
        """Deterministic run-level counters (carried by the run's
        :class:`~repro.harness.runner.RunRecord`)."""
        out: Dict[str, float] = {}
        if self.spans is not None:
            out["spans_opened"] = self.spans.opened
            out["spans_closed"] = self.spans.closed
            out["spans_dropped"] = self.spans.dropped
            out["noc_events"] = len(self.spans.noc_events)
            out["noc_dropped"] = self.spans.noc_dropped
            # Aggregate critical-path profile: per (span kind, edge)
            # the total cycles spent on that edge plus how many spans
            # it dominated. The ">" separator follows link.<s>><d>.
            for (kind, edge), slot in sorted(
                self.spans.critical_profile().items()
            ):
                out[f"crit.{kind}.{edge}"] = slot[1]
                if slot[2]:
                    out[f"critdom.{kind}.{edge}"] = slot[2]
        if self.sampler is not None:
            out["interval_samples"] = len(self.sampler.samples)
        if self.provenance is not None:
            out.update(self.provenance.summary())
        if self.attribution is not None:
            out.update(self.attribution.summary())
        return out
