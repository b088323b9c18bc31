"""Unified telemetry layer: the event bus over the probe seam.

``Telemetry`` is the observability counterpart of
:class:`~repro.sim.sanitizer.Sanitizer` and attaches the same way,
through the probe seam (:mod:`repro.obs.probes`): when enabled
(``REPRO_TELEMETRY`` environment variable, the harness's
``--trace-out`` / ``--interval-stats`` / ``--profile`` flags, an
explicit ``Telemetry(sim, config)`` call, or :func:`attach` on a built
chip) it hangs off the shared :class:`~repro.sim.kernel.Simulator`
and subscribes to the probes its pillars need. When disabled nothing
subscribes, so every probe costs one attribute test and no call.

The layer's pillars are each independently enabled by
:class:`TelemetryConfig` (DESIGN.md §8):

- **spans** (:mod:`repro.obs.spans`): request-lifecycle spans for
  core loads/stores, floated-stream elements, and floated-stream
  lifetimes, exportable as Chrome trace-event JSON;
- **interval** (:mod:`repro.obs.interval`): a time-series sampler
  snapshotting Stats deltas every N cycles;
- **profile** (:mod:`repro.obs.profiler`): a host-side profiler
  attributing wall-clock and event counts per event callback;
- **provenance** (:mod:`repro.obs.provenance`): the decision ledger
  plus tile/link activity matrices (DESIGN.md §11);
- **attribution** (:mod:`repro.obs.attribution`): per-core cycle
  accounting into CPI-stack buckets with an exact conservation
  assertion (DESIGN.md §15).

Underneath the pillars sits a typed publish/subscribe **event bus**:
the probe subscribers below ``publish`` :class:`BusEvent` records
(kind, cycle, tile, human detail, structured data) and any number of
consumers ``subscribe`` per kind — the span collector, the interval
sampler's gauges and the ring-buffer event logs of :meth:`record`
are all plain subscribers. Publishing with no subscriber for the kind
is a dictionary miss and an integer increment.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

ENV_TELEMETRY = "REPRO_TELEMETRY"
ENV_INTERVAL = "REPRO_TELEMETRY_INTERVAL"
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"

_OFF_VALUES = ("", "0", "off", "false", "no")
_ALL_VALUES = ("1", "on", "true", "yes", "all")

PILLARS = ("spans", "interval", "profile", "provenance", "attribution")

DEFAULT_INTERVAL = 10_000

# Every kind the probe subscribers publish. The first six are the
# floated-stream lifecycle (TRACE_KINDS, what record() keeps by
# default). ``decision`` carries float/no-float/sink/config/follow
# verdicts with their full policy-input snapshot (provenance pillar,
# DESIGN.md §11).
KINDS = (
    "float", "sink", "migrate", "confluence", "credit", "end",
    "l1_miss", "l1_fill", "l2_miss", "l2_data", "l3_demand",
    "getu", "datau", "dram", "noc", "decision",
)
TRACE_KINDS = KINDS[:6]

# Probes every attached Telemetry publishes from (``_on_<probe>``).
BUS_PROBES = (
    "noc_send", "l1_miss", "l1_fill", "l2_miss", "l2_data", "l3_demand",
    "l3_getu", "dram", "se_floated", "se_sunk", "se_l2_datau",
    "se_l3_migrate", "se_l3_confluence", "se_l3_credit", "se_l3_end",
)
# Probes only the provenance pillar needs: policy decisions.
DECISION_PROBES = (
    "se_float_decision", "se_sink_decision", "se_end", "se_l2_follow",
    "se_l3_configure",
)


@dataclass
class TelemetryConfig:
    """Which pillars are active, and their bounds.

    A config with every pillar off is still useful: the event bus
    runs, which is what :meth:`Telemetry.record` logs need.
    """

    spans: bool = False
    interval: int = 0  # sampling period in cycles; 0 disables
    profile: bool = False
    provenance: bool = False  # decision ledger + tile/link activity
    attribution: bool = False  # per-core CPI-stack cycle accounting
    max_spans: int = 200_000  # open+closed span cap (drops counted)
    max_noc_events: int = 20_000  # exported NoC flow arrows cap
    max_decisions: int = 100_000  # provenance ledger cap (drops counted)


def enabled_by_env() -> bool:
    """Is ``REPRO_TELEMETRY`` set to a truthy value?"""
    return os.environ.get(ENV_TELEMETRY, "").strip().lower() not in _OFF_VALUES


def config_from_env() -> Optional[TelemetryConfig]:
    """Parse ``REPRO_TELEMETRY`` (``1``/``all`` or a comma list of
    pillars) plus ``REPRO_TELEMETRY_INTERVAL`` into a config."""
    raw = os.environ.get(ENV_TELEMETRY, "").strip().lower()
    if raw in _OFF_VALUES:
        return None
    if raw in _ALL_VALUES:
        enabled = set(PILLARS)
    else:
        enabled = {p.strip() for p in raw.split(",") if p.strip()}
        unknown = enabled - set(PILLARS)
        if unknown:
            raise ValueError(
                f"{ENV_TELEMETRY} names unknown pillars {sorted(unknown)}; "
                f"valid: {PILLARS} (or 1/all)"
            )
    interval = 0
    if "interval" in enabled:
        interval = int(os.environ.get(ENV_INTERVAL, str(DEFAULT_INTERVAL)))
    return TelemetryConfig(
        spans="spans" in enabled,
        interval=interval,
        profile="profile" in enabled,
        provenance="provenance" in enabled,
        attribution="attribution" in enabled,
    )


def maybe_attach(sim) -> Optional["Telemetry"]:
    """Attach a telemetry layer to ``sim`` iff the environment asks."""
    config = config_from_env()
    if config is not None:
        return Telemetry(sim, config)
    return None


def attach(sim) -> "Telemetry":
    """The telemetry on ``sim``, attaching a bus-only one if none is.

    Works on an already-built chip: components reach observers through
    the probe seam at fire time, so subscribing late loses nothing but
    the events already past.
    """
    tel = sim.telemetry
    return tel if tel is not None else Telemetry(sim)


@dataclass(frozen=True)
class BusEvent:
    """One published telemetry event."""

    kind: str
    cycle: int
    tile: int
    detail: str = ""
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return (f"[{self.cycle:>9}] {self.kind:<8} tile {self.tile:<3} "
                f"{self.detail}")


class Telemetry:
    """The per-simulator telemetry hub: bus, pillars, probe subscribers."""

    def __init__(self, sim, config: Optional[TelemetryConfig] = None) -> None:
        # Deferred: repro.mem imports the kernel, which imports this.
        from repro.mem.addr import line_addr
        from repro.obs.interval import IntervalSampler
        from repro.obs.profiler import KernelProfiler
        from repro.obs.spans import SpanCollector

        self._line = line_addr
        self.sim = sim
        sim.telemetry = self
        self.config = config or TelemetryConfig()
        self._subs: Dict[str, List[Callable[[BusEvent], None]]] = {}
        self.bus_events = 0
        # Gauge: floated streams currently alive, as (tile, sid) pairs
        # (maintained on the bus path so every pillar can read it).
        self._alive: Set[Tuple[int, Optional[int]]] = set()
        self.spans: Optional[SpanCollector] = (
            SpanCollector(self, self.config) if self.config.spans else None
        )
        self.sampler: Optional[IntervalSampler] = (
            IntervalSampler(self.config.interval, alive=lambda: len(self._alive))
            if self.config.interval > 0 else None
        )
        self.profiler: Optional[KernelProfiler] = (
            KernelProfiler() if self.config.profile else None
        )
        self.provenance = None
        if self.config.provenance:
            from repro.obs.provenance import ProvenanceLedger

            self.provenance = ProvenanceLedger(self, self.config)
        self.attribution = None
        if self.config.attribution:
            from repro.obs.attribution import CycleAccountant

            self.attribution = CycleAccountant(self)
        self._subscribe_probes(sim.probes)

    def _subscribe_probes(self, probes) -> None:
        for name in BUS_PROBES:
            probes.subscribe(name, getattr(self, f"_on_{name}"))
        probes.subscribe("built", self._on_built)
        if self.provenance is not None:
            for name in DECISION_PROBES:
                probes.subscribe(name, getattr(self, f"_on_{name}"))
            probes.subscribe("noc_links", self.provenance.record_links)
        if self.attribution is not None:
            acct = self.attribution
            probes.subscribe("core_phase", acct.phase_begin)
            probes.subscribe("core_phase_done", acct.phase_end)
            probes.subscribe("core_iter_finish", acct.iter_finish)
        if self.profiler is not None:
            prof = self.profiler
            probes.subscribe("dispatch", prof.on_dispatch)
            probes.subscribe("dispatched", prof.on_dispatched)
            probes.subscribe("noc_deliver", prof.on_deliver)
            probes.subscribe("noc_delivered", prof.on_delivered)
        if self.sampler is not None:
            sampler = self.sampler
            probes.subscribe("dispatched", lambda when, fn: sampler.on_step(when))

    # ------------------------------------------------------------------
    # event bus
    # ------------------------------------------------------------------
    def subscribe(self, kind: str, handler: Callable[[BusEvent], None]) -> None:
        """Register ``handler`` for every published event of ``kind``."""
        if kind not in KINDS:
            raise ValueError(f"unknown telemetry kind {kind!r}")
        self._subs.setdefault(kind, []).append(handler)

    def publish(self, kind: str, tile: int, detail: str = "", **data: Any) -> None:
        """Publish one event to every subscriber of ``kind``."""
        self.bus_events += 1
        # Floated-stream gauge bookkeeping (set ops are idempotent, so
        # sink-then-end double closes are harmless).
        if kind == "float":
            self._alive.add((tile, data.get("sid")))
        elif kind == "sink":
            self._alive.discard((tile, data.get("sid")))
        elif kind == "end":
            self._alive.discard((data.get("requester", tile), data.get("sid")))
        subs = self._subs.get(kind)
        if not subs:
            return
        event = BusEvent(
            kind=kind, cycle=self.sim.now, tile=tile, detail=detail, data=data,
        )
        for handler in subs:
            handler(event)

    def record(self, kinds: Iterable[str] = TRACE_KINDS,
               capacity: int = 100_000) -> Deque[BusEvent]:
        """A ring buffer of the last ``capacity`` published events of
        ``kinds`` (default: the floated-stream lifecycle), in cycle
        order."""
        kinds = tuple(kinds)
        unknown = sorted(set(kinds) - set(KINDS))
        if unknown:
            raise ValueError(f"unknown telemetry kinds {unknown}")
        log: Deque[BusEvent] = deque(maxlen=capacity)
        for kind in kinds:
            self.subscribe(kind, log.append)
        return log

    @property
    def streams_alive(self) -> int:
        return len(self._alive)

    # ------------------------------------------------------------------
    # probe subscribers: one bus kind each
    # ------------------------------------------------------------------
    def _on_built(self, role: str, comp) -> None:
        if role == "chip" and self.sampler is not None:
            # Chip-level context the sampler derives IPC / utilization
            # from.
            self.sampler.bind(
                comp.stats, links=comp.mesh.num_links,
                cores=comp.mesh.num_tiles,
            )
        elif role == "core" and self.attribution is not None:
            self.attribution.add_core(comp)

    def _on_noc_send(self, packet, when: int) -> None:
        # Injection cycle (now) and arrival cycle: exactly the pair a
        # Chrome-trace flow arrow needs.
        self.publish(
            "noc", packet.src,
            f"{packet.kind} -> {packet.dst}:{packet.dst_port}",
            dst=packet.dst, port=packet.dst_port, cls=packet.kind,
            pid=packet.pid, arrive=when,
        )

    def _on_l1_miss(self, l1, req, base: int, fresh: bool) -> None:
        self.publish(
            "l1_miss", l1.tile, f"{base:#x}", addr=base,
            write=req.is_write, prefetch=req.prefetch, fresh=fresh,
            sid=req.stream_id, floating=req.floating,
        )

    def _on_l1_fill(self, l1, base: int, reason: str) -> None:
        self.publish("l1_fill", l1.tile, f"{base:#x}", addr=base,
                     reason=reason)

    def _on_l2_miss(self, l2, req, base: int, fresh: bool, via: str) -> None:
        self.publish(
            "l2_miss", l2.tile, f"{base:#x}", addr=base,
            write=req.is_write, prefetch=req.prefetch, fresh=fresh, via=via,
        )

    def _on_l2_data(self, l2, base: int, src: int) -> None:
        self.publish("l2_data", l2.tile, f"{base:#x}", addr=base, src=src)

    def _on_l3_demand(self, bank, msg, outcome: str) -> None:
        addr = self._line(msg.addr)
        self.publish(
            "l3_demand", bank.tile, f"{msg.op} {addr:#x} {outcome}",
            addr=addr, op=msg.op, requester=msg.requester,
            lat=bank.latency, outcome=outcome,
        )

    def _on_l3_getu(self, bank, msg) -> None:
        self.publish(
            "getu", bank.tile, f"sid {msg.stream_id} elem {msg.element}",
            addr=self._line(msg.addr), requester=msg.requester,
            sid=msg.stream_id, element=msg.element, category=msg.source,
        )

    def _on_dram(self, ctrl, msg, done: int) -> None:
        self.publish(
            "dram", ctrl.tile, f"{msg.op} {msg.addr:#x}",
            addr=self._line(msg.addr), op=msg.op, done=done,
        )

    def _on_se_floated(self, se, stream) -> None:
        self.publish(
            "float", se.tile, f"sid {stream.sid} @elem {stream.float_start}",
            sid=stream.sid, elem=stream.float_start,
        )

    def _on_se_sunk(self, se, stream) -> None:
        self.publish("sink", se.tile, f"sid {stream.sid}", sid=stream.sid)

    def _on_se_l2_datau(self, se, sid, element, src: int) -> None:
        if element is None:
            return  # elem spans key on the element index
        self.publish("datau", se.tile, f"sid {sid} elem {element}",
                     sid=sid, element=element, src=src)

    def _on_se_l3_migrate(self, se3, stream, to_bank: int) -> None:
        self.publish(
            "migrate", se3.tile,
            f"{stream.key} elem {stream.next_idx} -> bank {to_bank}",
            requester=stream.requester, sid=stream.spec.sid,
            elem=stream.next_idx, to_bank=to_bank, epoch=stream.epoch,
            credits=stream.credits,
        )

    def _on_se_l3_confluence(self, se3, stream) -> None:
        size = len(stream.group.members)
        self.publish(
            "confluence", se3.tile,
            f"{stream.key} joined group of {size}",
            requester=stream.requester, sid=stream.spec.sid, size=size,
        )

    def _on_se_l3_credit(self, se3, body) -> None:
        self.publish(
            "credit", se3.tile,
            f"({body.requester},{body.sid}) +{body.count}",
            requester=body.requester, sid=body.sid, count=body.count,
        )

    def _on_se_l3_end(self, se3, body) -> None:
        self.publish(
            "end", se3.tile, f"({body.requester},{body.sid})",
            requester=body.requester, sid=body.sid,
        )

    # ------------------------------------------------------------------
    # decision probes (provenance pillar)
    # ------------------------------------------------------------------
    @staticmethod
    def _policy_snapshot(se, stream) -> Dict[str, Any]:
        """The float/sink policy's complete input state for one stream
        (Table II history + pattern class + bank locality + progress)
        — what a provenance record stores as the decision's evidence."""
        ent = se.history.entry(stream.sid)
        pattern = stream.spec.pattern
        snap: Dict[str, Any] = {
            "requests": ent.requests, "reuses": ent.reuses,
            "misses": ent.misses, "aliased": ent.aliased,
            "miss_ratio": round(ent.miss_ratio, 4),
            "pattern": type(pattern).__name__,
            "length": stream.spec.length,
            "next_issue": stream.next_issue,
            "consecutive_hits": stream.consecutive_hits,
            # Windowed shadow counters + revocation state (the smart
            # policy's extra decision inputs; zero under static).
            "w_requests": ent.w_requests, "w_reuses": ent.w_reuses,
            "w_misses": ent.w_misses, "w_stores": ent.w_stores,
            "cooldown": ent.cooldown, "revokes": ent.revokes,
            "policy": getattr(se, "float_policy", "static"),
        }
        if stream.plan is not None:
            snap["plan"] = stream.plan.describe()
        footprint = getattr(pattern, "footprint_bytes", None)
        if footprint is not None:
            snap["footprint"] = footprint()
        if se.se_l2 is not None and stream.spec.length > 0:
            idx = min(stream.next_issue, stream.spec.length - 1)
            snap["home_bank"] = se.se_l2.nuca.bank_of(pattern.address(idx))
        return snap

    def _on_se_float_decision(self, se, stream, reason: str, plan) -> None:
        inputs = self._policy_snapshot(se, stream)
        if plan is not None:
            inputs["plan"] = plan.describe()
        self.publish(
            "decision", se.tile, f"float sid {stream.sid} ({reason})",
            verdict="float", sid=stream.sid, reason=reason, inputs=inputs,
        )

    def _on_se_sink_decision(self, se, stream, reason: str) -> None:
        # A smart-policy revocation is its own verdict: the policy
        # actively undid a float it now judges bad (the reason names
        # the trigger).
        verdict = "revoke" if reason.startswith("revoke") else "sink"
        self.publish(
            "decision", se.tile, f"{verdict} sid {stream.sid} ({reason})",
            verdict=verdict, sid=stream.sid, reason=reason,
            inputs=self._policy_snapshot(se, stream),
        )

    def _on_se_end(self, se, sids) -> None:
        # Terminal no-float verdicts: a load stream that retires without
        # ever floating records why the policy never fired.
        for sid in sids:
            stream = se.streams.get(sid)
            if (
                stream is not None and not stream.floating
                and stream.spec.kind == "load" and stream.parent is None
            ):
                self.publish(
                    "decision", se.tile, f"no_float sid {sid} (end)",
                    verdict="no_float", sid=sid, reason="never_qualified",
                    inputs=self._policy_snapshot(se, stream),
                )

    def _on_se_l2_follow(self, se, spec, leader) -> None:
        self.publish(
            "decision", se.tile,
            f"follow sid {spec.sid} -> leader {leader.sid}",
            verdict="follow", sid=spec.sid, reason="constant_offset",
            inputs={
                "leader_sid": leader.sid,
                "delta": leader.followers[spec.sid].delta,
                "pattern": type(spec.pattern).__name__,
                "length": spec.length,
                "epoch": leader.epoch,
            },
        )

    def _on_se_l3_configure(self, se3, body, start_idx: int,
                            migrated: bool, verdict: str) -> None:
        spec = body.spec
        inputs = {
            "start_idx": start_idx, "credits": body.credits,
            "epoch": body.epoch, "migrated": migrated,
            "pattern": type(spec.pattern).__name__,
            "length": spec.length,
            "resident_streams": len(se3.streams),
        }
        if body.plan is not None:
            inputs["plan"] = body.plan.describe()
        self.publish(
            "decision", se3.tile,
            f"config_{verdict} ({body.requester},{spec.sid})",
            verdict=f"config_{verdict}", sid=spec.sid,
            requester=body.requester,
            reason="migrate" if migrated else "float_config",
            inputs=inputs,
        )

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
        """Deterministic run-level counters (recorded alongside the
        run cache in :class:`~repro.harness.runner.RunRecord`)."""
        out: Dict[str, float] = {"bus_events": self.bus_events}
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
        if self.profiler is not None:
            out["profiled_events"] = self.profiler.events
        if self.provenance is not None:
            out.update(self.provenance.summary())
        if self.attribution is not None:
            out.update(self.attribution.summary())
        return out
