"""Request-lifecycle spans, assembled from the probes the collector
subscribes to.

Three span families (DESIGN.md §8):

- **mem** — one span per demand/prefetch line fetch, keyed
  ``(tile, line)``: opens at the L1 miss that allocates the MSHR,
  accumulates hops as the request crosses L2 → L3 bank → DRAM →
  data return, closes at the L1 fill.
- **elem** — one span per floated-stream element, keyed
  ``(requester, sid, element)``: opens when the SE_L3 issues the GetU
  at the L3 bank, closes when the DataU lands in the requester's
  SE_L2 buffer. For a confluence multicast the span is attributed to
  the group leader (the ``requester`` stamped on the GetU).
- **stream** — one span per floated-stream *incarnation*, keyed
  ``(tile, sid)`` plus an incarnation ordinal: opens at the SE_core
  float decision, accumulates a hop per bank-to-bank migration and
  per confluence join, closes at sink (core side) or EndStream
  retirement (L3 side), whichever comes first.

Spans record simulated cycles only — they are deterministic and cheap
(no wall clock, no system calls). The collector enforces a global
span cap; opens beyond the cap are counted in ``dropped`` rather than
silently ignored. NoC events are kept in a separate bounded list used
by the exporter for Chrome-trace flow arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.mem.addr import line_addr

Key = Tuple[Any, ...]

MAX_SPANS = 200_000  # open+closed span cap (drops counted)
MAX_NOC_EVENTS = 20_000  # exported NoC flow arrows cap


@dataclass
class Hop:
    """One timestamped waypoint inside a span."""

    name: str
    cycle: int
    tile: int
    detail: str = ""


@dataclass
class Span:
    """One request lifecycle: open cycle, ordered hops, close cycle."""

    kind: str  # "mem" | "elem" | "stream"
    key: Key
    tile: int  # owning track: the tile that initiated the request
    start: int
    hops: List[Hop] = field(default_factory=list)
    end: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    def duration(self) -> int:
        """Closed duration, or span-so-far for still-open spans."""
        last = self.end
        if last is None:
            last = self.hops[-1].cycle if self.hops else self.start
        return max(1, last - self.start)

    def edges(self) -> List[Tuple[str, int]]:
        """Consecutive waypoint-pair latencies: ``open`` → first hop,
        hop → hop, last hop → ``close``. Edge names join the endpoint
        names with ``>`` (the ``link.<s>><d>`` convention)."""
        pts: List[Tuple[str, int]] = [("open", self.start)]
        for h in self.hops:
            pts.append((h.name, h.cycle))
        if self.end is not None:
            pts.append(("close", self.end))
        return [
            (f"{a}>{b}", bc - ac if bc > ac else 0)
            for (a, ac), (b, bc) in zip(pts, pts[1:])
        ]


class SpanCollector:
    """Subscribes to the request and stream probes and assembles
    spans; exporter input. Without a simulator it is a bare span
    store (what synthetic and golden tests build on)."""

    def __init__(self, sim=None) -> None:
        self.max_spans = MAX_SPANS
        self.max_noc_events = MAX_NOC_EVENTS
        self.sim = sim
        self.spans: List[Span] = []
        self._open: Dict[Key, Span] = {}
        # line address -> open mem-span keys, for hops (L3/DRAM) that
        # only know the address, not the requesting tile.
        self._by_line: Dict[int, List[Key]] = {}
        # (tile, sid) -> incarnation ordinal (sids can re-float).
        self._incarnation: Dict[Tuple[int, Any], int] = {}
        self.opened = 0
        self.closed = 0
        self.dropped = 0
        self.noc_events: List[Dict[str, Any]] = []
        self.noc_dropped = 0
        if sim is not None:
            for name in ("l1_miss", "l1_fill", "l2_miss", "l2_data",
                         "l3_demand", "dram", "l3_getu", "se_l2_datau",
                         "se_floated", "se_l3_migrate", "se_l3_confluence",
                         "se_sunk", "se_l3_end", "noc_send"):
                sim.probes.subscribe(name, getattr(self, f"_on_{name}"))

    # ------------------------------------------------------------------
    # span plumbing (also the public API for synthetic/golden tests)
    # ------------------------------------------------------------------
    def open(self, kind: str, key: Key, tile: int, start: int,
             **meta: Any) -> Optional[Span]:
        if key in self._open:
            return self._open[key]
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        span = Span(kind=kind, key=key, tile=tile, start=start, meta=meta)
        self._open[key] = span
        self.spans.append(span)
        self.opened += 1
        return span

    def hop(self, key: Key, name: str, cycle: int, tile: int,
            detail: str = "") -> None:
        span = self._open.get(key)
        if span is not None:
            span.hops.append(Hop(name=name, cycle=cycle, tile=tile,
                                 detail=detail))

    def close(self, key: Key, cycle: int) -> None:
        span = self._open.pop(key, None)
        if span is not None:
            span.end = cycle
            self.closed += 1

    # ------------------------------------------------------------------
    # mem spans
    # ------------------------------------------------------------------
    def _on_l1_miss(self, l1, req, base: int, fresh: bool) -> None:
        if not fresh:
            return  # merged into an in-flight MSHR: same span
        key = ("mem", l1.tile, base)
        span = self.open("mem", key, l1.tile, self.sim.now, addr=base,
                         write=req.is_write, prefetch=req.prefetch)
        if span is not None:
            self._by_line.setdefault(base, []).append(key)

    def _on_l2_miss(self, l2, req, base: int, fresh: bool, via: str) -> None:
        self.hop(("mem", l2.tile, base), "l2_miss", self.sim.now, l2.tile,
                 detail=via)

    def _on_l3_demand(self, bank, msg, outcome: str) -> None:
        self.hop(("mem", msg.requester, line_addr(msg.addr)), "l3",
                 self.sim.now, bank.tile,
                 detail=f"{msg.op}:{outcome}" if outcome else msg.op)

    def _on_dram(self, ctrl, msg, done: int) -> None:
        # DRAM messages carry the home bank as requester, so attribute
        # the hop to every open mem span for the line.
        detail = msg.op if done is None else f"{msg.op} done@{done}"
        now = self.sim.now
        for key in self._by_line.get(line_addr(msg.addr), ()):  # usually 1
            self.hop(key, "dram", now, ctrl.tile, detail=detail)

    def _on_l2_data(self, l2, base: int, src: int) -> None:
        self.hop(("mem", l2.tile, base), "l2_data", self.sim.now, l2.tile)

    def _on_l1_fill(self, l1, base: int, reason: str) -> None:
        key = ("mem", l1.tile, base)
        self.close(key, self.sim.now)
        keys = self._by_line.get(base)
        if keys is not None:
            try:
                keys.remove(key)
            except ValueError:
                pass
            if not keys:
                del self._by_line[base]

    # ------------------------------------------------------------------
    # elem spans
    # ------------------------------------------------------------------
    @staticmethod
    def _elem_key(requester, sid, element) -> Key:
        # Coalesced sublines arrive as an (start, end) range covering
        # several elements — the GetU and DataU both carry the range,
        # so a single span keyed on the range start is enough.
        first = element[0] if isinstance(element, tuple) else element
        return ("elem", requester, sid, first)

    def _on_l3_getu(self, bank, msg) -> None:
        key = self._elem_key(msg.requester, msg.stream_id, msg.element)
        now = self.sim.now
        span = self.open(
            "elem", key, msg.requester, now, sid=msg.stream_id,
            element=key[3], bank=bank.tile, category=msg.source,
        )
        if span is not None:
            span.hops.append(Hop("getu", now, bank.tile))

    def _on_se_l2_datau(self, se, sid, element, src: int) -> None:
        if element is None:
            return  # elem spans key on the element index
        key = self._elem_key(se.tile, sid, element)
        now = self.sim.now
        self.hop(key, "datau", now, se.tile)
        self.close(key, now)

    # ------------------------------------------------------------------
    # stream lifecycle spans
    # ------------------------------------------------------------------
    def _stream_key(self, tile, sid) -> Key:
        n = self._incarnation.get((tile, sid), 0)
        return ("stream", tile, sid, n)

    def _on_se_floated(self, se, stream) -> None:
        now = self.sim.now
        span = self.open(
            "stream", self._stream_key(se.tile, stream.sid), se.tile, now,
            sid=stream.sid, float_elem=stream.float_start,
        )
        if span is not None:
            span.hops.append(Hop(
                "float", now, se.tile,
                f"sid {stream.sid} @elem {stream.float_start}"))

    def _on_se_l3_migrate(self, se3, stream, to_bank: int) -> None:
        self.hop(self._stream_key(stream.requester, stream.spec.sid),
                 "migrate", self.sim.now, se3.tile,
                 detail=f"-> bank {to_bank}")

    def _on_se_l3_confluence(self, se3, stream) -> None:
        self.hop(self._stream_key(stream.requester, stream.spec.sid),
                 "confluence", self.sim.now, se3.tile,
                 detail=f"group of {len(stream.group.members)}")

    def _close_stream(self, tile, sid, name: str, at_tile: int) -> None:
        key = self._stream_key(tile, sid)
        span = self._open.get(key)
        if span is None:
            return  # already closed by the other side (sink vs end)
        now = self.sim.now
        span.hops.append(Hop(name, now, at_tile))
        self.close(key, now)
        self._incarnation[(tile, sid)] = key[3] + 1

    def _on_se_sunk(self, se, stream) -> None:
        self._close_stream(se.tile, stream.sid, "sink", se.tile)

    def _on_se_l3_end(self, se3, body) -> None:
        self._close_stream(body.requester, body.sid, "end", se3.tile)

    # ------------------------------------------------------------------
    # NoC events (flow arrows)
    # ------------------------------------------------------------------
    def _on_noc_send(self, packet, when: int) -> None:
        # Injection cycle (now) and arrival cycle: exactly the pair a
        # Chrome-trace flow arrow needs.
        if len(self.noc_events) >= self.max_noc_events:
            self.noc_dropped += 1
            return
        # Flow ids number the point's arrows in send order; packet ids
        # come from a process-wide counter and depend on earlier runs.
        self.noc_events.append({
            "src": packet.src, "dst": packet.dst, "port": packet.dst_port,
            "kind": packet.kind, "id": len(self.noc_events),
            "depart": self.sim.now, "arrive": when,
        })

    # ------------------------------------------------------------------
    def by_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def critical_profile(self) -> Dict[Tuple[str, str], List[int]]:
        """Aggregate critical-path profile across all spans.

        Maps ``(span kind, edge name)`` to ``[traversals, total
        cycles, dominated]`` where *dominated* counts the spans whose
        single longest edge this was — the per-run bottleneck census
        the attribution report ranks.
        """
        profile: Dict[Tuple[str, str], List[int]] = {}
        for span in self.spans:
            best: Optional[Tuple[str, int]] = None
            for edge, lat in span.edges():
                slot = profile.setdefault((span.kind, edge), [0, 0, 0])
                slot[0] += 1
                slot[1] += lat
                if best is None or lat > best[1]:
                    best = (edge, lat)
            if best is not None:
                profile[(span.kind, best[0])][2] += 1
        return profile
