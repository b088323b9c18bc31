"""Network model: wormhole-routed mesh with per-link occupancy.

Latency model per packet (head flit):

- per hop: ``router_stages + 1`` cycles (5-stage router + 1-cycle
  link, Table III), plus queueing when the next link is still busy
  with earlier packets;
- serialization: the tail flit arrives ``flits`` cycles after the
  head, and each link on the route stays reserved for ``flits``
  cycles (wormhole approximation).

Each unidirectional link keeps a ``busy_until`` reservation, which is
what creates congestion at high utilization — central to Figures 15/16
(traffic and link-width sensitivity).

Multicast (stream confluence) forks the X-Y tree: every *unique* link
in the destination set's routes is traversed once, so merged streams
genuinely save flit-hops on their shared prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from repro.noc.message import Packet
from repro.noc.topology import Link, Mesh
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats

Handler = Callable[[Packet], None]


@dataclass(frozen=True)
class DeliveryInfo:
    """Returned by :meth:`Network.send` for the caller's accounting.

    One instance is shared by every packet with the same flits and
    hops, so callers only read it.
    """

    flits: int
    hops: int
    flit_hops: int


class Network:
    """The chip's interconnect. All tiles share one instance."""

    LOCAL_LATENCY = 1  # core-to-colocated-bank hop through the local router

    def __init__(
        self,
        sim: Simulator,
        mesh: Mesh,
        stats: Stats,
        link_bits: int = 256,
        router_stages: int = 5,
    ) -> None:
        self.sim = sim
        self.mesh = mesh
        self.stats = stats
        self.link_bits = link_bits
        self.hop_latency = router_stages + 1
        self._busy_until: Dict[Link, int] = {}
        self._handlers: Dict[Tuple[int, str], Handler] = {}
        # Hot-path caches: X-Y routes are static per (src, dst) pair
        # (tuples of the mesh's shared link tuples), flit counts are
        # static per payload size, a DeliveryInfo is shared per (flits,
        # hops), and the per-class accounting updates interned counter
        # cells (DESIGN.md §12).
        self._route_cache: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        self._flits_cache: Dict[int, int] = {}
        self._infos: Dict[Tuple[int, int], DeliveryInfo] = {}
        self._stat_cells: Dict[str, Tuple[List[int], List[int], List[int]]] = {}
        self._c_mc_packets = stats.counter("noc.multicast.packets")
        self._c_mc_saved = stats.counter("noc.multicast.saved_flit_hops")
        # Lane cache: everything static per (src, dst, kind, payload,
        # port) — route, flit count, handler, stat cells, the local
        # pseudo-link and the shared DeliveryInfo — so send() runs
        # traversal, accounting and delivery scheduling inline.
        self._lanes: Dict[Tuple[int, int, str, int, str], tuple] = {}
        self._tree_cache: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}
        # Deliveries arriving at the same cycle share one kernel event:
        # arrival cycle -> [(handler, packet), ...] in send order. A
        # batch exists for a cycle iff its drain event is scheduled.
        self._arrivals: Dict[int, List[Tuple[Handler, Packet]]] = {}
        self._probes = sim.probes.bind("net", self)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register(self, tile: int, port: str, handler: Handler) -> None:
        """Attach ``handler`` for packets addressed to (tile, port)."""
        key = (tile, port)
        if key in self._handlers:
            raise ValueError(f"handler already registered for {key}")
        self._handlers[key] = handler

    # ------------------------------------------------------------------
    # unicast
    # ------------------------------------------------------------------
    def send(self, packet: Packet, extra_delay: int = 0) -> DeliveryInfo:
        """Inject ``packet`` now (+``extra_delay``); returns accounting
        info immediately while delivery is scheduled asynchronously.

        One lane-cache probe (DESIGN.md §12) replaces the per-packet
        route/flits/handler/stat-cell lookups, and traversal,
        accounting and delivery scheduling run inline instead of as
        three method calls. Same-tile deliveries serialize on a
        per-tile pseudo-link so delivery order matches send order
        there too — the protocol relies on per-route FIFO ordering (a
        Data grant must never be overtaken by a later forward from the
        same bank).
        """
        lanes = self._lanes
        key = (packet.src, packet.dst, packet.kind,
               packet.payload_bits, packet.dst_port)
        lane = lanes[key] if key in lanes else self._make_lane(key, packet)
        route, flits, handler, c_pkts, c_flits, c_fhops, info, local_link = lane
        sim = self.sim
        busy = self._busy_until
        hop = self.hop_latency
        head = sim.now + extra_delay
        for link in route:
            if link in busy:
                depart = busy[link]
                if depart < head:
                    depart = head
            else:
                depart = head
            busy[link] = depart + flits
            head = depart + hop
        if local_link is not None:
            # Same-tile delivery: serialize on the per-tile pseudo-link
            # so delivery order matches send order there too.
            if local_link in busy:
                depart = busy[local_link]
                if depart < head:
                    depart = head
            else:
                depart = head
            busy[local_link] = depart + flits
            head = depart + self.LOCAL_LATENCY
        when = head + flits - 1
        c_pkts[0] += 1
        c_flits[0] += flits
        c_fhops[0] += info.flit_hops
        probes = self._probes
        p = probes.noc_links
        if p is not None:
            p(route, flits)
        p = probes.noc_send
        if p is not None:
            p(packet, when)
        now = sim.now
        if when < now:
            when = now
        arrivals = self._arrivals
        if when in arrivals:
            arrivals[when].append((handler, packet))
        else:
            arrivals[when] = [(handler, packet)]
            sim.schedule_at(when, self._drain_cycle, when)
        return info

    def _make_lane(self, key: Tuple[int, int, str, int, str],
                   packet: Packet) -> tuple:
        src, dst, kind, payload, dst_port = key
        flits = self._flits_cache.get(payload)
        if flits is None:
            flits = self._flits_cache[payload] = packet.flits(self.link_bits)
        route = self._route_cache.get((src, dst))
        if route is None:
            route = self._route_cache[(src, dst)] = tuple(
                self.mesh.route(src, dst))
        handler = self._handlers.get((dst, dst_port))
        if handler is None:
            raise KeyError(f"no handler at tile {dst} port {dst_port!r}")
        cells = self._stat_cells.get(kind)
        if cells is None:
            cells = self._stat_cells[kind] = (
                self.stats.counter(f"noc.packets.{kind}"),
                self.stats.counter(f"noc.flits.{kind}"),
                self.stats.counter(f"noc.flit_hops.{kind}"),
            )
        lane = (
            route, flits, handler, cells[0], cells[1], cells[2],
            self._info(flits, len(route)),
            (dst, dst) if not route else None,
        )
        self._lanes[key] = lane
        return lane

    def _info(self, flits: int, hops: int) -> DeliveryInfo:
        """The shared DeliveryInfo for ``flits`` over ``hops`` links."""
        info = self._infos.get((flits, hops))
        if info is None:
            info = self._infos[(flits, hops)] = DeliveryInfo(
                flits=flits, hops=hops, flit_hops=flits * hops)
        return info

    def _deliver_at(self, when: int, packet: Packet) -> None:
        handler = self._handlers.get((packet.dst, packet.dst_port))
        if handler is None:
            raise KeyError(
                f"no handler at tile {packet.dst} port {packet.dst_port!r}"
            )
        p = self._probes.noc_send
        if p is not None:
            p(packet, when)
        now = self.sim.now
        if when < now:
            when = now
        batch = self._arrivals.get(when)
        if batch is None:
            self._arrivals[when] = [(handler, packet)]
            self.sim.schedule_at(when, self._drain_cycle, when)
        else:
            batch.append((handler, packet))

    def _drain_cycle(self, when: int) -> None:
        """Run every delivery that arrives at cycle ``when``.

        Handlers fire in send order (the batch is append-ordered), so
        per-route FIFO delivery is unchanged. The batch is part of the
        model, not a fast path: every delivery of the cycle runs where
        the first was scheduled, and one event per delivery would
        order them among the cycle's other events differently and move
        cycles (DESIGN.md §12). Handlers that send again either hit a later
        cycle or (same-cycle degenerate) re-arm a fresh batch, because
        this cycle's batch is detached before any handler runs. Each
        delivery is still one logical event for ``events_executed``.
        """
        batch = self._arrivals.pop(when)
        probes = self._probes
        pre = probes.noc_deliver
        post = probes.noc_delivered
        n = len(batch)
        if n > 1:
            self.sim.count_inlined_events(n - 1)
        for handler, packet in batch:
            if pre is not None:
                pre(handler, packet)
            handler(packet)
            if post is not None:
                post(handler, packet)

    # ------------------------------------------------------------------
    # multicast
    # ------------------------------------------------------------------
    def multicast(
        self,
        src: int,
        dsts: Iterable[int],
        kind: str,
        payload_bits: int,
        dst_port: str,
        body=None,
    ) -> DeliveryInfo:
        """Send one logical packet to several tiles along a shared
        X-Y tree. Each unique tree link carries the flits once."""
        dsts = list(dict.fromkeys(dsts))
        if not dsts:
            raise ValueError("multicast needs at least one destination")
        flits = self._flits_cache.get(payload_bits)
        if flits is None:
            flits = self._flits_cache[payload_bits] = Packet(
                src=src, dst=dsts[0], kind=kind,
                payload_bits=payload_bits, dst_port=dst_port,
            ).flits(self.link_bits)
        # X-Y trees are static per (src, destination set): confluence
        # groups multicast the same set for every element, so cache the
        # routes and the deduplicated tree links alongside the unicast
        # lane cache.
        tree_key = (src, tuple(dsts))
        cached = self._tree_cache.get(tree_key)
        if cached is None:
            routes = self.mesh.multicast_tree(src, dsts)
            tree_links = Mesh.unique_links(routes)
            cached = self._tree_cache[tree_key] = (routes, tree_links)
        else:
            routes, tree_links = cached
        p = self._probes.noc_links
        if p is not None:
            p(tree_links, flits)
        # Reserve each tree link once; per-destination arrival follows
        # its own route's (already reserved) links.
        depart_at: Dict[Link, int] = {}
        # Reserve in BFS-ish order: routes share prefixes, so walk each
        # route and reserve links not yet reserved by this multicast.
        for dst in dsts:
            head = self.sim.now
            for link in routes[dst]:
                if link not in depart_at:
                    depart = max(head, self._busy_until.get(link, 0))
                    self._busy_until[link] = depart + flits
                    depart_at[link] = depart
                head = depart_at[link] + self.hop_latency
        total_hops = 0
        for dst in dsts:
            route = routes[dst]
            if route:
                arrival = depart_at[route[-1]] + self.hop_latency + flits - 1
            else:
                arrival = self.sim.now + self.LOCAL_LATENCY + flits - 1
            pkt = Packet(
                src=src, dst=dst, kind=kind,
                payload_bits=payload_bits, dst_port=dst_port, body=body,
            )
            self._deliver_at(arrival, pkt)
            total_hops += len(route)
        info = self._info(flits, len(tree_links))
        self._record(kind, flits, info.hops)
        self._c_mc_packets[0] += 1
        saved = flits * total_hops - info.flit_hops
        if saved:
            self._c_mc_saved[0] += saved
        else:
            # A zero saving still creates its key, which a cell cannot.
            self.stats.add("noc.multicast.saved_flit_hops", 0)
        return info

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _record(self, kind: str, flits: int, hops: int) -> None:
        cells = self._stat_cells.get(kind)
        if cells is None:
            cells = self._stat_cells[kind] = (
                self.stats.counter(f"noc.packets.{kind}"),
                self.stats.counter(f"noc.flits.{kind}"),
                self.stats.counter(f"noc.flit_hops.{kind}"),
            )
        # Interned cell updates: Stats.add is a method call per counter
        # and this runs three times per packet.
        cells[0][0] += 1
        cells[1][0] += flits
        cells[2][0] += flits * hops
