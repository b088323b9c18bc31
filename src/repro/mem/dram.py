"""Memory controllers.

Table III places one DDR3-1600 controller at each of the four mesh
corners, 12.8 GB/s aggregate. We model each controller as a fixed
access latency plus a bandwidth bottleneck: back-to-back line
transfers serialize at ``cycles_per_line`` (64 B at 3.2 GB/s per
controller and 2 GHz core clock = 40 cycles per line).

Addresses are interleaved across controllers at page granularity so
streaming workloads load-balance the corners.
"""

from __future__ import annotations

from typing import List

from repro.mem.addr import PAGE_SHIFT
from repro.noc.message import DATA, Packet, data_payload_bits
from repro.mem.coherence import CohMsg
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats


class DramController:
    """One memory controller attached to a corner tile."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        stats: Stats,
        tile: int,
        access_latency: int = 100,
        cycles_per_line: int = 40,
    ) -> None:
        self.sim = sim
        self.net = net
        self.stats = stats
        self.tile = tile
        self.access_latency = access_latency
        self.cycles_per_line = cycles_per_line
        self._busy_until = 0
        self._c_reads = stats.counter("dram.reads")
        self._c_writes = stats.counter("dram.writes")
        net.register(tile, "dram", self.handle)
        self._probes = sim.probes.bind("dram", self)

    def handle(self, pkt: Packet) -> None:
        msg: CohMsg = pkt.body
        if msg.op == "MemRead":
            self._c_reads[0] += 1
            done = self._service()
            # Build the response eagerly and schedule the bound send
            # directly — no closure allocation per read.
            self.sim.schedule_at(done, self.net.send, Packet(
                src=self.tile, dst=pkt.src, kind=DATA,
                payload_bits=data_payload_bits(64),
                dst_port="l3",
                body=CohMsg(
                    op="MemData", addr=msg.addr, requester=msg.requester,
                    se_info=msg.se_info,
                ),
            ))
        elif msg.op == "MemWrite":
            self._c_writes[0] += 1
            done = self._service()
        else:
            raise ValueError(f"DRAM controller got unexpected op {msg.op!r}")
        p = self._probes.dram
        if p is not None:
            p(self, msg, done)

    def _service(self) -> int:
        """Reserve the channel for one line; returns completion cycle."""
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + self.cycles_per_line
        return start + self.access_latency


class DramSystem:
    """The four corner controllers plus the page-interleaved mapping."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        stats: Stats,
        access_latency: int = 100,
        cycles_per_line: int = 40,
    ) -> None:
        corner_tiles = net.mesh.corners()
        self.controllers: List[DramController] = [
            DramController(
                sim, net, stats, tile,
                access_latency=access_latency,
                cycles_per_line=cycles_per_line,
            )
            for tile in dict.fromkeys(corner_tiles)
        ]

    CHANNEL_INTERLEAVE_SHIFT = PAGE_SHIFT  # page-granularity channels

    def controller_tile(self, addr: int) -> int:
        """Corner tile homing ``addr``.

        Channels interleave at page granularity (open-page address
        mapping: consecutive lines of a page stay on one channel for
        row-buffer locality). Together with Table III's 12.8 GB/s
        budget this reproduces the contended-memory regime the
        paper's 64-core evaluation operates in.
        """
        idx = (addr >> self.CHANNEL_INTERLEAVE_SHIFT) % len(self.controllers)
        return self.controllers[idx].tile
