"""Bulk prefetch: the paper's "microarchitecture-only" comparison.

SS VI: the L2 stride prefetcher is augmented to group up to 4
consecutive prefetch requests headed to the *same L3 bank* into a
single request message, cutting request-control traffic by up to 4x.
The responses are still one data message per line. The optimization
only applies when the L3 interleaving granularity exceeds one cache
line (otherwise consecutive lines never share a bank) — the harness
enforces that, matching the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mem.coherence import CohMsg
from repro.noc.message import CTRL, Packet, control_payload_bits
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats


class BulkGrouper:
    """Batches L2 prefetch GetS messages per destination bank."""

    ADDR_BITS = 48

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        stats: Stats,
        tile: int,
        group_size: int = 4,
        flush_after: int = 8,
    ) -> None:
        self.sim = sim
        self.net = net
        self.stats = stats
        self.tile = tile
        self.group_size = group_size
        self.flush_after = flush_after
        self._pending: Dict[int, List[Tuple[CohMsg, object]]] = {}

    def enqueue(self, home: int, msg: CohMsg, entry) -> None:
        """Queue a prefetch GetS for ``home``; flushes at group_size
        or after ``flush_after`` cycles, whichever comes first."""
        queue = self._pending.setdefault(home, [])
        queue.append((msg, entry))
        if len(queue) >= self.group_size:
            self.flush(home)
        elif len(queue) == 1:
            self.sim.schedule(self.flush_after, self._timeout, home)

    def _timeout(self, home: int) -> None:
        if self._pending.get(home):
            self.flush(home)

    def flush(self, home: int) -> None:
        queue = self._pending.pop(home, None)
        if not queue:
            return
        msgs = [msg for msg, _entry in queue]
        if len(msgs) == 1:
            packet = Packet(
                src=self.tile, dst=home, kind=CTRL,
                payload_bits=control_payload_bits(), dst_port="l3",
                body=msgs[0],
            )
        else:
            bulk = CohMsg(
                op="GetSBulk", addr=msgs[0].addr,
                requester=self.tile, se_info=msgs,
            )
            packet = Packet(
                src=self.tile, dst=home, kind=CTRL,
                payload_bits=(len(msgs) - 1) * self.ADDR_BITS,
                dst_port="l3", body=bulk,
            )
            self.stats.add("l2.bulk_groups")
            self.stats.add("l2.bulk_grouped_requests", len(msgs))
        info = self.net.send(packet)
        for _msg, entry in queue:
            entry.meta["req_flits"] = info.flits / len(queue)
