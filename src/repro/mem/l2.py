"""Private L2 cache controller.

One per tile (Table III: 256 kB, 16-way, 16-cycle). The L2 is the
coherence endpoint for the tile: it exchanges GetS/GetX/Put* with the
home L3 banks, receives forwards and invalidations, and back-
invalidates the colocated L1 on evictions (inclusive hierarchy).

This controller also produces the paper's motivation measurements:

- Figure 2a: every eviction is classified by whether the line was
  re-accessed after its fill (its hit count since the fill, where a
  hit, not the miss that filled the line, counts as a use), whether it
  was clean, and whether a stream brought it in (the paper extends the
  private-cache tag array with a 4-bit stream id, SS IV-D).
- Figure 2b: for lines evicted clean-without-reuse, the flits spent
  filling them (recorded at fill time) plus their eviction messages
  are accumulated into ``l2.noreuse_flits.*``.

The L2 is the only level that reads a line's MESI state or this
accounting, so it keeps them itself, by slot of its
:class:`~repro.mem.cache.CacheArray`, in untracked columns: the state
as a byte code in :attr:`L2Cache.state`, and the hit count, filling
stream and fill flits in ``array.array`` columns. The array keeps the
line base and the dirty bit. :meth:`L2Cache.state_of` reads a line's
state as its MESI letter.

Stream hooks: ``se_l2`` intercepts misses of floating-stream requests
(the data lives in the SE_L2 stream buffer, not the cache);
``on_stream_reuse`` reports hits on stream-tagged lines to the
SE_core's history table (SS IV-D).
"""

from __future__ import annotations

from array import array
from typing import Callable, List, Optional

from repro.mem.addr import LINE_SIZE, NucaMap
from repro.mem.cache import CacheArray, EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.mem.coherence import CohMsg
from repro.mem.mshr import MshrFile
from repro.noc.message import CTRL, DATA, Packet, control_payload_bits, data_payload_bits
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats

_LINE_MASK = ~(LINE_SIZE - 1)  # line_addr(), inlined for the hot paths

# MESI state codes of ``L2Cache.state``: STATES[code] is the state's
# letter, and the codes from E_CODE up (E, M) grant write permission.
STATES = INVALID + SHARED + EXCLUSIVE + MODIFIED
S_CODE, E_CODE, M_CODE = 1, 2, 3
_CODES = {SHARED: S_CODE, EXCLUSIVE: E_CODE, MODIFIED: M_CODE}
# The stream column's value for a line no stream brought in.
_NO_STREAM = -(1 << 31)


class L2AccessResult:
    """Handed to the ``on_done`` callback of an L2 access."""

    __slots__ = (
        "dropped",   # prefetch rejected (MSHR pressure): no fill
        "uncached",  # served from the SE_L2 stream buffer: the line
        # is not in the L2, so the L1 must not cache it either
    )

    def __init__(self, dropped: bool = False, uncached: bool = False) -> None:
        self.dropped = dropped
        self.uncached = uncached


class L2Request:
    """An access descriptor from the L1 (or prefetchers / SE_core)."""

    __slots__ = ("addr", "is_write", "prefetch", "stream_id", "element",
                 "floating", "op_id", "on_done")

    def __init__(
        self,
        addr: int,
        is_write: bool = False,
        prefetch: bool = False,
        stream_id: Optional[int] = None,
        element: Optional[int] = None,
        floating: bool = False,  # request for a floated stream's element
        op_id: Optional[int] = None,
        on_done: Optional[Callable[[L2AccessResult], None]] = None,
    ) -> None:
        self.addr = addr
        self.is_write = is_write
        self.prefetch = prefetch
        self.stream_id = stream_id
        self.element = element
        self.floating = floating
        self.op_id = op_id
        self.on_done = on_done

    def __repr__(self) -> str:
        return (
            f"L2Request(addr={self.addr:#x}, is_write={self.is_write}, "
            f"prefetch={self.prefetch}, stream_id={self.stream_id}, "
            f"element={self.element}, floating={self.floating})"
        )


class L2Cache:
    """Private, inclusive-of-L1, MESI L2 controller."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        stats: Stats,
        tile: int,
        size_bytes: int,
        ways: int = 16,
        latency: int = 16,
        mshrs: int = 16,
        replacement: str = "brrip",
        nuca: Optional[NucaMap] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.stats = stats
        self.tile = tile
        self.latency = latency
        self.array = CacheArray(size_bytes, ways, replacement=replacement, seed=tile)
        self._dirty = self.array.dirty
        nslots = len(self._dirty)
        # The line fields only the L2 reads, by slot: the MESI state
        # code, and Figure 2's hits since fill, filling stream and
        # fill flits (data and control).
        self.state = bytearray(nslots)
        self._uses = array("I", [0]) * nslots
        self._stream_ids = array("i", [_NO_STREAM]) * nslots
        self._fill_flits = array("H", [0]) * nslots
        self._fill_flits_ctrl = array("H", [0]) * nslots
        self.mshr = MshrFile(mshrs)
        # fill()'s eviction-victim predicate: skip lines with in-flight
        # transactions. Victim addresses are already line bases, so the
        # MSHR key-set membership test is lookup() minus the masking —
        # hoisted here so _fill doesn't build a closure per fill.
        self._avoid_inflight = self.mshr._entries.__contains__
        self.nuca = nuca
        self._overflow: List[L2Request] = []  # demand requests beyond MSHRs
        # Hooks wired by the tile assembly:
        self.se_l2 = None  # intercepts floating-stream misses
        self.on_stream_reuse: Optional[Callable[[int], None]] = None
        self.on_l1_invalidate: Optional[Callable[[int], None]] = None
        self.on_l1_downgrade: Optional[Callable[[int], None]] = None
        self.prefetcher = None  # L2 stride prefetcher (trained on misses)
        self.bulk = None  # optional bulk-prefetch request grouper
        # A line-sized Data response always serializes to the same flit
        # count; compute it once instead of building a throwaway Packet
        # per response (DESIGN.md §12).
        self._resp_flits = Packet(
            src=0, dst=tile, kind=DATA,
            payload_bits=data_payload_bits(LINE_SIZE), dst_port="l2",
        ).flits(net.link_bits)
        # Interned cells for the once-per-access and once-per-eviction
        # counters (DESIGN.md §12).
        self._c_hits = stats.counter("l2.hits")
        self._c_misses = stats.counter("l2.misses")
        self._c_evictions = stats.counter("l2.evictions")
        self._c_noreuse = stats.counter("l2.evictions_noreuse")
        self._c_noreuse_stream = stats.counter("l2.evictions_noreuse_stream")
        self._c_noreuse_data = stats.counter("l2.noreuse_flits.data")
        self._c_noreuse_ctrl = stats.counter("l2.noreuse_flits.ctrl")
        self._c_put_acks = stats.counter("l2.put_acks")
        net.register(tile, "l2", self.handle)
        self._probes = sim.probes.bind("l2", self)

    # ------------------------------------------------------------------
    # access path (from L1 / prefetchers / SE_core)
    # ------------------------------------------------------------------
    def access(self, req: L2Request) -> None:
        """Look up ``req.addr``; respond through ``req.on_done``."""
        base = req.addr & _LINE_MASK
        slot = self.array.lookup(base)
        state = self.state
        if slot is not None and not (req.is_write and state[slot] == S_CODE):
            # Plain hit (writes need M/E; E upgrades to M silently).
            self._c_hits[0] += 1
            self._uses[slot] += 1
            if req.is_write:
                state[slot] = M_CODE
                self._dirty[slot] = 1
            sid = self._stream_ids[slot]
            if sid != _NO_STREAM and self.on_stream_reuse:
                self.on_stream_reuse(sid)
            if req.floating and self.se_l2 is not None:
                # Data unexpectedly cached: tell SE_L2 to advance past
                # this element (SS IV-A).
                self.se_l2.on_cache_hit(req.stream_id, req.element)
            self._respond(req)
            return

        self._c_misses[0] += 1
        if req.floating and self.se_l2 is not None:
            # The element belongs to a floated stream: the SE_L2 stream
            # buffer owns the data; never escalate to the L3.
            self.sim.schedule(
                self.latency, self.se_l2.intercept, req,
            )
            return
        if self.prefetcher is not None and not req.prefetch:
            for pf_addr in self.prefetcher.on_access(req.op_id, base, hit=False):
                self._issue_prefetch(pf_addr)
        self._miss(req, slot)

    PREFETCH_MSHR_RESERVE = 4  # MSHRs kept free for demand misses

    def _issue_prefetch(self, addr: int) -> None:
        base = addr & _LINE_MASK
        if self.array.contains(base) or self.mshr.lookup(base) is not None:
            return
        if len(self.mshr) >= self.mshr.capacity - self.PREFETCH_MSHR_RESERVE:
            self.stats.add("l2.prefetch_dropped")
            return
        self.stats.add("l2.prefetch_issued")
        self._miss(L2Request(addr=base, prefetch=True), None)

    def _miss(self, req: L2Request, slot: Optional[int]) -> None:
        """Send the miss to the home bank, or park it. ``slot`` is the
        line's slot on a write hit in S. ``via`` names how it left the
        L2 for the l2_miss probe: "gets"/"getx"/"bulk" sent to the
        bank, "merge" rode an in-flight MSHR entry,
        "overflow"/"prefetch_drop" parked or dropped here."""
        base = req.addr & _LINE_MASK
        upgrade = slot is not None  # write hit in S: needs GetX, no fill
        merged = self.mshr.lookup(base)
        if merged is not None:
            via = "merge"
            merged.is_write = merged.is_write or req.is_write
            if req.on_done is not None:
                merged.waiters.append(req)
        elif self.mshr.full:
            if req.prefetch:
                via = "prefetch_drop"
                self.stats.add("l2.prefetch_dropped")
                if req.on_done is not None:
                    # Tell the L1 so it releases its own MSHR entry.
                    self.sim.schedule(1, req.on_done,
                                      L2AccessResult(dropped=True))
            else:
                via = "overflow"
                self._overflow.append(req)
        else:
            entry = self.mshr.allocate(base, self.sim.now)
            entry.is_write = req.is_write
            if req.on_done is not None:
                entry.waiters.append(req)
            entry.meta["stream_id"] = req.stream_id
            entry.meta["upgrade"] = upgrade
            entry.meta["req_flits"] = 0
            op = "GetX" if req.is_write else "GetS"
            home = self.nuca.bank_of(base)
            source = "core_stream" if req.stream_id is not None else "core"
            msg = CohMsg(op=op, addr=base, requester=self.tile, source=source)
            if self.bulk is not None and req.prefetch and op == "GetS":
                via = "bulk"
                self.bulk.enqueue(home, msg, entry)
            else:
                via = "getx" if req.is_write else "gets"
                info = self.net.send(Packet(
                    self.tile, home, CTRL, control_payload_bits(), "l3",
                    body=msg,
                ))
                entry.meta["req_flits"] = info.flits
        p = self._probes.l2_miss
        if p is not None:
            p(self, req, base, merged is None, via)

    # ------------------------------------------------------------------
    # network ingress
    # ------------------------------------------------------------------
    def handle(self, pkt: Packet) -> None:
        msg: CohMsg = pkt.body
        op = msg.op
        if op == "Data":
            self._data(pkt, msg)
        elif op == "Inv":
            self._inv(msg)
        elif op == "InvAck":
            self.stats.add("l2.inv_acks")
        elif op == "PutAck":
            self._c_put_acks[0] += 1
        elif op in ("FwdGetS", "FwdGetX", "FwdGetU"):
            self._forward(pkt, msg)
        else:
            raise ValueError(f"L2 got unexpected op {op!r}")

    def _data(self, pkt: Packet, msg: CohMsg) -> None:
        base = msg.addr & _LINE_MASK
        entry = self.mshr.release(base)
        resp_flits = self._resp_flits
        if entry.meta["upgrade"]:
            slot = self.array.lookup(base, touch=False)
            if slot is not None:
                self.state[slot] = _CODES[msg.grant]
                if msg.grant == MODIFIED:
                    self._dirty[slot] = 1
            else:
                self._fill(base, msg, entry, resp_flits)
        else:
            self._fill(base, msg, entry, resp_flits)
        for waiter in entry.waiters:
            self._respond(waiter, delay=0)
        self._drain_overflow()
        p = self._probes.l2_data
        if p is not None:
            p(self, base, pkt.src)

    def _fill(self, base: int, msg: CohMsg, entry, resp_flits: int) -> None:
        state = msg.grant or SHARED
        meta = entry.meta
        slot, evicted, evicted_dirty = self.array.fill(
            base, dirty=state == MODIFIED, avoid=self._avoid_inflight,
        )
        uses = self._uses
        stream_ids = self._stream_ids
        fill_flits = self._fill_flits
        fill_flits_ctrl = self._fill_flits_ctrl
        if evicted is not None:
            # Read the victim's fields before the new line's replace them.
            victim = (evicted, evicted_dirty, uses[slot], stream_ids[slot],
                      fill_flits[slot], fill_flits_ctrl[slot])
        sid = meta["stream_id"] if "stream_id" in meta else None
        self.state[slot] = _CODES[state]
        uses[slot] = 0
        stream_ids[slot] = _NO_STREAM if sid is None else sid
        fill_flits[slot] = resp_flits
        fill_flits_ctrl[slot] = meta["req_flits"] if "req_flits" in meta else 0
        if evicted is not None:
            self._evict(*victim)

    def _drain_overflow(self) -> None:
        while self._overflow and not self.mshr.full:
            req = self._overflow.pop(0)
            self.access(req)

    # ------------------------------------------------------------------
    # evictions (the Figure 2 measurements live here)
    # ------------------------------------------------------------------
    def _evict(self, base: int, dirty: bool, uses: int, stream_id: int,
               fill_flits: int, fill_flits_ctrl: int) -> None:
        """Evict line ``base``, which a fill displaced: write it back
        (PutM) or drop it (PutS), and classify it for Figure 2 by the
        fields it held."""
        if self.on_l1_invalidate:
            self.on_l1_invalidate(base)
        self._c_evictions[0] += 1
        evict_flits_ctrl = 0
        evict_flits_data = 0
        home = self.nuca.bank_of(base)
        if dirty and self.se_l2 is not None:
            # SS IV-E (second window): a dirty eviction may alias a
            # buffered floating-stream element.
            self.se_l2.on_dirty_evict(base)
        if dirty:
            info = self.net.send(Packet(
                self.tile, home, DATA, data_payload_bits(LINE_SIZE), "l3",
                body=CohMsg(op="PutM", addr=base, requester=self.tile),
            ))
            evict_flits_data = info.flits
        else:
            info = self.net.send(Packet(
                self.tile, home, CTRL, control_payload_bits(), "l3",
                body=CohMsg(op="PutS", addr=base, requester=self.tile),
            ))
            evict_flits_ctrl = info.flits
        # --- Figure 2a/2b classification ---
        no_reuse = uses == 0 and not dirty
        if no_reuse:
            self._c_noreuse[0] += 1
            if stream_id != _NO_STREAM:
                self._c_noreuse_stream[0] += 1
            # A cell folds only non-zero deltas, but Stats.add(name, 0)
            # creates the key. The data amount is zero for a line filled
            # outside _fill (test rigs do so); the control amount counts
            # the PutS just sent, so it never is.
            data = fill_flits + evict_flits_data
            if data:
                self._c_noreuse_data[0] += data
            else:
                self.stats.add("l2.noreuse_flits.data", 0)
            self._c_noreuse_ctrl[0] += fill_flits_ctrl + evict_flits_ctrl

    def _inv(self, msg: CohMsg) -> None:
        base = msg.addr & _LINE_MASK
        dirty = self.array.invalidate(base)
        if self.on_l1_invalidate:
            self.on_l1_invalidate(base)
        self.stats.add("l2.invalidated")
        if dirty is None:
            return
        if dirty and msg.writeback_to_dram:
            # LLC back-invalidation of an M-state line: the bank no
            # longer homes it, write straight to memory.
            # (Requires a DramSystem mapping; use home-bank relay when
            # unavailable.)
            self.net.send(Packet(
                self.tile, self.nuca.bank_of(base), DATA,
                data_payload_bits(LINE_SIZE), "l3",
                body=CohMsg(op="PutM", addr=base, requester=self.tile),
            ))
        elif not msg.writeback_to_dram:
            self.net.send(Packet(
                self.tile, msg.requester, CTRL, control_payload_bits(), "l2",
                body=CohMsg("InvAck", base, self.tile),
            ))

    def _forward(self, pkt: Packet, msg: CohMsg) -> None:
        base = msg.addr & _LINE_MASK
        slot = self.array.lookup(base, touch=False)
        if slot is None:
            # We no longer hold the line (our PutS/PutM is in flight):
            # nack so the bank clears the stale ownership and retries.
            # Note the bank's grant-then-forward sequence cannot race
            # us, because the NoC is FIFO per route: a Data response
            # always arrives before a later forward from its bank.
            self.net.send(Packet(
                self.tile, pkt.src, CTRL, control_payload_bits(), "l3",
                body=CohMsg(op="FwdMiss", addr=base, requester=self.tile),
            ))
            return
        down_op = "DownDataU" if msg.op == "FwdGetU" else "DownData"
        self.net.send(Packet(
            self.tile, pkt.src, DATA, data_payload_bits(msg.data_bytes), "l3",
            body=CohMsg(op=down_op, addr=base, requester=msg.requester),
        ))
        if msg.op == "FwdGetS":
            self.state[slot] = S_CODE
            self._dirty[slot] = 0
            if self.on_l1_downgrade:
                self.on_l1_downgrade(base)
        elif msg.op == "FwdGetX":
            self.array.invalidate(base)
            if self.on_l1_invalidate:
                self.on_l1_invalidate(base)
        # FwdGetU: no state change (Fig 12c).

    # ------------------------------------------------------------------
    def state_of(self, addr: int) -> str:
        """The MESI state of ``addr``'s line here, as its letter:
        ``INVALID`` when the L2 does not hold it."""
        slot = self.array.lookup(addr, touch=False)
        return INVALID if slot is None else STATES[self.state[slot]]

    def _respond(self, req: L2Request, delay: Optional[int] = None) -> None:
        if req.on_done is None:
            return
        lat = self.latency if delay is None else delay
        self.sim.schedule(lat, req.on_done, L2AccessResult())
