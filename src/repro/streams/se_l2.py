"""L2-side stream engine (SE_L2, Figure 9).

The requesting tile's SE_L2:

- forwards float configurations to the home L3 bank of the stream's
  first element (after translating through the L2 TLB);
- buffers DataU responses from remote SE_L3s in an address-tagged
  stream buffer (the data is *not* cached — SS V-A);
- intercepts the core's floating-stream requests that miss in the
  private caches and answers them from the buffer;
- runs the coarse-grained credit protocol: credits return to the
  current bank only once half the buffer share has been freed,
  amortizing flow-control messages (SS IV-A);
- watches dirty L2 evictions for aliasing with buffered stream data,
  sinking the stream when found (SS IV-E, second window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mem.addr import LINE_SIZE, NucaMap, line_addr
from repro.mem.l2 import L2AccessResult, L2Cache, L2Request
from repro.mem.tlb import Tlb
from repro.noc.message import STREAM, Packet
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.streams.isa import StreamSpec
from repro.streams.messages import (
    Credit,
    EndAck,
    EndStream,
    FloatConfig,
    StreamInv,
)
from repro.streams.pattern import AffinePattern
from repro.streams.plan import L2, L3, FloatPlan

_LINE_MASK = ~(LINE_SIZE - 1)  # line_addr(), inlined for the hot paths


@dataclass
class Follower:
    """A constant-offset shifted copy of a floated stream (SS IV-B).

    Follower element ``i`` reads the leader's element ``i - delta``
    (``delta > 0``: the leader runs ahead). Only the leader fetches
    from the L3 — this is the stencil-reuse optimization that keeps
    A[i-1], A[i], A[i+1] from tripling floated traffic.
    """

    spec: StreamSpec
    delta: int
    consumed: int = 0


@dataclass
class BufferedStream:
    """Stream-buffer state for one floated stream."""

    spec: StreamSpec
    children: List[StreamSpec]
    capacity: int  # buffer share, in elements (credits granted at once)
    granted: int  # total credits handed to the SE_L3 side
    start_idx: int = 0  # first element the floated stream covers
    last_bank: int = 0  # bank that last sent us data (credit target)
    visited_banks: set = field(default_factory=set)  # for SS V-B dealloc
    ready: set = field(default_factory=set)
    served_by_cache: set = field(default_factory=set)
    waiters: Dict[int, List[L2Request]] = field(default_factory=dict)
    pending_free: int = 0
    child_ready: Dict[int, set] = field(default_factory=dict)  # sid -> idx set
    child_waiters: Dict[Tuple[int, int], List[L2Request]] = field(default_factory=dict)
    # Constant-offset reuse (SS IV-B):
    followers: Dict[int, Follower] = field(default_factory=dict)  # sid -> f
    consumed_leader: int = 0
    freed_through: int = 0
    # Incarnation counter (a sid can sink and re-float): stamped on
    # every config/credit/end message so SE_L3s can drop stale ones.
    epoch: int = 0
    # idx -> line base of element idx; the pattern is immutable for the
    # life of this buffered incarnation, so the dirty-evict alias scan
    # (on_dirty_evict) memoizes instead of re-evaluating the pattern
    # for every buffered element on every eviction.
    line_memo: Dict[int, int] = field(default_factory=dict)
    # Per-range float plan state (streams/plan.py). Classic floats:
    # plan None, l3_start == start_idx, config sent immediately.
    plan: Optional[FloatPlan] = None
    l3_start: Optional[int] = None  # first SE_L3-served element
    l3_limit: int = 0  # end (exclusive) of the SE_L3 range
    pending_config: bool = False  # config deferred until consumer nears
    config_sent: bool = False
    # L2-prefetch range cursor ([l2_next, l2_end) still to fetch).
    l2_next: int = 0
    l2_end: int = 0
    l2_inflight: int = 0

    @property
    def sid(self) -> int:
        return self.spec.sid

    def releasable_through(self) -> int:
        """Last element (exclusive) no consumer still needs."""
        through = self.consumed_leader
        for f in self.followers.values():
            through = min(through, f.consumed - f.delta)
        return through


class SEL2:
    """Stream engine at the private L2 (SS IV-A, Figure 9)."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        stats: Stats,
        tile: int,
        l2: L2Cache,
        nuca: NucaMap,
        buffer_bytes: int = 16 * 1024,
        stream_grain_coherence: bool = False,
        tlb: Optional[Tlb] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.stats = stats
        self.tile = tile
        self.l2 = l2
        self.nuca = nuca
        self.buffer_bytes = buffer_bytes
        self.stream_grain_coherence = stream_grain_coherence
        self.tlb = tlb or Tlb(entries=2048, hit_latency=8)
        self.streams: Dict[int, BufferedStream] = {}
        # sid -> (buffered stream, role) for every sid that resolves:
        # leaders, their indirect children, and followers. Kept in
        # sync by float/follow/end so the hot lookup is one dict get.
        self._sid_index: Dict[int, Tuple[BufferedStream, str]] = {}
        self._epochs: Dict[int, int] = {}  # sid -> last float epoch
        # Interned counter cells for the per-element hot path.
        self._c_intercepts = stats.counter("se_l2.intercepts")
        self._c_data_arrivals = stats.counter("se_l2.data_arrivals")
        self._c_follower_hits = stats.counter("se_l2.follower_hits")
        self._c_orphan_data = stats.counter("se_l2.orphan_data")
        self._c_credits_sent = stats.counter("se_l2.credits_sent")
        self.se_core = None  # wired by SECore.__init__
        l2.se_l2 = self
        net.register(tile, "se_l2", self.handle)
        self._probes = sim.probes.bind("se_l2", self)

    # ------------------------------------------------------------------
    # floating / termination (SE_core-facing)
    # ------------------------------------------------------------------
    def float_stream(
        self, spec: StreamSpec, start_idx: int, children: List[StreamSpec],
        plan: Optional[FloatPlan] = None,
    ) -> None:
        if plan is None and not children and self._try_follow(spec):
            return
        granule = spec.pattern.elem_size + sum(
            c.pattern.elem_size for c in children
        )
        active = max(1, len(self.streams) + 1)
        capacity = max(2, self.buffer_bytes // granule // active)
        epoch = self._epochs.get(spec.sid, 0) + 1
        self._epochs[spec.sid] = epoch
        l3_start = start_idx if plan is None else plan.first_at(L3)
        if plan is not None and l3_start is not None \
                and l3_start >= spec.length:
            l3_start = None  # the L3 range is empty: pure-L2 plan
        stream = BufferedStream(
            spec=spec, children=list(children),
            capacity=capacity, granted=start_idx + capacity,
            start_idx=start_idx, epoch=epoch,
            plan=plan, l3_start=l3_start, l3_limit=spec.length,
        )
        stream.consumed_leader = start_idx
        stream.freed_through = start_idx
        # Credits chase the L3 range's first element (== start_idx for
        # classic floats).
        anchor = l3_start if l3_start is not None else start_idx
        stream.last_bank = self.nuca.bank_of(
            spec.pattern.address(min(anchor, spec.length - 1))
        )
        for child in children:
            stream.child_ready[child.sid] = set()
        self.streams[spec.sid] = stream
        self._sid_index[spec.sid] = (stream, "leader")
        for child in children:
            self._sid_index[child.sid] = (stream, "child")
        self.stats.add("se_l2.floats")
        if plan is None:
            self._send_config(stream)
            return
        # Plan path: prefetch the L2-level range through the local L2
        # (cacheable; untagged so the stream's own hits don't read as
        # policy reuse), and install the L3 range remotely — now if
        # the consumer is close, deferred until it nears otherwise.
        l2_first = plan.first_at(L2)
        if l2_first is not None:
            stream.l2_next = max(start_idx, l2_first)
            stream.l2_end = min(
                spec.length, plan.run_end(stream.l2_next, spec.length)
            )
            self.stats.add("se_l2.plan_l2_ranges")
            self._pump_l2(stream)
        if l3_start is None:
            # No SE_L3 involvement: no config, credits or EndStream.
            stream.granted = spec.length
            return
        stream.l3_limit = min(
            spec.length, plan.run_end(l3_start, spec.length)
        )
        if stream.granted > l3_start:
            self._send_config(stream)
        else:
            # Midway float: hold the config until the consumer is a
            # buffer's worth away (_free sends it), so the SE_L3
            # never parks an idle stream against admission limits.
            stream.pending_config = True
            self.stats.add("se_l2.deferred_configs")

    def _send_config(self, stream: BufferedStream) -> None:
        """Translate and ship the FloatConfig for the stream's L3
        range (immediate for classic floats, deferred for midway
        plan ranges)."""
        spec = stream.spec
        stream.pending_config = False
        stream.config_sent = True
        first_addr = spec.pattern.address(
            min(stream.l3_start, spec.length - 1)
        )
        translate_cost = self.tlb.translate(first_addr)
        body = FloatConfig(
            spec=spec, children=list(stream.children),
            start_idx=stream.l3_start,
            credits=stream.granted - stream.l3_start,
            requester=self.tile, epoch=stream.epoch, plan=stream.plan,
        )
        self.net.send(Packet(
            src=self.tile, dst=self.nuca.bank_of(first_addr), kind=STREAM,
            payload_bits=body.bits(), dst_port="se_l3", body=body,
        ), extra_delay=translate_cost)
        p = self._probes.se_l2_config_sent
        if p is not None:
            p(self, stream)

    # ------------------------------------------------------------------
    # L2-level plan ranges (prefetch into the stream buffer)
    # ------------------------------------------------------------------
    L2_PREFETCH_INFLIGHT = 4  # concurrent prefetches per stream
    L2_RETRY_CYCLES = 32  # back-off after an MSHR-full drop

    def _pump_l2(self, stream: BufferedStream) -> None:
        """Issue prefetches for the plan's L2 range, windowed to the
        stream's buffer share ahead of the consumer."""
        pattern = stream.spec.pattern
        limit = min(stream.l2_end, stream.freed_through + stream.capacity)
        while (
            stream.l2_inflight < self.L2_PREFETCH_INFLIGHT
            and stream.l2_next < limit
        ):
            idx = stream.l2_next
            count = 1
            cap = limit - idx
            if cap > 1 and isinstance(pattern, AffinePattern):
                count = pattern.line_run_length(idx, cap)
            stream.l2_next = idx + count
            stream.l2_inflight += 1
            self._l2_fetch(stream, idx, count)

    def _l2_fetch(self, stream: BufferedStream, idx: int, count: int) -> None:
        if self.streams.get(stream.sid) is not stream:
            return  # ended/sunk while the fetch was parked
        self.stats.add("se_l2.l2_prefetches")
        req = L2Request(
            addr=stream.spec.pattern.address(idx), prefetch=True,
            on_done=lambda result, s=stream, i=idx, c=count:
                self._l2_fetched(s, i, c, result),
        )
        self.l2.access(req)

    def _l2_fetched(self, stream, idx: int, count: int, result) -> None:
        if self.streams.get(stream.sid) is not stream:
            return
        if result.dropped:
            # MSHR pressure dropped the prefetch: retry later, keeping
            # the in-flight slot so the pump doesn't run away.
            self.sim.schedule(
                self.L2_RETRY_CYCLES, self._l2_fetch, stream, idx, count
            )
            return
        stream.l2_inflight -= 1
        for j in range(idx, idx + count):
            self._parent_data(stream, j)
        self._pump_l2(stream)

    def _try_follow(self, spec: StreamSpec) -> bool:
        """SS IV-B constant-offset reuse: if an already-floated stream
        has the same shape at a small positive offset ahead of this
        one, register this stream as its follower — no config packet,
        no extra L3 fetches."""
        pat = spec.pattern
        if spec.is_indirect or not hasattr(pat, "strides"):
            return False
        stride0 = pat.strides[0]
        if stride0 <= 0:
            return False
        for leader in self.streams.values():
            lpat = leader.spec.pattern
            if leader.spec.is_indirect or leader.children:
                continue
            if (
                getattr(lpat, "strides", None) != pat.strides
                or lpat.lengths != pat.lengths
                or lpat.elem_size != pat.elem_size
            ):
                continue
            diff = lpat.base - pat.base
            if diff <= 0 or diff % stride0:
                continue
            delta = diff // stride0
            if delta > max(1, leader.capacity // 2):
                continue
            leader.followers[spec.sid] = Follower(spec=spec, delta=delta)
            self._sid_index[spec.sid] = (leader, "follower")
            self.stats.add("se_l2.followers")
            p = self._probes.se_l2_follow
            if p is not None:
                p(self, spec, leader)
            return True
        return False

    def end_stream(self, sid: int) -> None:
        # Followers detach without any network traffic.
        for leader in self.streams.values():
            if sid in leader.followers:
                follower = leader.followers.pop(sid)
                self._sid_index.pop(sid, None)
                follower.consumed = leader.spec.length + follower.delta
                self._release(leader)
                return
        hit = self._sid_index.get(sid)
        if hit is not None and hit[1] == "child":
            # An indirect child ended while its parent float stays
            # live (SECore.end ends every floating sid; _sink only
            # ends the parent): detach the child here and tell the
            # SE_L3 to stop chaining it. Previously this fell through
            # to the silent no-op below and leaked the child state.
            self._end_child(hit[0], sid)
            return
        stream = self.streams.pop(sid, None)
        if stream is None:
            return
        self._sid_index.pop(sid, None)
        for child in stream.children:
            self._sid_index.pop(child.sid, None)
        for follower_sid in stream.followers:
            self._sid_index.pop(follower_sid, None)
        self.stats.add("se_l2.ends")
        if self.stream_grain_coherence:
            # SS V-B disadvantage #2: deallocation messages to every
            # bank that still tracks this stream's range data.
            for bank in stream.visited_banks - {stream.last_bank}:
                dealloc = EndStream(requester=self.tile, sid=sid,
                                    epoch=stream.epoch)
                self.stats.add("se_l2.range_deallocs")
                self.net.send(Packet(
                    src=self.tile, dst=bank, kind=STREAM,
                    payload_bits=dealloc.bits(), dst_port="se_l3",
                    body=dealloc,
                ))
        # Send the end packet to the stream's current bank (tracked as
        # the source of its most recent data; SE_L3s forward if the
        # stream migrated meanwhile) — SS IV-A. Pure-L2 plan floats
        # (and deferred configs never sent) have no SE_L3 state to end.
        if stream.config_sent:
            body = EndStream(requester=self.tile, sid=sid,
                             epoch=stream.epoch)
            self.net.send(Packet(
                src=self.tile, dst=stream.last_bank, kind=STREAM,
                payload_bits=body.bits(), dst_port="se_l3", body=body,
            ))
        # Answer any still-waiting core requests through the normal
        # (non-floating) path so nothing deadlocks.
        for idx, reqs in list(stream.waiters.items()):
            for req in reqs:
                self._bounce_to_memory(req)
        for (_sid, _idx), reqs in list(stream.child_waiters.items()):
            for req in reqs:
                self._bounce_to_memory(req)

    def _end_child(self, stream: BufferedStream, sid: int) -> None:
        """Detach one ended indirect child from a still-live float."""
        self._sid_index.pop(sid, None)
        stream.children = [c for c in stream.children if c.sid != sid]
        stream.child_ready.pop(sid, None)
        for key in [k for k in stream.child_waiters if k[0] == sid]:
            for req in stream.child_waiters.pop(key):
                self._bounce_to_memory(req)
        self.stats.add("se_l2.child_ends")
        if stream.config_sent:
            body = EndStream(requester=self.tile, sid=sid,
                             epoch=stream.epoch)
            self.net.send(Packet(
                src=self.tile, dst=stream.last_bank, kind=STREAM,
                payload_bits=body.bits(), dst_port="se_l3", body=body,
            ))

    def _bounce_to_memory(self, req: L2Request) -> None:
        req.floating = False
        self.sim.schedule(0, self.l2.access, req)

    # ------------------------------------------------------------------
    # core request interception
    # ------------------------------------------------------------------
    def _resolve(self, sid: Optional[int]) -> Optional[Tuple[BufferedStream, str]]:
        """Map a stream id to (buffered stream, role): the stream
        itself ("leader"), an indirect child, or a follower."""
        if sid is None:
            return None
        index = self._sid_index
        return index[sid] if sid in index else None

    def _find(self, sid: Optional[int]) -> Optional[BufferedStream]:
        hit = self._resolve(sid)
        return hit[0] if hit else None

    def intercept(self, req: L2Request) -> None:
        """A floating-stream request missed the private caches: serve
        it from the stream buffer (L2 latency already paid)."""
        hit = self._resolve(req.stream_id)
        if hit is None:
            # Stream already ended/sunk: fall back to the memory path.
            self._bounce_to_memory(req)
            return
        stream, role = hit
        self._c_intercepts[0] += 1
        idx = req.element
        if role == "leader":
            if idx < stream.start_idx:
                # A stale in-flight request from before the float (or
                # from a sink/re-float cycle): the SE_L3 will never
                # send this element — use the normal path.
                self._bounce_to_memory(req)
            elif idx in stream.ready or idx < stream.freed_through:
                self._respond(req)
            else:
                stream.waiters.setdefault(idx, []).append(req)
        elif role == "follower":
            leader_idx = idx - stream.followers[req.stream_id].delta
            if leader_idx < stream.start_idx:
                # Elements before the leader's window: normal path.
                self._bounce_to_memory(req)
            elif leader_idx in stream.ready or leader_idx < stream.freed_through:
                self._c_follower_hits[0] += 1
                self._respond(req)
            else:
                stream.waiters.setdefault(leader_idx, []).append(req)
        else:  # indirect child
            if idx < stream.start_idx:
                self._bounce_to_memory(req)
                return
            ready = stream.child_ready.get(req.stream_id, set())
            if idx in ready:
                self._respond(req)
            else:
                stream.child_waiters.setdefault(
                    (req.stream_id, idx), []
                ).append(req)

    def _respond(self, req: L2Request) -> None:
        if req.on_done is not None:
            self.sim.schedule(1, req.on_done, L2AccessResult(uncached=True))

    # ------------------------------------------------------------------
    # network ingress: DataU / EndAck
    # ------------------------------------------------------------------
    def handle(self, pkt: Packet) -> None:
        body = pkt.body
        if isinstance(body, EndAck):
            self.stats.add("se_l2.end_acks")
            return
        if isinstance(body, StreamInv):
            self._stream_inv(body)
            return
        # DataU (CohMsg): possibly a confluence multicast, in which
        # case se_info lists (tile, sid) members — pick ours.
        sid = body.stream_id
        if isinstance(body.se_info, list):
            for tile, member_sid in body.se_info:
                if tile == self.tile:
                    sid = member_sid
                    break
        stream = self._find(sid)
        idx = body.element
        if stream is None:
            self._c_orphan_data[0] += 1
        else:
            self._c_data_arrivals[0] += 1
            if sid == stream.sid:
                # Credits chase the *parent* stream's data source (child
                # sublines come from their own home banks).
                stream.last_bank = pkt.src
                if self.stream_grain_coherence:
                    stream.visited_banks.add(pkt.src)
                if isinstance(idx, tuple):
                    # Coalesced subline elements: one DataU covers a
                    # range.
                    if not stream.waiters and not stream.served_by_cache:
                        # Nothing is waiting on (or pre-served from) any
                        # element: the per-index bookkeeping degenerates
                        # to a bulk set update.
                        stream.ready.update(range(idx[0], idx[1]))
                    else:
                        for i in range(idx[0], idx[1]):
                            self._parent_data(stream, i)
                else:
                    self._parent_data(stream, idx)
            else:
                self._child_data(stream, sid, idx)
        p = self._probes.se_l2_datau
        if p is not None:
            p(self, sid, idx, pkt.src)

    def _parent_data(self, stream: BufferedStream, idx: int) -> None:
        stream.ready.add(idx)
        for req in stream.waiters.pop(idx, []):
            self._respond(req)
        if idx in stream.served_by_cache:
            # The caches already served the core; release bookkeeping
            # recorded the consumption when the hit happened.
            stream.served_by_cache.discard(idx)
            self._release(stream)

    def _child_data(self, stream: BufferedStream, sid: int, idx: int) -> None:
        stream.child_ready.setdefault(sid, set()).add(idx)
        for req in stream.child_waiters.pop((sid, idx), []):
            self._respond(req)

    # ------------------------------------------------------------------
    # consumption, credits
    # ------------------------------------------------------------------
    def on_consumed(self, sid: int, idx: int) -> None:
        """SE_core consumed an element: advance release bookkeeping
        (a slot only frees once every consumer — leader and followers
        — is past it)."""
        hit = self._resolve(sid)
        if hit is None:
            return
        stream, role = hit
        if role == "child":
            # Child elements free with the parent (shared credits).
            stream.child_ready.get(sid, set()).discard(idx)
            return
        if role == "follower":
            follower = stream.followers[sid]
            follower.consumed = max(follower.consumed, idx + 1)
        else:
            stream.consumed_leader = max(stream.consumed_leader, idx + 1)
        self._release(stream)

    def _release(self, stream: BufferedStream) -> None:
        """Free buffer slots no consumer still needs; batch credits."""
        through = min(stream.releasable_through(), stream.spec.length)
        freed = through - stream.freed_through
        if freed <= 0:
            return
        for e in range(stream.freed_through, through):
            stream.ready.discard(e)
        stream.freed_through = through
        if stream.l2_next < stream.l2_end:
            # The prefetch window slid forward with the consumer.
            self._pump_l2(stream)
        self._free(stream, freed)

    def _free(self, stream: BufferedStream, count: int) -> None:
        stream.pending_free += count
        if stream.pending_free * 2 < stream.capacity:
            return
        if stream.l3_start is None:
            return  # pure-L2 plan: no SE_L3 side to grant to
        if stream.granted >= stream.l3_limit:
            return  # the L3 range will finish on current credits
        # Coarse-grained credit return (SS IV-A): half-buffer batches,
        # addressed to the bank of the last *allocated* element — the
        # bank the stream is at (or has migrated through, in which
        # case the SE_L3 forwarding chain routes the credit onward).
        grant = stream.pending_free
        stream.pending_free = 0
        stream.granted += grant
        if stream.pending_config:
            if stream.granted > stream.l3_start:
                # The consumer neared the midway L3 range: install it
                # now, with every credit granted so far.
                self._send_config(stream)
            return
        body = Credit(requester=self.tile, sid=stream.sid, count=grant,
                      epoch=stream.epoch)
        self._c_credits_sent[0] += 1
        self.net.send(Packet(
            self.tile, stream.last_bank, STREAM, body.bits(), "se_l3",
            body=body,
        ))
        p = self._probes.se_l2_credit
        if p is not None:
            p(self, stream, grant)

    def on_cache_hit(self, sid: Optional[int], idx: Optional[int]) -> None:
        """The private caches served a floating element (SS IV-A):
        record the consumption so the slot frees normally; if the
        DataU hasn't arrived yet, remember to drop it on arrival."""
        hit = self._resolve(sid)
        if hit is None or idx is None:
            return
        stream, role = hit
        if role == "follower":
            follower = stream.followers[sid]
            follower.consumed = max(follower.consumed, idx + 1)
        elif role == "leader":
            stream.consumed_leader = max(stream.consumed_leader, idx + 1)
            if idx not in stream.ready and idx >= stream.freed_through:
                stream.served_by_cache.add(idx)
        else:
            return
        self._release(stream)

    def _stream_inv(self, body: StreamInv) -> None:
        """Stream-grain coherence: a remote write hit this stream's
        fetched range — its buffered data is stale, re-execute."""
        self.stats.add("se_l2.stream_invs")
        stream = self.streams.get(body.sid)
        if self.se_core is not None:
            self.se_core.history.record_alias(body.sid)
            core_stream = self.se_core.streams.get(body.sid)
            if core_stream is not None:
                self.se_core._sink(core_stream, reason="stream_inv")
        elif stream is not None:
            # No SE_core attached (test rigs): drop the stream state.
            self.end_stream(body.sid)

    # ------------------------------------------------------------------
    # aliasing (SS IV-E second window)
    # ------------------------------------------------------------------
    def on_dirty_evict(self, addr: int) -> None:
        """A dirty line left the L2: if it overlaps a buffered stream
        element, mark the stream aliased and have the SE_core sink it."""
        base = line_addr(addr)
        for stream in list(self.streams.values()):
            address = stream.spec.pattern.address
            memo = stream.line_memo
            for idx in list(stream.ready) + list(stream.waiters):
                if idx in memo:
                    line = memo[idx]
                else:
                    line = memo[idx] = address(idx) & _LINE_MASK
                if line == base:
                    # Sink this stream, but keep scanning: several
                    # buffered streams can alias the same line.
                    self.stats.add("se_l2.alias_sinks")
                    if self.se_core is not None:
                        self.se_core.history.record_alias(stream.sid)
                        core_stream = self.se_core.streams.get(stream.sid)
                        if core_stream is not None:
                            self.se_core._sink(core_stream,
                                               reason="alias_evict")
                    break
