"""Core-side stream engine (SE_core).

Holds stream definitions after ``stream_cfg``, runs ahead of the core
issuing binding prefetches into stream FIFOs, and owns the
float/sink policy (SS IV-D):

- **Float at configure time** when the stream's known footprint
  already exceeds the private L2.
- **Float from history** when the history table (Table II) shows
  enough requests with no private-cache reuse, a high miss ratio and
  no aliasing stores.
- **Sink** (undo the float) on an aliasing store, or after 8
  consecutive private-cache hits for a floating stream.

Non-floated streams issue normal cacheable requests through the L1
(tagged with their stream id so the caches can report reuse and tag
fills for Figure 2a). Floated streams' requests still check the
L1/L2 tags but are intercepted by the SE_L2 on miss.

Memory ordering: the prefetch element buffer (PEB) is modelled as the
set of issued-but-unconsumed elements; :meth:`notify_store` checks
committed stores against every active load stream's in-flight window,
flushing and re-issuing on an alias hit and marking the stream
aliased (which sinks it and disables further floating).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.mem.l1 import L1Cache, L1Request
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.streams.history import SmartFloatPolicy, StreamHistoryTable
from repro.streams.isa import StreamSpec
from repro.streams.pattern import AffinePattern, IndirectPattern
from repro.streams.plan import CORE, FloatPlan


@dataclass
class CoreStream:
    """Runtime state of one configured stream."""

    spec: StreamSpec
    fifo_elems: int
    next_issue: int = 0
    claimed: int = 0  # elements claimed by core-side stream_loads
    freed: int = 0  # elements delivered to the core (FIFO slots freed)
    ready: set = field(default_factory=set)
    waiters: Dict[int, List[Callable[[], None]]] = field(default_factory=dict)
    floating: bool = False
    float_start: int = 0  # first element the SE_L3 serves
    consecutive_hits: int = 0
    prev_line: int = -1  # last line observed by the policy bookkeeping
    children: List["CoreStream"] = field(default_factory=list)
    parent: Optional["CoreStream"] = None
    addr_range: tuple = (0, 0)
    # Per-range float plan (None: classic all-L3 float from
    # float_start). Elements in the plan's CORE ranges issue through
    # the normal private-cache path even while the stream floats.
    plan: Optional[FloatPlan] = None
    # Snapshots of immutable spec properties (the ``length`` property
    # walks into ``len(pattern)`` on every access — hot in _pump).
    sid: int = field(init=False, default=0)
    length: int = field(init=False, default=0)
    # Batched store-address buffer: ``addresses()`` chunk covering
    # [addr_buf_start, addr_buf_start + len(addr_buf)).
    addr_buf: list = field(init=False, default_factory=list)
    addr_buf_start: int = field(init=False, default=-1)

    def __post_init__(self) -> None:
        self.sid = self.spec.sid
        self.length = self.spec.length

    def ready_through(self) -> int:
        """Highest contiguous ready element index (exclusive)."""
        idx = self.freed
        while idx in self.ready:
            idx += 1
        return idx


class SECore:
    """Stream engine in the core (SS III-B + IV-D)."""

    SINK_HIT_THRESHOLD = 8

    def __init__(
        self,
        sim: Simulator,
        stats: Stats,
        tile: int,
        l1: L1Cache,
        se_l2=None,
        fifo_bytes: int = 1024,
        max_streams: int = 12,
        l2_capacity: int = 256 * 1024,
        float_enabled: bool = False,
        indirect_float_enabled: bool = True,
        history: Optional[StreamHistoryTable] = None,
        float_policy: str = "static",
        plan_enabled: bool = False,
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.tile = tile
        self.l1 = l1
        self.se_l2 = se_l2
        self.fifo_bytes = fifo_bytes
        self.max_streams = max_streams
        self.l2_capacity = l2_capacity
        self.float_enabled = float_enabled
        self.indirect_float_enabled = indirect_float_enabled
        self.history = history or StreamHistoryTable()
        if float_policy not in ("static", "smart"):
            raise ValueError(f"unknown float policy {float_policy!r}")
        self.float_policy = float_policy
        self.policy: Optional[SmartFloatPolicy] = (
            SmartFloatPolicy(self.history, l2_capacity,
                             plan_enabled=plan_enabled)
            if float_policy == "smart" else None
        )
        self.streams: Dict[int, CoreStream] = {}
        self._c_requests = stats.counter("se_core.requests")
        if se_l2 is not None:
            se_l2.se_core = self
        self._probes = sim.probes.bind("se_core", self)

    # ------------------------------------------------------------------
    # configuration (stream_cfg / stream_end)
    # ------------------------------------------------------------------
    def configure(self, specs: List[StreamSpec]) -> None:
        if len(self.streams) + len(specs) > self.max_streams:
            raise RuntimeError(
                f"SE_core supports {self.max_streams} streams; "
                f"{len(self.streams) + len(specs)} configured"
            )
        load_specs = [s for s in specs if s.kind == "load"]
        share = max(1, self.fifo_bytes // max(
            1, sum(s.pattern.elem_size for s in load_specs)
        ))
        for spec in specs:
            stream = CoreStream(spec=spec, fifo_elems=share)
            stream.addr_range = self._range_of(spec)
            self.streams[spec.sid] = stream
            self.stats.add("se_core.streams_configured")
        # Wire indirect children to their parents.
        for spec in specs:
            if spec.parent_sid is not None:
                child = self.streams[spec.sid]
                parent = self.streams[spec.parent_sid]
                child.parent = parent
                parent.children.append(child)
        # Float-at-configure: known-length footprint beyond the L2.
        if self.float_enabled:
            policy = self.policy
            if (
                policy is not None and policy.bank_of is None
                and self.se_l2 is not None
            ):
                policy.bind(self.se_l2.nuca.bank_of, self.tile)
            for spec in specs:
                stream = self.streams[spec.sid]
                if stream.spec.kind != "load" or stream.spec.is_indirect:
                    continue  # indirect streams float with their parent
                if policy is not None:
                    ok, plan, reason = policy.config_decision(
                        stream, self._config_footprint(stream)
                    )
                    if ok:
                        self._float(stream, reason=reason, plan=plan)
                elif self._floats_at_config(stream):
                    self._float(stream, reason="footprint")
        for spec in specs:
            self._pump(self.streams[spec.sid])

    def _range_of(self, spec: StreamSpec) -> tuple:
        pat = spec.pattern
        if isinstance(pat, IndirectPattern):
            # Conservative: the whole target array could be touched.
            # A negative scale walks the target downward from base, so
            # normalize — an inverted (lo, hi) here used to poison the
            # footprint sum below and the notify_store range gate.
            end = pat.base + pat.scale * (max_or(pat.index_array, 0) + 1)
            return (min(pat.base, end), max(pat.base, end))
        lo = hi = pat.base
        for stride, length in zip(pat.strides, pat.lengths):
            span = stride * (length - 1)
            if span >= 0:
                hi += span
            else:
                lo += span
        return (lo, hi + pat.elem_size)

    def _config_footprint(self, stream: CoreStream) -> int:
        footprint = stream.spec.pattern.footprint_bytes()
        for child in stream.children:
            # The gather target range counts toward the footprint.
            lo, hi = self._range_of(child.spec)
            footprint += hi - lo
        return footprint

    def _floats_at_config(self, stream: CoreStream) -> bool:
        if stream.spec.kind != "load" or stream.spec.is_indirect:
            # Indirect streams float with their parent.
            return False
        return self._config_footprint(stream) > self.l2_capacity

    def end(self, sids: List[int]) -> None:
        p = self._probes.se_end
        if p is not None:
            p(self, sids)
        for sid in sids:
            stream = self.streams.pop(sid, None)
            if stream is None:
                continue
            if stream.parent is not None and stream in stream.parent.children:
                # A child ended while its parent float stays live:
                # detach so the parent stops pumping the dead child
                # and the SE_L2 drops its buffered child state.
                stream.parent.children.remove(stream)
            if stream.floating and self.se_l2 is not None:
                self.se_l2.end_stream(sid)
            self.history.reset(sid)

    # ------------------------------------------------------------------
    # floating / sinking
    # ------------------------------------------------------------------
    def _float(
        self, stream: CoreStream, reason: str = "history",
        plan: Optional[FloatPlan] = None,
    ) -> None:
        """Float ``stream``. ``reason`` labels which policy fired
        ("footprint" at configure, "history" from Table II) — it has no
        behavioral effect, but the telemetry provenance pillar records
        it with the decision's input snapshot. ``plan`` (smart+plan
        policy) carries per-range levels; None is the classic float
        from the current element."""
        if stream.floating:
            return
        p = self._probes.se_float_decision
        if p is not None:
            p(self, stream, reason, plan)
        if self.se_l2 is None:
            return
        if plan is not None and stream.children:
            # Chained indirect children have no data source in an
            # L2-level range: indirect floats stay classic.
            plan = None
        if plan is not None:
            plan.delay_until(stream.next_issue)
            first = plan.first_float_elem()
            if first is None:
                return  # degenerated to all-core: nothing floats
            float_start = first
        else:
            float_start = stream.next_issue
        stream.floating = True
        stream.float_start = float_start
        stream.plan = plan
        float_children = (
            stream.children if self.indirect_float_enabled else []
        )
        for child in float_children:
            child.floating = True
            # The SE_L3 chains children from the parent's float point;
            # earlier child elements still use the normal path.
            child.float_start = float_start
        self.stats.add("se_core.floats")
        self.se_l2.float_stream(
            stream.spec,
            start_idx=float_start,
            children=[c.spec for c in float_children],
            plan=plan,
        )
        p = self._probes.se_floated
        if p is not None and stream.floating:
            # (A smart-policy revocation can sink the stream while the
            # SE_L2 prefetches its L2 range.)
            p(self, stream)

    def _sink(self, stream: CoreStream, reason: str = "policy") -> None:
        """Sink ``stream`` (undo its float). ``reason`` labels the
        trigger site ("cache_hits", "alias_store", "context_flush",
        "stream_inv", "alias_evict") for the provenance ledger; it has
        no behavioral effect."""
        if stream.parent is not None:
            # Indirect streams float and sink with their parent.
            was = stream.floating
            self._sink(stream.parent, reason)
            p = self._probes.se_sunk
            if p is not None and was and not stream.floating:
                p(self, stream)
            return
        if not stream.floating:
            return
        p = self._probes.se_sink_decision
        if p is not None:
            p(self, stream, reason)
        stream.floating = False
        stream.plan = None
        for child in stream.children:
            child.floating = False
            child.plan = None
        self.stats.add("se_core.sinks")
        # Start the history over: without this, a still-qualifying
        # history entry would re-float the stream the next cycle and
        # the engine would thrash between floating and sinking. The
        # aliased bit survives the reset (Table II): an aliased
        # stream must not re-float; a revocation cooldown survives
        # for the same reason.
        for s in [stream] + stream.children:
            self.history.carryover_reset(s.sid)
        if self.se_l2 is not None:
            self.se_l2.end_stream(stream.sid)
        p = self._probes.se_sunk
        if p is not None:
            p(self, stream)

    def _revoke(self, stream: CoreStream, reason: str) -> None:
        """Smart policy: undo a demonstrably bad float mid-run and
        start the cooldown that keeps it from re-floating right away.
        ``reason`` names the trigger ("revoke_reuse_burst",
        "revoke_cache_hits", "revoke_alias_density")."""
        if stream.parent is not None:
            self._revoke(stream.parent, reason)
            return
        if not stream.floating or self.policy is None:
            return
        self.stats.add("se_core.revokes")
        for s in [stream] + stream.children:
            ent = self.history.entry(s.sid)
            ent.cooldown = self.policy.COOLDOWN
            ent.revokes += 1
        self._sink(stream, reason=reason)

    def _maybe_float_from_history(self, stream: CoreStream) -> None:
        if (
            not self.float_enabled
            or stream.floating
            or stream.spec.kind != "load"
            or stream.spec.is_indirect
        ):
            return
        if self.policy is not None:
            ok, plan, reason = self.policy.history_decision(stream)
            if ok:
                self._float(stream, reason=reason, plan=plan)
            return
        if self.history.should_float(stream.sid) or any(
            self.history.should_float(c.sid) for c in stream.children
        ):
            self._float(stream)

    def on_stream_reuse(self, sid: int) -> None:
        """L2 hook: a stream-tagged line was reused in the L2."""
        self.history.record_reuse(sid)
        if self.policy is None:
            return
        stream = self.streams.get(sid)
        if stream is None:
            return
        parent = stream.parent or stream
        if (
            parent.floating
            and self.history.entry(sid).w_reuses
            >= self.policy.REVOKE_REUSE_BURST
        ):
            # Reuse burst at the L2: the float is starving a working
            # set the private caches were serving fine.
            self._revoke(parent, "revoke_reuse_burst")

    def flush_floating(self) -> None:
        """Context switch (SS IV-E): discard all floating streams.

        Stream floating adds no architectural state, so switching is
        just sinking every float; on switch-back nothing is floating
        and the policies re-decide from scratch.
        """
        for stream in list(self.streams.values()):
            if stream.floating and stream.parent is None:
                self._sink(stream, reason="context_flush")
        self.stats.add("se_core.context_flushes")

    # ------------------------------------------------------------------
    # issue machinery
    # ------------------------------------------------------------------
    def _pump(self, stream: CoreStream) -> None:
        """Issue requests up to the FIFO run-ahead window.

        Affine parent streams issue at *line-run* granularity: the
        consecutive same-line elements ahead of ``next_issue`` share
        one L1 request (the hardware coalesces subline elements into
        one line fetch anyway). Indirect streams stay per-element —
        each address needs its parent's value.
        """
        if stream.spec.kind != "load":
            return
        limit = min(stream.length, stream.freed + stream.fifo_elems)
        pattern = stream.spec.pattern
        coalesce = stream.parent is None and isinstance(pattern, AffinePattern)
        while stream.next_issue < limit:
            idx = stream.next_issue
            if stream.parent is not None:
                # Indirect: address needs the parent's element value.
                if idx >= stream.parent.ready_through() and not stream.floating:
                    break  # parent data not there yet; re-pumped later
            count = 1
            if coalesce:
                cap = limit - idx
                if stream.floating and idx < stream.float_start:
                    # The floating flag flips at float_start; a request
                    # must not straddle it. (A whole floating run is
                    # fine: same-line elements already rode one L1
                    # MSHR entry and released together pre-coalescing.)
                    cap = min(cap, stream.float_start - idx)
                if stream.floating and stream.plan is not None:
                    # Likewise a request must not straddle a plan
                    # change point (the serving level flips there).
                    edge = stream.plan.next_edge(idx)
                    if edge is not None:
                        cap = min(cap, edge - idx)
                if cap > 1:
                    count = pattern.line_run_length(idx, cap)
            stream.next_issue = idx + count
            self._issue(stream, idx, count=count)

    def _issue(
        self, stream: CoreStream, idx: int, reissue: bool = False,
        count: int = 1,
    ) -> None:
        addr = stream.spec.pattern.address(idx)
        sid = stream.sid
        self._c_requests[0] += count

        if count == 1:
            def on_done() -> None:
                self._element_ready(stream, idx)
        else:
            def on_done() -> None:
                # One line fetch served this many elements; keep the
                # logical event count at element grain.
                self.sim.count_inlined_events(count - 1)
                for j in range(idx, idx + count):
                    self._element_ready(stream, j)

        flo = stream.floating and idx >= stream.float_start
        if flo and stream.plan is not None:
            # Plan CORE ranges issue through the normal path even
            # while the stream floats elsewhere.
            flo = stream.plan.level_at(idx) != CORE
        req = L1Request(
            addr=addr,
            stream_id=sid,
            element=idx,
            floating=flo,
            on_done=on_done,
            count=count,
        )
        # Float/sink policy bookkeeping runs at cache-line grain: the
        # 2nd..16th element of a line is neither a fresh request nor a
        # hit/miss sample (it merges into the same line fetch).
        line = addr >> 6
        if line != stream.prev_line:
            stream.prev_line = line
            self.history.record_request(sid)
            # "Miss" means missing the whole private hierarchy
            # (Table II tracks private-cache misses); secondary misses
            # merged into an in-flight MSHR don't count either.
            hit = (
                self.l1.array.contains(addr)
                or self.l1.mshr.lookup(addr) is not None
                or self.l1.l2.array.contains(addr)
            )
            if not hit:
                self.history.record_miss(sid)
                stream.consecutive_hits = 0
            else:
                stream.consecutive_hits += 1
                if stream.floating:
                    if self.policy is not None:
                        trigger = self.policy.should_revoke(stream)
                        if trigger is not None:
                            self._revoke(stream, trigger)
                    elif stream.consecutive_hits >= self.SINK_HIT_THRESHOLD:
                        # The data is locally cached after all (SS IV-D).
                        self._sink(stream, reason="cache_hits")
        self.l1.access(req)
        if not reissue:
            self._maybe_float_from_history(stream)

    def _element_ready(self, stream: CoreStream, idx: int) -> None:
        stream.ready.add(idx)
        for waiter in stream.waiters.pop(idx, []):
            waiter()
        for child in stream.children:
            self._pump(child)

    # ------------------------------------------------------------------
    # core-side consumption (stream_load / stream_store)
    # ------------------------------------------------------------------
    def consume(self, sid: int, on_ready: Callable[[], None]) -> None:
        """stream_load: claim the next element; ``on_ready`` fires once
        its data is delivered (FIFO slot freed at that point).

        Pipelined iterations may claim ahead of deliveries — each call
        gets a distinct element index.
        """
        stream = self.streams[sid]
        idx = stream.claimed
        stream.claimed = idx + 1

        def deliver() -> None:
            stream.ready.discard(idx)
            stream.freed = max(stream.freed, idx + 1)
            if self.se_l2 is not None and stream.floating:
                self.se_l2.on_consumed(sid, idx)
            self._pump(stream)
            on_ready()

        if idx in stream.ready:
            self.sim.schedule(0, deliver)
        else:
            stream.waiters.setdefault(idx, []).append(deliver)
            # Ensure the element is on its way (e.g. FIFO share 0 edge).
            if stream.next_issue <= idx:
                self._pump(stream)

    ADDR_CHUNK = 64  # elements per addresses() batch

    def store_next(self, sid: int) -> int:
        """stream_store: generate the next store address and advance.

        Store streams walk their pattern strictly sequentially, so the
        address generation is batched: one closed-form ``addresses()``
        call per :data:`ADDR_CHUNK` elements instead of one mixed-radix
        ``address()`` computation per store.
        """
        stream = self.streams[sid]
        idx = stream.claimed
        stream.claimed = idx + 1
        stream.freed = idx + 1
        start = stream.addr_buf_start
        buf = stream.addr_buf
        if start < 0 or not (start <= idx < start + len(buf)):
            pattern = stream.spec.pattern
            count = min(self.ADDR_CHUNK, stream.length - idx)
            if count > 1 and isinstance(pattern, AffinePattern):
                buf = pattern.addresses(idx, count)
            else:
                buf = [pattern.address(idx)]
            stream.addr_buf = buf
            stream.addr_buf_start = start = idx
        return buf[idx - start]

    # ------------------------------------------------------------------
    # memory disambiguation (PEB, SS IV-E)
    # ------------------------------------------------------------------
    def notify_store(self, addr: int, size: int = 8) -> None:
        """A store committed: check it against in-flight stream windows."""
        for stream in list(self.streams.values()):
            if stream.spec.kind != "load":
                continue
            lo, hi = stream.addr_range
            if not (lo <= addr < hi):
                continue
            # Check the precise in-flight (PEB) window.
            aliased = False
            for idx in range(stream.freed, stream.next_issue):
                elem_addr = stream.spec.pattern.address(idx)
                if elem_addr <= addr < elem_addr + stream.spec.pattern.elem_size:
                    aliased = True
                    break
            if not aliased:
                if self.policy is not None:
                    # In-range but outside the in-flight window: a
                    # near-alias. Dense bursts make floating risky —
                    # the smart policy revokes before a real alias
                    # forces the expensive flush below.
                    self.history.record_range_store(stream.sid)
                    if (
                        stream.floating
                        and self.history.entry(stream.sid).w_stores
                        >= self.policy.REVOKE_ALIAS_DENSITY
                    ):
                        self._revoke(stream, "revoke_alias_density")
                continue
            self.stats.add("se_core.alias_flushes")
            self.history.record_alias(stream.sid)
            if stream.floating:
                self._sink(stream, reason="alias_store")
            # Flush the PEB: drop and re-issue unconsumed elements.
            for idx in range(stream.freed, stream.next_issue):
                if idx in stream.ready:
                    stream.ready.discard(idx)
                self._issue(stream, idx, reissue=True)


def max_or(seq, default):
    """Max of a (possibly numpy) sequence with a default for empty."""
    try:
        if len(seq) == 0:
            return default
    except TypeError:
        return default
    return int(max(seq))
