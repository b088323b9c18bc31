"""Runtime invariant sanitizer for the simulated chip.

A pluggable checking layer on the shared
:class:`~repro.sim.kernel.Simulator`.  Attached (``Sanitizer(sim)``
on a simulator; the ``sanitize`` run parameter of
:mod:`repro.harness.runner`, which the CLI's ``--sanitize`` sets; or
the tier-1 pytest autouse fixture) it subscribes to the model's
probes and validates protocol invariants *while the simulation runs*,
so bugs surface at the cycle they happen instead of as corrupted stats
thousands of events later.

Checkers (DESIGN.md §7):

- **S1 MESI single-writer / directory agreement** — after every
  coherence-carrying delivery and L3 transaction step: at most one L2
  holds a line in M/E; M/E never coexists with S copies unless an
  invalidation is in flight to the sharer; an L1 ``writable`` hint is
  always backed by L2 write permission; at quiescence the directory
  and the private caches agree exactly.
- **S2 MSHR watchdog** — no MSHR entry outstanding longer than
  ``MSHR_AGE_BOUND`` cycles; every file empty at drain.
- **S3 NoC conservation** — every injected packet is eventually
  ejected (per-packet age bound while in flight, injected == delivered
  and zero in-flight at drain).
- **S4 floated-stream lifetime and credits** — every stream floated
  by an SE_L2 is ended or dropped exactly once across the SE_L3s;
  credits consumed by the issue units never exceed credits granted;
  confluence multicast fan-out stays within one 2x2 block and the
  group-size cap; no SE_L3 retains streams, pending credits or
  confluence groups at drain.
- **S5 determinism trace** — a rolling CRC over the (cycle,
  event-name) trace, exposed as the ``sanitizer.trace_hash`` stat so
  the harness can compare runs across ``--jobs`` values.

Violations raise :class:`SanitizerError` carrying the cycle, tile and
offending object.  Without a sanitizer nothing subscribes, so every
probe (:mod:`repro.obs.probes`) costs one attribute test and no call.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.mem.addr import line_addr
from repro.mem.cache import EXCLUSIVE, INVALID, MODIFIED, SHARED


class S5Trace:
    """Rolling CRC32 over the (cycle, handler-name) dispatch stream.

    The one S5 hash: the sanitizer's ``trace_hash`` stat and the
    tests' divergence recorder (``tests/sim/divergence.py``) both feed
    it from the kernel's ``dispatch`` probe. Each callable hashes under
    its own ``__qualname__``; ``tests/sim/golden_s5.json`` pins the
    result on fourteen points (``tests/sim/s5_pins.py``).
    """

    __slots__ = ("crc", "events")

    def __init__(self) -> None:
        self.crc = 0
        self.events = 0

    def update(self, when: int, fn: Any) -> str:
        """Hash one dispatch; returns the name it was hashed under."""
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        self.crc = zlib.crc32(b"%d|%s" % (when, name.encode()), self.crc)
        self.events += 1
        return name


class SanitizerError(AssertionError):
    """A runtime invariant violation.

    Carries the failed check's id (``"S1"``..``"S5"``), the simulation
    cycle, the tile (when attributable) and the offending object.
    """

    def __init__(
        self,
        check: str,
        message: str,
        cycle: int,
        tile: Optional[int] = None,
        obj: Any = None,
    ) -> None:
        self.check = check
        self.cycle = cycle
        self.tile = tile
        self.obj = obj
        detail = f"[{check}] cycle {cycle}"
        if tile is not None:
            detail += f" tile {tile}"
        detail += f": {message}"
        if obj is not None:
            detail += f" ({obj!r})"
        super().__init__(detail)


class Sanitizer:
    """Invariant checkers hanging off one :class:`Simulator`.

    Attach before the first event runs, before or after assembly: it
    registers each component from the ``built`` probe (which replays
    those already bound), so both full :class:`~repro.system.chip.Chip`
    assemblies and the bare component rigs in the unit tests get
    coverage.
    """

    # Watchdog bounds (cycles). Generous: the deepest legitimate wait
    # is an L3 miss behind a congested DRAM queue, a few thousand
    # cycles even in the stress configurations.
    MSHR_AGE_BOUND = 200_000
    NOC_AGE_BOUND = 200_000
    # Periodic scans piggyback on the event loop every N events (a
    # self-rescheduling watchdog event would keep the queue non-empty
    # and break the chip's drain loop).
    SCAN_PERIOD = 4096

    def __init__(self, sim) -> None:
        self.sim = sim
        sim.sanitizer = self
        self.violations = 0
        self._s5 = S5Trace()
        # Component registries.
        self._l1s: Dict[int, Any] = {}
        self._l2s: Dict[int, Any] = {}
        self._banks: Dict[int, Any] = {}
        self._se_l2s: Dict[int, Any] = {}
        self._se_l3s: Dict[int, Any] = {}
        self._mshrs: List[Tuple[str, int, Any]] = []
        # S3 packet conservation: id(packet) -> (packet, injection
        # cycle). The entry holds the packet, so its id cannot be
        # reused while it is in flight.
        self._in_flight: Dict[int, Tuple[Any, int]] = {}
        self._injected = 0
        self._delivered = 0
        # S1 transient excuses: (line, dst tile) -> in-flight Inv count.
        self._invs: Dict[Tuple[int, int], int] = {}
        # S4 lifetime ledgers, keyed per incarnation (tile, sid, epoch);
        # credit ledgers are cumulative per (tile, sid).
        self._floats: Dict[Tuple[int, int, int], int] = {}
        self._terms: Dict[Tuple[int, int, int], int] = {}
        self._granted: Dict[Tuple[int, int], int] = {}
        self._consumed: Dict[Tuple[int, int], int] = {}
        probes = sim.probes
        probes.subscribe("dispatch", self._on_dispatch)
        probes.subscribe("built", self._on_built)
        probes.subscribe("noc_send", self._on_send)
        probes.subscribe("noc_deliver", self._note_delivery)
        probes.subscribe("noc_delivered", self._after_delivery)
        probes.subscribe("l1_writeback", self._check_writeback)
        probes.subscribe("l3_processed", self._after_l3_step)
        probes.subscribe("se_l2_config_sent", self._on_config_sent)
        probes.subscribe("se_l2_credit", self._on_credit)
        probes.subscribe("se_l3_issue", self._on_issue)
        probes.subscribe("se_l3_configure", self._on_configure)
        probes.subscribe("se_l3_retire", self._on_retire)
        probes.subscribe("se_l3_data_ready", self._check_confluence)

    def _on_built(self, role: str, comp) -> None:
        registry = {
            "l1": self._l1s, "l2": self._l2s, "l3": self._banks,
            "se_l2": self._se_l2s, "se_l3": self._se_l3s,
        }.get(role)
        if registry is not None:
            registry[comp.tile] = comp
        if role in ("l1", "l2", "l3"):
            self._mshrs.append((role, comp.tile, comp.mshr))

    # ------------------------------------------------------------------
    # failure reporting
    # ------------------------------------------------------------------
    def _fail(
        self, check: str, message: str, tile: Optional[int] = None, obj: Any = None,
    ) -> None:
        self.violations += 1
        raise SanitizerError(check, message, self.sim.now, tile=tile, obj=obj)

    # ------------------------------------------------------------------
    # S5: determinism trace (+ the periodic scan heartbeat)
    # ------------------------------------------------------------------
    @property
    def trace_hash(self) -> int:
        """CRC32 over the (cycle, event-name) trace so far."""
        return self._s5.crc

    @property
    def trace_events(self) -> int:
        return self._s5.events

    def _on_dispatch(self, when: int, fn) -> None:
        self._s5.update(when, fn)
        if self._s5.events % self.SCAN_PERIOD == 0:
            self._periodic_scan()

    def _periodic_scan(self) -> None:
        now = self.sim.now
        for label, tile, mshr in self._mshrs:
            age = mshr.oldest_age(now)
            if age > self.MSHR_AGE_BOUND:
                self._fail(
                    "S2",
                    f"{label} MSHR entry outstanding for {age} cycles "
                    f"(bound {self.MSHR_AGE_BOUND})",
                    tile=tile, obj=mshr.outstanding()[:4],
                )
        for pkt, injected_at in self._in_flight.values():
            age = now - injected_at
            if age > self.NOC_AGE_BOUND:
                self._fail(
                    "S3",
                    f"packet in flight for {age} cycles without delivery",
                    obj=pkt,
                )

    # ------------------------------------------------------------------
    # S3: NoC conservation (+ the S1 Inv excuse bookkeeping)
    # ------------------------------------------------------------------
    def _on_send(self, packet, when: int) -> None:
        self._in_flight[id(packet)] = (packet, self.sim.now)
        self._injected += 1
        body = packet.body
        if getattr(body, "op", None) == "Inv":
            key = (line_addr(body.addr), packet.dst)
            self._invs[key] = self._invs.get(key, 0) + 1

    def _note_delivery(self, handler, pkt) -> None:
        if self._in_flight.pop(id(pkt), None) is None:
            self._fail(
                "S3", "packet delivered but never tracked as injected",
                tile=pkt.dst, obj=pkt,
            )
        self._delivered += 1

    def _after_delivery(self, handler, pkt) -> None:
        body = pkt.body
        addr = getattr(body, "addr", None)
        if getattr(body, "op", None) == "Inv":
            key = (line_addr(addr), pkt.dst)
            n = self._invs.get(key, 0)
            if n <= 1:
                self._invs.pop(key, None)
            else:
                self._invs[key] = n - 1
        if pkt.dst_port == "l2" and addr is not None:
            self._check_line(line_addr(addr))

    # ------------------------------------------------------------------
    # S1: MESI single-writer / directory agreement
    # ------------------------------------------------------------------
    def _check_writeback(self, l1, addr: int) -> None:
        """A dirty L1 victim may only fold into an L2 line it owns."""
        state = l1.l2.state_of(addr)
        if state not in (MODIFIED, EXCLUSIVE, INVALID):
            self._fail(
                "S1",
                f"dirty L1 writeback folds into L2 line {addr:#x} "
                f"without write permission (state {state!r})",
                tile=l1.tile,
            )

    def _after_l3_step(self, bank, msg) -> None:
        if msg.op not in ("GetU", "MemRead"):
            self._check_line(line_addr(msg.addr))

    def _check_line(self, base: int) -> None:
        """Cross-tile snapshot invariants for one line."""
        writers = []
        sharers = []
        for tile, l2 in self._l2s.items():
            state = l2.state_of(base)
            if state in (MODIFIED, EXCLUSIVE):
                writers.append(tile)
            elif state == SHARED:
                sharers.append(tile)

        def excused(tile: int) -> bool:
            # An Inv in flight to the tile makes its stale copy legal.
            return self._invs.get((base, tile), 0) > 0

        if len(writers) > 1:
            unexcused = [t for t in writers if not excused(t)]
            if len(unexcused) > 1:
                self._fail(
                    "S1",
                    f"line {base:#x} has multiple M/E owners {writers}",
                    obj=tuple(writers),
                )
        if writers and sharers:
            for tile in sharers:
                if not excused(tile):
                    self._fail(
                        "S1",
                        f"line {base:#x} in M/E at {writers} while still "
                        f"shared at tile {tile} with no Inv in flight",
                        tile=tile,
                    )
        for tile, l1 in self._l1s.items():
            slot = l1.array.lookup(base, touch=False)
            if slot is None:
                continue
            l2 = self._l2s.get(tile)
            backing = l2.state_of(base) if l2 else INVALID
            if backing == INVALID:
                self._fail(
                    "S1",
                    f"L1 line {base:#x} not backed by the inclusive L2",
                    tile=tile,
                )
            elif l1.writable[slot] and backing not in (MODIFIED, EXCLUSIVE):
                self._fail(
                    "S1",
                    f"L1 writable hint for {base:#x} without L2 write "
                    f"permission (L2 state {backing!r})",
                    tile=tile,
                )

    # ------------------------------------------------------------------
    # S4: floated-stream lifetime and credit accounting
    # ------------------------------------------------------------------
    def _on_config_sent(self, se, stream) -> None:
        # One ledger entry per incarnation (tile, sid, epoch) that
        # reaches an SE_L3: each must be ended or dropped exactly once
        # there. Pure-L2 plan floats never configure an SE_L3 and stay
        # out of the ledger; a deferred config enters it at send time
        # with every credit granted so far.
        ikey = (se.tile, stream.sid, stream.epoch)
        if ikey in self._floats:
            self._fail(
                "S4", f"stream incarnation {ikey} configured twice",
                tile=se.tile, obj=ikey,
            )
        self._floats[ikey] = 1
        key = (se.tile, stream.sid)
        self._granted[key] = (
            self._granted.get(key, 0) + stream.granted - stream.l3_start
        )

    def _on_credit(self, se, stream, count: int) -> None:
        key = (se.tile, stream.sid)
        self._granted[key] = self._granted.get(key, 0) + count

    def _on_issue(self, se, members, count: int) -> None:
        for member in members:
            self._consume(member.key, count, se.tile)

    def _on_configure(self, se, body, start_idx: int, migrated: bool,
                      verdict: str) -> None:
        if verdict in ("stale", "rejected"):
            # The incoming incarnation was not installed: it dies here.
            self._terminate(
                (body.requester, body.spec.sid, body.epoch), se.tile,
            )

    def _on_retire(self, se, stream) -> None:
        self._terminate(
            (stream.requester, stream.spec.sid, stream.epoch), se.tile,
        )

    def _check_confluence(self, se, participants) -> None:
        if len(participants) > se.MAX_GROUP:
            self._fail(
                "S4",
                f"confluence fan-out {len(participants)} exceeds the "
                f"group cap {se.MAX_GROUP}",
                tile=se.tile, obj=[m.key for m in participants],
            )
        tiles = [m.requester for m in participants]
        if len(set(tiles)) != len(tiles):
            self._fail(
                "S4", "duplicate requester tile in confluence multicast",
                tile=se.tile, obj=tiles,
            )
        if len(participants) > 1:
            blocks = {se.mesh.block_of(t, se.BLOCK) for t in tiles}
            if len(blocks) > 1:
                self._fail(
                    "S4",
                    f"confluence group spans tile blocks {sorted(blocks)}",
                    tile=se.tile, obj=tiles,
                )

    def _terminate(self, ikey, tile: int) -> None:
        """Record the death of incarnation ``(tile, sid, epoch)``."""
        if ikey not in self._floats:
            return  # configured outside a watched SE_L2 (bare-rig tests)
        n = self._terms.get(ikey, 0) + 1
        self._terms[ikey] = n
        if n > 1:
            self._fail(
                "S4",
                f"stream incarnation {ikey} ended/dropped {n} times",
                tile=tile, obj=ikey,
            )

    def _consume(self, key, count: int, tile: int) -> None:
        if key not in self._granted:
            return
        consumed = self._consumed.get(key, 0) + count
        self._consumed[key] = consumed
        if consumed > self._granted[key]:
            self._fail(
                "S4",
                f"stream {key} consumed {consumed} credits but only "
                f"{self._granted[key]} were granted",
                tile=tile, obj=key,
            )

    # ------------------------------------------------------------------
    # quiescence checks (from Chip.run after the final drain)
    # ------------------------------------------------------------------
    def final_check(self) -> None:
        """Strict invariants that only hold once the event queue has
        drained: exact directory agreement, empty MSHRs, zero packets
        in flight, no stream state left anywhere."""
        for label, tile, mshr in self._mshrs:
            if len(mshr):
                self._fail(
                    "S2",
                    f"{label} MSHR file not empty at drain",
                    tile=tile, obj=mshr.outstanding(),
                )
        if self._in_flight:
            self._fail(
                "S3",
                f"{len(self._in_flight)} packets injected but never "
                "delivered",
                obj=[pkt for pkt, _ in list(self._in_flight.values())[:4]],
            )
        if self._injected != self._delivered:
            self._fail(
                "S3",
                f"packet conservation broken: {self._injected} injected, "
                f"{self._delivered} delivered",
            )
        if self._invs:
            self._fail(
                "S1", "invalidations still marked in flight at drain",
                obj=dict(self._invs),
            )
        self._final_directory_check()
        self._final_stream_check()

    def _final_directory_check(self) -> None:
        for btile, bank in self._banks.items():
            for base, ent in bank.dir.items():
                for tile in ent.holders():
                    l2 = self._l2s.get(tile)
                    if l2 is None or l2.state_of(base) == INVALID:
                        self._fail(
                            "S1",
                            f"directory lists tile {tile} for {base:#x} but "
                            "its L2 does not hold the line",
                            tile=btile, obj=ent,
                        )
                if ent.owner is not None:
                    l2 = self._l2s.get(ent.owner)
                    state = l2.state_of(base) if l2 else INVALID
                    if state not in (MODIFIED, EXCLUSIVE, INVALID):
                        self._fail(
                            "S1",
                            f"directory owner {ent.owner} of {base:#x} holds "
                            f"it in state {state!r}",
                            tile=btile, obj=ent,
                        )
        for tile, l2 in self._l2s.items():
            if l2.nuca is None:
                break  # bare rig without a NUCA map: skip reverse check
            for base in l2.array.lines():
                bank = self._banks.get(l2.nuca.bank_of(base))
                if bank is None:
                    continue
                ent = bank.dir.peek(base)
                state = l2.state_of(base)
                if ent is None or tile not in ent.holders():
                    self._fail(
                        "S1",
                        f"L2 holds {base:#x} (state {state!r}) "
                        "unknown to its home directory",
                        tile=tile,
                    )
                elif state in (MODIFIED, EXCLUSIVE) and ent.owner != tile:
                    self._fail(
                        "S1",
                        f"L2 holds {base:#x} in {state!r} but the "
                        f"directory owner is {ent.owner}",
                        tile=tile, obj=ent,
                    )
        for tile, l1 in self._l1s.items():
            l2 = self._l2s.get(tile)
            if l2 is None:
                continue
            for base in l1.array.lines():
                if not l2.array.contains(base):
                    self._fail(
                        "S1",
                        f"L1 line {base:#x} missing from the inclusive "
                        "L2",
                        tile=tile,
                    )

    def _final_stream_check(self) -> None:
        for tile, se in self._se_l3s.items():
            if se.streams:
                self._fail(
                    "S4", "floated streams still resident at drain",
                    tile=tile, obj=sorted(se.streams),
                )
            if se.pending_credits:
                self._fail(
                    "S4", "credits still parked at drain",
                    tile=tile, obj=dict(se.pending_credits),
                )
            if se.groups:
                self._fail(
                    "S4", "confluence group leaked at drain",
                    tile=tile, obj=se.groups,
                )
        for tile, se in self._se_l2s.items():
            for sid, stream in se.streams.items():
                if stream.waiters or stream.child_waiters:
                    self._fail(
                        "S4",
                        f"SE_L2 stream {sid} still has waiters at drain",
                        tile=tile, obj=stream.waiters,
                    )
        for ikey in self._floats:
            if self._terms.get(ikey, 0) != 1:
                self._fail(
                    "S4",
                    f"stream incarnation {ikey} floated but was "
                    f"ended/dropped {self._terms.get(ikey, 0)} times",
                    obj=ikey,
                )
