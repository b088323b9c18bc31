"""Cycle accounting: every committed core cycle lands in one bucket.

The accountant (telemetry pillar ``attribution``, DESIGN.md §15)
replays each core's in-order commit front. An iteration's *commit
segment* is the interval between the previous commit point and its
own finish cycle; the segment is attributed to whatever the finishing
iteration was bound on:

- finished by the scheduled compute-completion event → ``compute``;
- finished by a load completion → the load's *journey* (assembled
  from the ``l1_miss``/``l2_miss``/``l3_demand``/``dram``/``l1_fill``
  bus events for its line) splits the segment across
  ``wait_l2`` / ``wait_noc_req`` / ``wait_l3`` / ``wait_dram`` /
  ``wait_noc_resp``; floated-stream elements split into
  ``credit_starve`` (the SE_L3 had not issued the element's GetU
  yet) and ``wait_noc_resp`` (data in flight);
- a load completion with no journey (the L1 had the line) →
  ``l1_hit``;
- the ``stream_cfg`` front-end stall at a phase start →
  ``config_install``; inter-phase barrier waits and teardown →
  ``drain``.

Segments are attributed exactly once and cover ``[0, finish_time)``
per core by construction, so the **conservation invariant** — bucket
sums equal total core cycles — holds exactly; :meth:`check` asserts
it sanitizer-style at the end of every run. Everything here is
simulated-cycle arithmetic: deterministic, cache- and ``--jobs``-safe.

The accountant reads the model through the probe seam: bus events for
the journeys, the ``core_*`` probes for the commit front. Probes fire
before any fused tail call (DESIGN.md §12), so a fill event precedes
the waiter callbacks it wakes whether fusion is on or off — which is
what lets a finishing load correlate to the latest completion.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

BUCKETS = (
    "compute", "l1_hit", "wait_l2", "wait_noc_req", "wait_l3",
    "wait_dram", "wait_noc_resp", "credit_starve", "config_install",
    "drain",
)

# A finishing load correlates to the latest line/element completion no
# older than the L1 hit latency (the fill's zero-delay waiter callback
# runs in the same cycle; an L1 hit pays 2 cycles and leaves no event).
HIT_WINDOW = 2

MAX_JOURNEYS = 65_536  # open line journeys (drops counted, never raised)
MAX_GETU_MARKS = 65_536  # remembered GetU issue cycles for credit split


class _Journey:
    """One line fetch as seen on the bus: waypoints, not hops."""

    __slots__ = ("start", "floating", "l2_done", "l3_seen", "l3_lat",
                 "l3_outcome", "dram_at", "dram_done")

    def __init__(self, start: int, floating: bool) -> None:
        self.start = start
        self.floating = floating
        self.l2_done: Optional[int] = None
        self.l3_seen: Optional[int] = None
        self.l3_lat = 0
        self.l3_outcome = ""
        self.dram_at: Optional[int] = None
        self.dram_done: Optional[int] = None


class _TileState:
    """Per-core commit-front replica."""

    __slots__ = ("front", "config_end", "next_seq", "pending",
                 "last_comp", "buckets", "saw_phase")

    def __init__(self) -> None:
        self.front = 0
        self.config_end = 0
        self.next_seq = 0
        # seq -> (finish cycle, cause); drained in commit order.
        self.pending: Dict[int, Tuple[int, Any]] = {}
        # (cycle, legs) of the tile's latest line/element completion.
        self.last_comp: Optional[Tuple[int, List[tuple]]] = None
        self.buckets: Dict[str, int] = {b: 0 for b in BUCKETS}
        self.saw_phase = False


class CycleAccountant:
    """Assembles the per-core CPI stack from bus events + core probes."""

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self._tiles: Dict[int, _TileState] = {}
        self._cores: Dict[int, Any] = {}
        # (tile, line) -> open journey; line -> journey keys (for DRAM
        # events, which carry only the address).
        self._journeys: Dict[Tuple[int, int], _Journey] = {}
        self._line_index: Dict[int, List[Tuple[int, int]]] = {}
        # (requester, line) -> GetU issue cycle (credit-starve split).
        self._getu: Dict[Tuple[int, int], int] = {}
        self.journeys_dropped = 0
        for kind in ("l1_miss", "l1_fill", "l2_miss", "l3_demand",
                     "dram", "getu"):
            telemetry.subscribe(kind, getattr(self, f"_on_{kind}"))

    # ------------------------------------------------------------------
    # commit-front replication (core probes, subscribed by Telemetry)
    # ------------------------------------------------------------------
    def add_core(self, core) -> None:
        self._tiles.setdefault(core.tile, _TileState())
        self._cores[core.tile] = core

    def phase_begin(self, core, phase) -> None:
        ts = self._tiles[core.tile]
        now = core.sim.now
        ts.saw_phase = True
        self._flush_pending(ts)
        if now > ts.front:
            # Inter-phase barrier wait (and post-commit teardown).
            ts.buckets["drain"] += now - ts.front
            ts.front = now
        ts.next_seq = 0
        # Mirrors the core's _front_free_at += nspecs.
        nspecs = (
            len(phase.stream_specs)
            if core.se is not None and phase.stream_specs else 0
        )
        ts.config_end = now + nspecs

    def phase_end(self, core) -> None:
        ts = self._tiles[core.tile]
        now = core.sim.now
        self._flush_pending(ts)
        if ts.front < ts.config_end:
            # Degenerate phase: configured streams, no iteration ran.
            edge = min(now, ts.config_end)
            ts.buckets["config_install"] += edge - ts.front
            ts.front = edge
        if now > ts.front:
            ts.buckets["drain"] += now - ts.front
            ts.front = now

    def iter_finish(self, core, seq: int, by_load: bool) -> None:
        ts = self._tiles[core.tile]
        cycle = core.sim.now
        if by_load:
            comp = ts.last_comp
            if comp is not None and cycle - comp[0] <= HIT_WINDOW:
                cause: Any = comp[1]
            else:
                cause = "l1_hit"
        else:
            cause = "compute"
        ts.pending[seq] = (cycle, cause)
        pending = ts.pending
        while ts.next_seq in pending:
            fc, cz = pending.pop(ts.next_seq)
            ts.next_seq += 1
            if fc > ts.front:
                self._attribute(ts, ts.front, fc, cz)
                ts.front = fc

    def _flush_pending(self, ts: _TileState) -> None:
        # Defensive: every iteration should have drained in seq order
        # before the phase barrier fires.
        for seq in sorted(ts.pending):
            fc, cz = ts.pending[seq]
            if fc > ts.front:
                self._attribute(ts, ts.front, fc, cz)
                ts.front = fc
        ts.pending.clear()

    def _attribute(self, ts: _TileState, t0: int, t1: int, cause) -> None:
        buckets = ts.buckets
        if t0 < ts.config_end:
            # stream_cfg install window is a prefix of the first
            # segment (the front is monotonic).
            edge = min(t1, ts.config_end)
            buckets["config_install"] += edge - t0
            t0 = edge
            if t0 >= t1:
                return
        if isinstance(cause, str):
            buckets[cause] += t1 - t0
            return
        legs = cause
        total = t1 - t0
        acc = 0
        for a, b, bucket in legs:
            lo = a if a > t0 else t0
            hi = b if b < t1 else t1
            if hi > lo:
                buckets[bucket] += hi - lo
                acc += hi - lo
        # Residue before the journey began: the core front was still
        # dispatching/computing up to the access.
        pre = min(legs[0][0], t1) - t0
        if pre > 0:
            buckets["compute"] += pre
            acc += pre
        rest = total - acc
        if rest > 0:
            # After the journey completed (fill-to-delivery skew).
            buckets[legs[-1][2]] += rest

    # ------------------------------------------------------------------
    # journey assembly from bus events
    # ------------------------------------------------------------------
    def _on_l1_miss(self, ev) -> None:
        key = (ev.tile, ev.data["addr"])
        journey = self._journeys.get(key)
        if journey is None:
            if len(self._journeys) >= MAX_JOURNEYS:
                self.journeys_dropped += 1
                return
            journey = _Journey(ev.cycle, bool(ev.data.get("floating")))
            self._journeys[key] = journey
            self._line_index.setdefault(key[1], []).append(key)
        elif ev.data.get("floating"):
            journey.floating = True

    def _on_l2_miss(self, ev) -> None:
        journey = self._journeys.get((ev.tile, ev.data["addr"]))
        if journey is None or journey.l2_done is not None:
            return
        if ev.data.get("via") in ("overflow", "prefetch_drop"):
            return  # parked at the L2: still wait_l2, nothing sent yet
        journey.l2_done = ev.cycle

    def _on_l3_demand(self, ev) -> None:
        if ev.data.get("op") not in ("GetS", "GetX"):
            return
        journey = self._journeys.get(
            (ev.data.get("requester"), ev.data["addr"]))
        if journey is None or journey.dram_at is not None:
            return
        journey.l3_seen = ev.cycle
        journey.l3_lat = int(ev.data.get("lat", 0))
        journey.l3_outcome = ev.data.get("outcome", "")

    def _on_dram(self, ev) -> None:
        if ev.data.get("op") != "MemRead":
            return
        for key in self._line_index.get(ev.data["addr"], ()):
            journey = self._journeys.get(key)
            if journey is not None and journey.dram_at is None:
                journey.dram_at = ev.cycle
                journey.dram_done = ev.data.get("done")

    def _on_getu(self, ev) -> None:
        if len(self._getu) >= MAX_GETU_MARKS:
            self._getu.clear()  # precision loss only, never growth
        self._getu[(ev.data.get("requester"), ev.data["addr"])] = ev.cycle

    def _on_l1_fill(self, ev) -> None:
        key = (ev.tile, ev.data["addr"])
        if ev.data.get("reason") == "drop":
            return  # L2 rejected the prefetch; demand waiters re-issue
        journey = self._journeys.pop(key, None)
        keys = self._line_index.get(key[1])
        if keys is not None:
            try:
                keys.remove(key)
            except ValueError:
                pass
            if not keys:
                del self._line_index[key[1]]
        if journey is None:
            return
        ts = self._tiles.get(ev.tile)
        if ts is not None:
            ts.last_comp = (ev.cycle, self._legs(journey, ev.cycle, key))

    def _legs(self, j: _Journey, cf: int,
              key: Tuple[int, int]) -> List[tuple]:
        """Clip the journey's waypoints into contiguous bucket legs
        covering ``[j.start, cf)``."""
        c0 = j.start
        if j.floating:
            # Floated element: the private hierarchy is out of the
            # path. Any wait before the SE_L3 even issued the GetU is
            # credit starvation; the rest is the data push in flight.
            g = self._getu.pop(key, None)
            if g is not None and c0 < g < cf:
                return [(c0, g, "credit_starve"),
                        (g, cf, "wait_noc_resp")]
            return [(c0, cf, "wait_noc_resp")]
        c1 = j.l2_done
        if c1 is None or c1 >= cf:
            return [(c0, cf, "wait_l2")]  # served by the L2 itself
        legs = [(c0, c1, "wait_l2")]
        c2 = j.l3_seen
        if c2 is None or c2 <= c1 or c2 >= cf:
            legs.append((c1, cf, "wait_noc_req"))
            return legs
        bank_at = max(c1, c2 - j.l3_lat)
        legs.append((c1, bank_at, "wait_noc_req"))
        legs.append((bank_at, c2, "wait_l3"))
        c3 = j.dram_at
        if c3 is not None and c2 <= c3 < cf:
            legs.append((c2, c3, "wait_noc_req"))
            done = j.dram_done
            if done is None or done < c3:
                done = c3
            if done > cf:
                done = cf
            legs.append((c3, done, "wait_dram"))
            legs.append((done, cf, "wait_noc_resp"))
        elif j.l3_outcome in ("queued", "mshr_wait"):
            # Serialized behind another transaction at the bank.
            legs.append((c2, cf, "wait_l3"))
        else:
            legs.append((c2, cf, "wait_noc_resp"))
        return legs

    # ------------------------------------------------------------------
    # run completion
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Sanitizer-style conservation assertion: per core, bucket
        sums equal the core's total cycles, exactly."""
        for tile in sorted(self._cores):
            ts = self._tiles[tile]
            if not ts.saw_phase:
                continue  # accounting attached but this core never ran
            total = sum(ts.buckets.values())
            finish = self._cores[tile].finish_time
            if total != finish:
                raise AssertionError(
                    f"cpi conservation violated on tile {tile}: buckets "
                    f"sum to {total}, core ran {finish} cycles "
                    f"(front={ts.front}, pending={len(ts.pending)})"
                )

    def summary(self) -> Dict[str, float]:
        agg = {b: 0 for b in BUCKETS}
        total = 0
        for tile, core in self._cores.items():
            ts = self._tiles[tile]
            if not ts.saw_phase:
                continue
            for b in BUCKETS:
                agg[b] += ts.buckets[b]
            total += core.finish_time
        out: Dict[str, float] = {f"cpi.{b}": agg[b] for b in BUCKETS}
        out["cpi.total_cycles"] = total
        out["cpi.journeys_dropped"] = self.journeys_dropped
        return out
