"""Set-associative cache array with the metadata the paper measures.

This is the tag/data bookkeeping shared by L1, L2 and L3 controllers.
Beyond the usual state, each line tracks:

- ``uses``: hits since fill. Only L2 evictions are classified: an L2
  victim with ``uses == 0`` that is not dirty counts as *evicted
  without reuse*, the quantity in Figure 2a (the L2 counts a hit, not
  the miss that filled the line, as a use);
- ``stream_id``: the stream that brought the line in (the paper extends
  the private-cache tag array with a 4-bit stream id, §IV-D), used both
  for the reuse-history float policy and for Figure 2a's "stream"
  fraction;
- ``fill_flits``: NoC flits spent bringing the line in, so eviction-
  without-reuse traffic (Figure 2b) can be attributed per line.

The array keeps ``sets x ways`` slots in one flat list (slot =
``set * ways + way``) and a line-base -> slot map, so lookups are one
dict probe + one list index with no nested containers on the hot path.
A slot holds no :class:`CacheLine` until its way's first fill builds
one, which then stays in the slot for the array's life: at the paper's
8x8 geometry most slots are never filled.

Replacement state is flat too, indexed by slot. The paper's caches use
Bimodal RRIP with p = 0.03 (Table III) [Jaleel et al., ISCA'10]: one
2-bit re-reference prediction value (RRPV) per way, in one
``bytearray`` per array. A hit sets RRPV 0; a fill inserts at 2 (long)
with probability p and at 3 (distant) otherwise, which makes the cache
scan-resistant; the victim is the first way at RRPV 3, after aging the
set until one exists. LRU keeps one recency stamp per slot, drawn from
one counter per array, and evicts the way with the oldest stamp. Either
way a set's state is a slice of the array, not an object of its own.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.mem.addr import LINE_SIZE, line_addr

# Coherence states (MESI). The same enum serves private caches and the
# LLC/directory; not every state is meaningful at every level.
INVALID = "I"
SHARED = "S"
EXCLUSIVE = "E"
MODIFIED = "M"

# BRRIP: the long-insertion probability and the largest 2-bit RRPV.
BRRIP_P = 0.03
MAX_RRPV = 3

# seed -> (generator, the values drawn from it so far). Fill n of BRRIP
# set s of an array seeded t inserts by value n of random.Random(t + s).
# Value n is always the n-th output of that generator, whichever set
# drew it first, so the table is a pure function of the seed: sharing
# it across every array and chip in the process leaves each run's
# draws unchanged (a cache seeds set s of tile t with t + s, so sets of
# different tiles collide and read one sequence). Per seed it holds as
# many values as the most fills one set with that seed has taken (after
# mv/sf at 8x8: 319 seeds, 1,365 values).
_DRAWS: Dict[int, Tuple[random.Random, List[float]]] = {}


class CacheLine:
    """One cache line's tag entry."""

    __slots__ = (
        "addr", "state", "dirty",
        # --- accounting used by the paper's measurements ---
        "uses", "stream_id",
        "fill_flits",       # data flits spent filling the line
        "fill_flits_ctrl",  # control flits spent filling the line
        "writable",         # L1-level hint: backing L2 state is M/E
    )

    def __init__(
        self,
        addr: int = 0,
        state: str = INVALID,
        dirty: bool = False,
        uses: int = 0,
        stream_id: Optional[int] = None,
        fill_flits: int = 0,
        fill_flits_ctrl: int = 0,
        writable: bool = False,
    ) -> None:
        self.addr = addr
        self.state = state
        self.dirty = dirty
        self.uses = uses
        self.stream_id = stream_id
        self.fill_flits = fill_flits
        self.fill_flits_ctrl = fill_flits_ctrl
        self.writable = writable

    @property
    def valid(self) -> bool:
        return self.state != INVALID

    def copy(self) -> "CacheLine":
        """Snapshot for post-eviction accounting."""
        dup = CacheLine.__new__(CacheLine)
        dup.addr = self.addr
        dup.state = self.state
        dup.dirty = self.dirty
        dup.uses = self.uses
        dup.stream_id = self.stream_id
        dup.fill_flits = self.fill_flits
        dup.fill_flits_ctrl = self.fill_flits_ctrl
        dup.writable = self.writable
        return dup

    def __repr__(self) -> str:  # debugging / sanitizer reports
        return (
            f"CacheLine(addr={self.addr:#x}, state={self.state!r}, "
            f"dirty={self.dirty}, uses={self.uses}, "
            f"stream_id={self.stream_id})"
        )


class CacheArray:
    """A set-associative array of :class:`CacheLine`.

    The array does pure tag management: controllers decide when to
    look up, fill and evict, and own all timing and messaging.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        replacement: str = "lru",
        seed: int = 0,
        set_index_fn=None,
    ) -> None:
        """``set_index_fn(addr) -> int`` overrides the default set
        index (line number). L3 banks use it to index by *bank-local*
        line number, so the NUCA interleave bits don't alias away most
        of the bank's sets."""
        if size_bytes % (ways * LINE_SIZE):
            raise ValueError(
                f"size {size_bytes} not divisible into {ways}-way sets of "
                f"{LINE_SIZE}B lines"
            )
        if replacement not in ("lru", "brrip"):
            raise ValueError(f"unknown replacement policy {replacement!r}")
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * LINE_SIZE)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"number of sets ({self.num_sets}) must be a power of two")
        nslots = self.num_sets * ways
        # Flat slot array: slot = set_idx * ways + way. None until the
        # way's first fill; built ways are always a prefix of the set.
        self._slots: List[Optional[CacheLine]] = [None] * nslots
        # Replacement state, by slot: BRRIP's RRPVs and fills per set,
        # or LRU's recency stamps and their one counter.
        self._rrpv: Optional[bytearray] = None
        self._stamps: Optional[List[int]] = None
        if replacement == "brrip":
            self._rrpv = bytearray([MAX_RRPV]) * nslots
            self._fills = [0] * self.num_sets
            self._seed = seed
        else:
            self._stamps = [0] * nslots
            self._clock = 0
        self._set_index_fn = set_index_fn
        self._set_mask = self.num_sets - 1
        # Map line base address -> flat slot for O(1) lookups.
        self._where: Dict[int, int] = {}

    def set_of(self, addr: int) -> int:
        if self._set_index_fn is not None:
            return self._set_index_fn(addr) & self._set_mask
        return (addr >> 6) & self._set_mask

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the line holding ``addr``, updating recency if
        ``touch``; ``None`` on miss."""
        base = addr & ~(LINE_SIZE - 1)
        where = self._where
        if base not in where:
            return None
        slot = where[base]
        if touch:
            rrpv = self._rrpv
            if rrpv is not None:
                rrpv[slot] = 0
            else:
                self._clock += 1
                self._stamps[slot] = self._clock
        return self._slots[slot]

    def contains(self, addr: int) -> bool:
        return addr & ~(LINE_SIZE - 1) in self._where

    def pick_victim(self, addr: int, avoid=None) -> Tuple[int, CacheLine]:
        """Choose (way, line) to evict so ``addr`` can be filled.

        The caller should handle writeback of a valid victim, then call
        :meth:`fill`. A free way's line is built here on the way's
        first use, which callers cannot observe; otherwise only the
        set's replacement state changes (BRRIP aging, and promotion of
        a skipped pinned way). ``avoid`` is an optional predicate over
        line addresses; lines it matches (e.g. lines with in-flight
        transactions) are skipped unless every way matches, in which
        case a RuntimeError is raised.
        """
        return self._victim(self.set_of(addr), avoid)

    def _victim(self, set_idx: int, avoid) -> Tuple[int, CacheLine]:
        nways = self.ways
        first = set_idx * nways
        end = first + nways
        slots = self._slots
        # Free-way fast scan: both policies prefer the lowest-index
        # invalid way.
        for slot in range(first, end):
            line = slots[slot]
            if line is None:
                line = slots[slot] = CacheLine()
                return slot - first, line
            if line.state == INVALID:
                return slot - first, line
        # The set is full: every way holds a valid line.
        rrpv = self._rrpv
        stamps = self._stamps
        for _attempt in range(nways):
            if rrpv is not None:
                slot = rrpv.find(MAX_RRPV, first, end)
                if slot < 0:
                    # Age the set until some way reads MAX_RRPV, in one
                    # step: the ways that held the largest RRPV get there.
                    age = MAX_RRPV - max(rrpv[first:end])
                    for s in range(first, end):
                        rrpv[s] += age
                    slot = rrpv.find(MAX_RRPV, first, end)
            else:
                recency = stamps[first:end]
                slot = first + recency.index(min(recency))
            line = slots[slot]
            if avoid is None or not avoid(line.addr):
                return slot - first, line
            # Pinned: make it most-recently-used and try again.
            if rrpv is not None:
                rrpv[slot] = 0
            else:
                self._clock += 1
                stamps[slot] = self._clock
        # The policy can keep offering one pinned way (under BRRIP, a
        # promoted way that ages back to RRPV 3 with the others wins
        # the tie again), so fall back to the lowest unpinned way.
        for slot in range(first, end):
            line = slots[slot]
            if not avoid(line.addr):
                return slot - first, line
        raise RuntimeError(f"all ways pinned in set {set_idx}")

    def fill(
        self,
        addr: int,
        state: str,
        stream_id: Optional[int] = None,
        fill_flits: int = 0,
        fill_flits_ctrl: int = 0,
        avoid=None,
    ) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Insert ``addr``; returns (new_line, evicted_copy_or_None).

        The evicted line is returned as a *copy* holding its final
        metadata so the controller can account for it after the slot
        has been reused. ``avoid`` works as in :meth:`pick_victim`.
        """
        base = addr & ~(LINE_SIZE - 1)
        if base in self._where:
            raise ValueError(f"fill of already-present line {base:#x}")
        set_idx = self.set_of(addr)
        way, victim = self._victim(set_idx, avoid)
        evicted: Optional[CacheLine] = None
        if victim.state != INVALID:
            evicted = victim.copy()
            del self._where[victim.addr]
        victim.addr = base
        victim.state = state
        victim.dirty = False
        victim.uses = 0
        victim.stream_id = stream_id
        victim.fill_flits = fill_flits
        victim.fill_flits_ctrl = fill_flits_ctrl
        victim.writable = False
        slot = set_idx * self.ways + way
        self._where[base] = slot
        rrpv = self._rrpv
        if rrpv is not None:
            fills = self._fills
            n = fills[set_idx]
            fills[set_idx] = n + 1
            seed = self._seed + set_idx
            if seed in _DRAWS:
                rng, values = _DRAWS[seed]
            else:
                rng, values = _DRAWS[seed] = (random.Random(seed), [])
            if n == len(values):
                values.append(rng.random())
            rrpv[slot] = MAX_RRPV - 1 if values[n] < BRRIP_P else MAX_RRPV
        else:
            self._clock += 1
            self._stamps[slot] = self._clock
        return victim, evicted

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Drop ``addr`` if present; returns a copy of the dropped line."""
        slot = self._where.pop(line_addr(addr), None)
        if slot is None:
            return None
        line = self._slots[slot]
        copy = line.copy()
        line.state = INVALID
        line.dirty = False
        return copy

    def all_lines(self) -> List[CacheLine]:
        """All valid lines (test/debug helper)."""
        return [ln for ln in self._slots if ln is not None and ln.valid]

    def occupancy(self) -> int:
        return len(self._where)
