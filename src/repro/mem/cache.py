"""Set-associative cache array: line tags, dirty bits and replacement.

This is the tag bookkeeping shared by the L1, L2 and L3 controllers. A
line is a *slot* (``set * ways + way``), not an object. Per slot the
array keeps only what every level reads: the line base, in an
``array('q')`` that holds :data:`FREE` for an empty way (negative,
because address 0 is a real line), and the dirty bit, in the
``bytearray`` :attr:`CacheArray.dirty`. A line-base -> slot map makes a
lookup one dict probe, and the array hands controllers slot numbers.
Each controller keeps, by slot, only the line fields that it reads:

- the L2 (:mod:`repro.mem.l2`) its MESI state and the Figure 2
  accounting: hits since fill, the stream that filled the line, and the
  flits spent filling it;
- the L1 (:mod:`repro.mem.l1`) its ``writable`` hint;
- the L3 nothing beyond the dirty bit.

Every per-slot column is a ``bytearray`` or an ``array.array``, which
the cyclic GC does not track, and every value of the map comes from one
tuple of slot numbers per array size, shared by all arrays of that
size, so a fill allocates nothing but its line-base key. After mv/sf
at the paper's 8x8 geometry, an object per line (80,136 of them) cost
~8 MB of peak RSS; and columns of Python lists, which the GC tracks,
moved a collection into each chip build and doubled its setup time
(DESIGN.md §12).

Replacement state is flat too, indexed by slot. The paper's caches use
Bimodal RRIP with p = 0.03 (Table III) [Jaleel et al., ISCA'10]: one
2-bit re-reference prediction value (RRPV) per way, in one
``bytearray`` per array. A hit sets RRPV 0; a fill inserts at 2 (long)
with probability p and at 3 (distant) otherwise, which makes the cache
scan-resistant; the victim is the first way at RRPV 3, after aging the
set until one exists. LRU keeps one recency stamp per slot, in an
``array('q')``, drawn from one counter per array, and evicts the way
with the oldest stamp. Either way a set's state is a slice of the
array, not an object of its own.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Optional, Tuple

from repro.mem.addr import LINE_SIZE

# Coherence states (MESI). The same enum serves private caches and the
# LLC/directory; not every state is meaningful at every level.
INVALID = "I"
SHARED = "S"
EXCLUSIVE = "E"
MODIFIED = "M"

# BRRIP: the long-insertion probability and the largest 2-bit RRPV.
BRRIP_P = 0.03
MAX_RRPV = 3

# The tag of a way that holds no line. Any negative tag reads as free:
# line bases are never negative, and address 0 is a real line.
FREE = -1

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

# slot count -> (0, 1, ..., count - 1): the values of the line-base ->
# slot map of every array with that many slots. Reading the slot number
# from the shared tuple, a fill allocates no int for it.
_SLOT_IDS: Dict[int, Tuple[int, ...]] = {}


class CacheArray:
    """A set-associative array of line slots.

    The array does pure tag management: controllers decide when to
    look up, fill and evict, and own all timing and messaging. Lines
    are named by slot; :attr:`dirty` holds each slot's dirty bit, which
    controllers read and set directly.
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
        self.ways = ways
        self.num_sets = size_bytes // (ways * LINE_SIZE)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"number of sets ({self.num_sets}) must be a power of two")
        nslots = self.num_sets * ways
        # Per slot (slot = set_idx * ways + way): the line base, FREE
        # for an empty way, and the dirty bit.
        self._tags = array("q", [FREE]) * nslots
        self.dirty = bytearray(nslots)
        # Replacement state, by slot: BRRIP's RRPVs and fills per set,
        # or LRU's recency stamps and their one counter.
        self._rrpv: Optional[bytearray] = None
        self._stamps: Optional[array] = None
        if replacement == "brrip":
            self._rrpv = bytearray([MAX_RRPV]) * nslots
            self._fills = array("q", [0]) * self.num_sets
            self._seed = seed
        else:
            self._stamps = array("q", [0]) * nslots
            self._clock = 0
        self._set_index_fn = set_index_fn
        self._set_mask = self.num_sets - 1
        # Map line base address -> slot for O(1) lookups.
        self._where: Dict[int, int] = {}
        if nslots not in _SLOT_IDS:
            _SLOT_IDS[nslots] = tuple(range(nslots))
        self._slot_ids = _SLOT_IDS[nslots]

    def set_of(self, addr: int) -> int:
        if self._set_index_fn is not None:
            return self._set_index_fn(addr) & self._set_mask
        return (addr >> 6) & self._set_mask

    def lookup(self, addr: int, touch: bool = True) -> Optional[int]:
        """Return the slot holding ``addr``, updating recency if
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
        return slot

    def contains(self, addr: int) -> bool:
        return addr & ~(LINE_SIZE - 1) in self._where

    def pick_victim(self, addr: int, avoid=None) -> int:
        """The slot a fill of ``addr`` would take, as :meth:`fill`
        chooses it: a free way if the set has one, else the policy's
        victim. Only the set's replacement state changes (BRRIP aging,
        and promotion of a skipped pinned way). ``avoid`` is an
        optional predicate over line addresses; lines it matches (e.g.
        lines with in-flight transactions) are skipped unless every way
        matches, in which case a RuntimeError is raised.
        """
        return self._victim(self.set_of(addr), avoid)

    def _victim(self, set_idx: int, avoid) -> int:
        nways = self.ways
        first = set_idx * nways
        end = first + nways
        tags = self._tags
        # Free-way fast scan: both policies prefer the lowest-index
        # free way.
        for slot in range(first, end):
            if tags[slot] < 0:
                return slot
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
            if avoid is None or not avoid(tags[slot]):
                return slot
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
            if not avoid(tags[slot]):
                return slot
        raise RuntimeError(f"all ways pinned in set {set_idx}")

    def fill(
        self, addr: int, dirty: bool = False, avoid=None,
    ) -> Tuple[int, Optional[int], bool]:
        """Insert ``addr``, with dirty bit ``dirty``; returns
        ``(slot, evicted_base, evicted_dirty)``.

        ``evicted_base`` is ``None`` when the way was free. A
        controller's own fields for the slot still hold the evicted
        line's values, to read before it writes the new line's.
        ``avoid`` works as in :meth:`pick_victim`.
        """
        base = addr & ~(LINE_SIZE - 1)
        where = self._where
        if base in where:
            raise ValueError(f"fill of already-present line {base:#x}")
        set_idx = self.set_of(addr)
        slot = self._victim(set_idx, avoid)
        tags = self._tags
        flags = self.dirty
        evicted = tags[slot]
        evicted_dirty = flags[slot] == 1
        if evicted < 0:
            evicted = None
        else:
            del where[evicted]
        tags[slot] = base
        flags[slot] = dirty
        where[base] = self._slot_ids[slot]
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
        return slot, evicted, evicted_dirty

    def invalidate(self, addr: int) -> Optional[bool]:
        """Drop ``addr`` if present; returns the dropped line's dirty
        bit, or ``None`` if the array did not hold it."""
        slot = self._where.pop(addr & ~(LINE_SIZE - 1), None)
        if slot is None:
            return None
        self._tags[slot] = FREE
        flags = self.dirty
        dirty = flags[slot] == 1
        flags[slot] = 0
        return dirty

    def lines(self) -> List[int]:
        """The bases of all valid lines, in slot order (sanitizer and
        test helper)."""
        return [base for base in self._tags if base >= 0]

    def occupancy(self) -> int:
        return len(self._where)
