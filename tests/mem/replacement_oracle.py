"""Reference replacement policies for the cache tests: one object per set.

``repro.mem.cache.CacheArray`` keeps every set's replacement state in
flat per-array storage (DESIGN.md §12). These classes are the per-set
formulation it replaced, kept as the reference the flat state must
match victim for victim: ``test_replacement.py`` drives both through
the same operations.

A policy manages one set of ``ways`` lines; :class:`OracleArray` calls
``on_fill`` / ``on_hit`` / ``victim``.
"""

import random
from typing import Dict, List, Optional, Tuple

from repro.mem.cache import LINE_SIZE


class LruPolicy:
    """Least-recently-used, tracked with a per-set recency stamp."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self._stamp = 0
        self._last_use = [0] * ways

    def _touch(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def on_hit(self, way: int) -> None:
        self._touch(way)

    def victim(self, valid: List[bool]) -> int:
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return min(range(self.ways), key=lambda w: self._last_use[w])


class BrripPolicy:
    """Bimodal RRIP with 2-bit re-reference prediction values (RRPV).

    - A hit promotes a line to RRPV 0 (near re-reference).
    - A fill inserts at RRPV 2 (long) with probability ``p``, else at
      RRPV 3 (distant).
    - The victim is the first RRPV-3 way, after aging every way by one
      until some way reads 3.

    The n-th fill reads value n of the policy's own
    ``random.Random(seed)``; the cache arrays read the same values
    from a table they share per seed.
    """

    MAX_RRPV = 3

    def __init__(self, ways: int, p: float = 0.03, seed: int = 0) -> None:
        self.ways = ways
        self.p = p
        self._rrpv = [self.MAX_RRPV] * ways
        self._rng = random.Random(seed)

    def on_fill(self, way: int) -> None:
        if self._rng.random() < self.p:
            self._rrpv[way] = self.MAX_RRPV - 1
        else:
            self._rrpv[way] = self.MAX_RRPV

    def on_hit(self, way: int) -> None:
        self._rrpv[way] = 0

    def victim(self, valid: List[bool]) -> int:
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        while True:
            for way in range(self.ways):
                if self._rrpv[way] == self.MAX_RRPV:
                    return way
            for way in range(self.ways):
                self._rrpv[way] += 1


class OracleArray:
    """The tag bookkeeping of ``CacheArray`` over one policy per set.

    It tracks only what replacement decides: which address each way
    holds. ``pick_victim`` follows the cache's rules (the lowest free
    way first; a pinned victim is promoted and the policy asked again,
    at most ``ways`` times; then the lowest unpinned way).
    """

    def __init__(self, size_bytes: int, ways: int, replacement: str,
                 seed: int = 0) -> None:
        self.ways = ways
        self.num_sets = size_bytes // (ways * LINE_SIZE)
        self._addrs: List[List[Optional[int]]] = [
            [None] * ways for _ in range(self.num_sets)
        ]
        self._policies = [
            LruPolicy(ways) if replacement == "lru"
            else BrripPolicy(ways, seed=seed + s)
            for s in range(self.num_sets)
        ]
        self._where: Dict[int, Tuple[int, int]] = {}

    def set_of(self, addr: int) -> int:
        return (addr // LINE_SIZE) % self.num_sets

    def lookup(self, addr: int, touch: bool = True) -> Optional[int]:
        base = addr - addr % LINE_SIZE
        if base not in self._where:
            return None
        set_idx, way = self._where[base]
        if touch:
            self._policies[set_idx].on_hit(way)
        return base

    def pick_victim(self, addr: int, avoid=None) -> Tuple[int, Optional[int]]:
        """(way, address the way holds, or None for a free way)."""
        set_idx = self.set_of(addr)
        addrs = self._addrs[set_idx]
        if None in addrs:
            way = addrs.index(None)
            return way, None
        policy = self._policies[set_idx]
        for _attempt in range(self.ways):
            way = policy.victim([True] * self.ways)
            if avoid is None or not avoid(addrs[way]):
                return way, addrs[way]
            policy.on_hit(way)
        for way in range(self.ways):
            if not avoid(addrs[way]):
                return way, addrs[way]
        raise RuntimeError(f"all ways pinned in set {set_idx}")

    def fill(self, addr: int, avoid=None) -> Optional[int]:
        """Insert ``addr``; returns the evicted address, or None."""
        base = addr - addr % LINE_SIZE
        set_idx = self.set_of(base)
        way, evicted = self.pick_victim(base, avoid)
        if evicted is not None:
            del self._where[evicted]
        self._addrs[set_idx][way] = base
        self._where[base] = (set_idx, way)
        self._policies[set_idx].on_fill(way)
        return evicted

    def invalidate(self, addr: int) -> Optional[int]:
        base = addr - addr % LINE_SIZE
        if base not in self._where:
            return None
        set_idx, way = self._where.pop(base)
        self._addrs[set_idx][way] = None
        return base
