"""Cache replacement policies: LRU and Bimodal RRIP.

The paper's caches use Bimodal RRIP (BRRIP) with p = 0.03 (Table III):
re-reference interval prediction [Jaleel et al., ISCA'10] where new
lines are inserted with a *long* re-reference prediction most of the
time and a *distant* prediction otherwise, which makes the cache
scan-resistant — exactly the thrashing workloads the paper studies.

A policy manages one set of ``ways`` lines. The cache array calls
``on_fill`` / ``on_hit`` / ``victim``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple


class ReplacementPolicy:
    """Per-set replacement state. One instance per cache set.

    Subclasses implement ``on_fill(way)``, ``on_hit(way)`` and
    ``victim(valid) -> way``, where ``valid[w]`` is False for empty
    ways (which are always preferred)."""

    def __init__(self, ways: int) -> None:
        self.ways = ways


class LruPolicy(ReplacementPolicy):
    """Classic least-recently-used, tracked with a recency timestamp."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
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


# seed -> (generator, the values drawn from it so far). Value n is
# always the n-th output of random.Random(seed), whichever policy drew
# it first, so the table is a pure function of the seed: sharing it
# across every chip in the process leaves each run's draws unchanged.
# Per seed it holds as many values as the most fills one set with that
# seed has taken (after mv/sf at 8x8: 319 seeds, 1,365 values).
_DRAWS: Dict[int, Tuple[random.Random, List[float]]] = {}


class BrripPolicy(ReplacementPolicy):
    """Bimodal RRIP with 2-bit re-reference prediction values (RRPV).

    - Hit promotes a line to RRPV 0 (near re-reference).
    - Fill inserts at RRPV 2 (long) with probability ``p``, else RRPV 3
      (distant) — the bimodal throttle that defeats thrashing.
    - Victim selection finds an RRPV-3 line, aging all lines until one
      exists.

    The n-th fill's random choice is value n of ``random.Random(seed)``
    so simulations are reproducible. Policies with equal seeds (a
    cache seeds set ``s`` of tile ``t`` with ``t + s``, so sets of
    different tiles collide) read one shared sequence of draws
    (:data:`_DRAWS`) instead of each owning a generator.
    """

    MAX_RRPV = 3

    def __init__(self, ways: int, p: float = 0.03, seed: int = 0) -> None:
        super().__init__(ways)
        self.p = p
        self._rrpv = [self.MAX_RRPV] * ways
        draws = _DRAWS.get(seed)
        if draws is None:
            draws = _DRAWS[seed] = (random.Random(seed), [])
        self._rng, self._values = draws
        self._fills = 0

    def on_fill(self, way: int) -> None:
        n = self._fills
        values = self._values
        if n == len(values):
            values.append(self._rng.random())
        self._fills = n + 1
        if values[n] < self.p:
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


def make_policy(name: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Factory used by cache constructors (``"lru"`` or ``"brrip"``)."""
    if name == "lru":
        return LruPolicy(ways)
    if name == "brrip":
        return BrripPolicy(ways, seed=seed)
    raise ValueError(f"unknown replacement policy {name!r}")
