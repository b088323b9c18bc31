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
from typing import List


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


class BrripPolicy(ReplacementPolicy):
    """Bimodal RRIP with 2-bit re-reference prediction values (RRPV).

    - Hit promotes a line to RRPV 0 (near re-reference).
    - Fill inserts at RRPV 2 (long) with probability ``p``, else RRPV 3
      (distant) — the bimodal throttle that defeats thrashing.
    - Victim selection finds an RRPV-3 line, aging all lines until one
      exists.

    The random choice uses a private deterministic PRNG seeded per set
    so simulations are reproducible.
    """

    MAX_RRPV = 3

    def __init__(self, ways: int, p: float = 0.03, seed: int = 0) -> None:
        super().__init__(ways)
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


def make_policy(name: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Factory used by cache constructors (``"lru"`` or ``"brrip"``)."""
    if name == "lru":
        return LruPolicy(ways)
    if name == "brrip":
        return BrripPolicy(ways, seed=seed)
    raise ValueError(f"unknown replacement policy {name!r}")
