"""Bingo spatial data prefetcher [Bakhshalipour et al., HPCA'19].

Bingo learns the *footprint* of accesses within a spatial region
(2 kB, Table III) and replays it when the region is re-triggered. Its
key idea is association with multiple event granularities in one
history table: lookups try the long event (PC+Address) first for
accuracy, then fall back to the short event (PC+Offset) for coverage.

Structure:

- **Accumulation table**: regions currently being accessed; records
  the trigger event and the bitmap of lines touched. Evicted
  generations (LRU) are committed to the history table.
- **Pattern history table (PHT)**: bounded LRU map from events to
  footprints, filled at commit under both the long and short events.

On the first access to an untracked region, Bingo predicts: if the
long event hits, prefetch that footprint; else try the short event.
This replays entire footprints at once — the aggressive behaviour
that wins DPC3 but also the over-fetch on irregular workloads the
paper measures in Figure 15.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.mem.addr import LINE_SIZE, line_addr


@dataclass
class Generation:
    """One in-flight region access generation."""

    trigger_pc: int
    trigger_addr: int
    trigger_offset: int
    footprint: set = field(default_factory=set)


class BingoPrefetcher:
    """Spatial footprint prefetcher over fixed-size regions."""

    def __init__(
        self,
        region_bytes: int = 2048,
        pht_entries: int = 1024,
        accumulation_entries: int = 64,
    ) -> None:
        if region_bytes % LINE_SIZE:
            raise ValueError("region must be a multiple of the line size")
        self.region_bytes = region_bytes
        self.lines_per_region = region_bytes // LINE_SIZE
        self.pht_entries = pht_entries
        self.accumulation_entries = accumulation_entries
        self._accum: "OrderedDict[int, Generation]" = OrderedDict()
        self._pht_long: "OrderedDict[Tuple[int, int], frozenset]" = OrderedDict()
        self._pht_short: "OrderedDict[Tuple[int, int], frozenset]" = OrderedDict()
        self.issued = 0
        self.long_hits = 0
        self.short_hits = 0

    # ------------------------------------------------------------------
    def _region_of(self, addr: int) -> int:
        return addr - (addr % self.region_bytes)

    def _offset_of(self, addr: int) -> int:
        return (addr % self.region_bytes) // LINE_SIZE

    def on_access(self, op_id: Optional[int], addr: int, hit: bool) -> List[int]:
        """Train on a demand access; returns line addresses to prefetch."""
        if op_id is None:
            return []
        region = self._region_of(addr)
        offset = self._offset_of(addr)
        gen = self._accum.get(region)
        if gen is not None:
            gen.footprint.add(offset)
            self._accum.move_to_end(region)
            return []
        # Trigger access for a new generation.
        if len(self._accum) >= self.accumulation_entries:
            _, old = self._accum.popitem(last=False)
            self._commit(old)
        gen = Generation(
            trigger_pc=op_id, trigger_addr=line_addr(addr),
            trigger_offset=offset, footprint={offset},
        )
        self._accum[region] = gen
        return self._predict(op_id, addr, region, offset)

    def _predict(self, pc: int, addr: int, region: int, offset: int) -> List[int]:
        footprint = self._pht_long.get((pc, line_addr(addr)))
        if footprint is not None:
            self.long_hits += 1
            self._pht_long.move_to_end((pc, line_addr(addr)))
        else:
            footprint = self._pht_short.get((pc, offset))
            if footprint is None:
                return []
            self.short_hits += 1
            self._pht_short.move_to_end((pc, offset))
        lines = [
            region + off * LINE_SIZE
            for off in sorted(footprint)
            if off != offset
        ]
        self.issued += len(lines)
        return lines

    def _commit(self, gen: Generation) -> None:
        footprint = frozenset(gen.footprint)
        self._store(self._pht_long, (gen.trigger_pc, gen.trigger_addr), footprint)
        self._store(self._pht_short, (gen.trigger_pc, gen.trigger_offset), footprint)

    def _store(self, pht: OrderedDict, key, footprint: frozenset) -> None:
        if key in pht:
            pht.move_to_end(key)
        elif len(pht) >= self.pht_entries:
            pht.popitem(last=False)
        pht[key] = footprint
