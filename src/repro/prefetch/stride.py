"""Stride prefetcher (reference-prediction-table style).

Table III's baseline: per-PC stride detection with 16 concurrent
streams; degree 8 at L1, 16 at L2, single-cycle request generation.
Each table entry tracks the last address, the detected stride and a
2-bit confidence counter; once confident, it prefetches ``degree``
strides ahead, remembering how far ahead it has already issued so
steady-state traffic is one prefetch per demand access.

The workload layer supplies a stable ``op_id`` per static access site,
which plays the role of the PC.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.mem.addr import line_addr


@dataclass
class StrideEntry:
    last_addr: int
    stride: int = 0
    confidence: int = 0
    issued_until: int = 0  # highest address (exclusive) prefetched so far


class StridePrefetcher:
    """Per-PC stride detector with bounded stream table."""

    CONF_MAX = 3
    CONF_THRESHOLD = 2

    def __init__(self, streams: int = 16, degree: int = 8) -> None:
        if streams <= 0 or degree <= 0:
            raise ValueError("streams and degree must be positive")
        self.streams = streams
        self.degree = degree
        self._table: "OrderedDict[int, StrideEntry]" = OrderedDict()
        self.issued = 0

    def on_access(self, op_id: Optional[int], addr: int, hit: bool) -> List[int]:
        """Train on a demand access; returns line addresses to prefetch."""
        if op_id is None:
            return []
        entry = self._table.get(op_id)
        if entry is None:
            if len(self._table) >= self.streams:
                self._table.popitem(last=False)
            self._table[op_id] = StrideEntry(last_addr=addr)
            return []
        self._table.move_to_end(op_id)
        stride = addr - entry.last_addr
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(self.CONF_MAX, entry.confidence + 1)
        else:
            entry.confidence -= 1
            if entry.confidence <= 0:
                entry.stride = stride
                entry.confidence = 1
                entry.issued_until = 0
        entry.last_addr = addr
        if entry.confidence < self.CONF_THRESHOLD or entry.stride == 0:
            return []
        return self._generate(entry, addr)

    def _generate(self, entry: StrideEntry, addr: int) -> List[int]:
        """Prefetch up to ``degree`` strides ahead of ``addr``."""
        lines: List[int] = []
        horizon = addr + entry.stride * self.degree
        start = max(addr + entry.stride, entry.issued_until)
        if entry.stride > 0:
            next_addr = start
            while next_addr <= horizon:
                lines.append(line_addr(next_addr))
                next_addr += entry.stride
            entry.issued_until = next_addr
        else:
            # Negative strides: march downward; issued_until tracks the
            # lowest address fetched (stored negated for uniformity).
            next_addr = addr + entry.stride
            while next_addr >= horizon and next_addr >= 0:
                lines.append(line_addr(next_addr))
                next_addr += entry.stride
        # Dedup lines (small strides revisit the same line).
        seen = []
        for ln in lines:
            if ln not in seen and ln >= 0:
                seen.append(ln)
        self.issued += len(seen)
        return seen
