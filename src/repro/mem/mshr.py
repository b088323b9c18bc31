"""Miss-status holding registers.

An MSHR file tracks outstanding misses per cache line so that
concurrent requests for the same line merge into one upstream fetch,
and bounds the number of in-flight misses a cache may have (extra
misses stall, which is one of the ways memory-level parallelism is
limited in the simulated cores and caches).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.mem.addr import LINE_SIZE

_LINE_MASK = ~(LINE_SIZE - 1)  # line_addr(), inlined for the hot paths


class MshrEntry:
    """One outstanding line miss with its waiting callbacks."""

    __slots__ = (
        "addr", "issued_cycle", "waiters",
        # Controller state: whether any merged request needs write
        # permission, plus arbitrary per-controller ``meta``.
        "is_write", "meta",
    )

    def __init__(self, addr: int, issued_cycle: int) -> None:
        self.addr = addr
        self.issued_cycle = issued_cycle
        self.waiters: List[Callable[[Any], None]] = []
        self.is_write = False
        self.meta: dict = {}

    def __repr__(self) -> str:  # debugging / sanitizer reports
        return (
            f"MshrEntry(addr={self.addr:#x}, issued={self.issued_cycle}, "
            f"waiters={len(self.waiters)}, is_write={self.is_write})"
        )


class MshrFile:
    """A bounded set of :class:`MshrEntry`, keyed by line address."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, MshrEntry] = {}

    def lookup(self, addr: int) -> Optional[MshrEntry]:
        base = addr & _LINE_MASK
        entries = self._entries
        return entries[base] if base in entries else None

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, addr: int, now: int) -> MshrEntry:
        """Allocate an entry for ``addr``; raises if full or duplicate."""
        base = addr & _LINE_MASK
        entries = self._entries
        if base in entries:
            raise ValueError(f"MSHR already allocated for {base:#x}")
        if len(entries) >= self.capacity:
            raise RuntimeError("MSHR file full")
        entry = entries[base] = MshrEntry(base, now)
        return entry

    def release(self, addr: int) -> MshrEntry:
        """Detach and return the entry for ``addr``.

        The caller owns the returned entry (its waiters/meta stay
        intact), and its slot is free at once: a new miss may allocate
        without waiting on the caller.
        """
        base = addr & _LINE_MASK
        entry = self._entries.pop(base, None)
        if entry is None:
            raise KeyError(f"no MSHR for {base:#x}")
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def oldest_age(self, now: int) -> int:
        """Age in cycles of the longest-outstanding entry (0 if empty)."""
        if not self._entries:
            return 0
        return now - min(e.issued_cycle for e in self._entries.values())

    def outstanding(self) -> List[int]:
        """Line addresses with in-flight misses (test helper)."""
        return sorted(self._entries)
