"""Address arithmetic: cache lines, pages, and static-NUCA interleaving.

The paper's L3 is a static NUCA: physical addresses are interleaved
across the 64 L3 banks at a configurable granularity (64 B by default
for the baselines; stream floating prefers 1 kB — Figure 17 sweeps
64 B / 256 B / 1 kB / 4 kB). A stream "migrates" between banks exactly
when its next address maps to a different bank under this interleaving.
"""

from __future__ import annotations

LINE_SIZE = 64
PAGE_SIZE = 4096
PAGE_SHIFT = 12


def line_addr(addr: int) -> int:
    """Align ``addr`` down to its cache-line base."""
    return addr & ~(LINE_SIZE - 1)


def page_index(addr: int) -> int:
    """Page number of ``addr``."""
    return addr >> PAGE_SHIFT


class NucaMap:
    """Static-NUCA mapping of addresses to L3 banks.

    Addresses are interleaved round-robin across ``num_banks`` banks at
    ``interleave`` byte granularity. ``interleave`` must be a multiple
    of the cache line size (the paper uses 64 B, 256 B, 1 kB or 4 kB).
    """

    def __init__(self, num_banks: int, interleave: int = LINE_SIZE) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if interleave < LINE_SIZE or interleave % LINE_SIZE:
            raise ValueError(
                f"interleave must be a multiple of the {LINE_SIZE}B line size"
            )
        if interleave & (interleave - 1):
            raise ValueError("interleave must be a power of two")
        self.num_banks = num_banks
        self.interleave = interleave

    def bank_of(self, addr: int) -> int:
        """L3 bank holding ``addr``."""
        return (addr // self.interleave) % self.num_banks
