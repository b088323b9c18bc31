"""Memory system: caches, coherence, DRAM, TLBs, address math."""

from repro.mem.addr import LINE_SIZE, PAGE_SIZE, NucaMap, line_addr
from repro.mem.cache import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    CacheArray,
)
from repro.mem.coherence import CohMsg, DirEntry, Directory
from repro.mem.dram import DramController, DramSystem
from repro.mem.l1 import L1Cache, L1Request
from repro.mem.l2 import L2AccessResult, L2Cache, L2Request
from repro.mem.l3 import L3Bank
from repro.mem.mshr import MshrEntry, MshrFile
from repro.mem.tlb import Tlb

__all__ = [
    "LINE_SIZE",
    "PAGE_SIZE",
    "NucaMap",
    "line_addr",
    "CacheArray",
    "INVALID",
    "SHARED",
    "EXCLUSIVE",
    "MODIFIED",
    "CohMsg",
    "Directory",
    "DirEntry",
    "DramController",
    "DramSystem",
    "L1Cache",
    "L1Request",
    "L2Cache",
    "L2Request",
    "L2AccessResult",
    "L3Bank",
    "MshrFile",
    "MshrEntry",
    "Tlb",
]
