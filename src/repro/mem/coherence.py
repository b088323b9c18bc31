"""Coherence protocol messages and the L3 directory.

The chip runs a 3-level MESI protocol with an in-LLC directory: each
L3 bank tracks, for every line it homes, the set of private L2 sharers
and (exclusively) the single owner in M/E state.

The stream-floating extension adds ``GetU`` ("get uncached", Fig 12):
the requested data is returned to the requesting tile's SE_L2 buffer
*without* the requester being recorded as a sharer. If another L2 owns
the line in M state, the request is forwarded and the owner supplies
the data without changing its own state — exactly the three cases in
Figure 12 (present / not present / owned elsewhere).

Message taxonomy (``CohMsg.op``):

==============  =======  ==================================================
op              class    meaning
==============  =======  ==================================================
GetS            ctrl     read request, requester becomes sharer
GetX            ctrl     write request, requester becomes owner
GetU            ctrl     uncached stream read (no directory update)
PutS            ctrl     clean eviction notice (snoop-filter update)
PutM            data     dirty writeback from an L2
PutAck          ctrl     bank acknowledges a PutM
Data            data     line data response to an L2 (grant S/E/M)
DataU           data     uncached line/subline response to an SE_L2
FwdGetS         ctrl     bank asks M/E owner to service a GetS
FwdGetX         ctrl     bank asks owner to service a GetX and invalidate
FwdGetU         ctrl     bank asks owner to service a GetU (Fig 12c)
FwdMiss         ctrl     owner no longer had the line; bank retries
DownData        data     owner's writeback accompanying a FwdGetS downgrade
Inv             ctrl     invalidate a sharer (GetX or LLC back-inval)
InvAck          ctrl     sharer's invalidation acknowledgement
MemRead         ctrl     L3 bank -> memory controller fetch
MemWrite        data     writeback to memory
MemData         data     memory controller -> L3 bank fill
==============  =======  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.mem.addr import LINE_SIZE, line_addr

_LINE_MASK = ~(LINE_SIZE - 1)  # line_addr(), inlined for the hot paths


class CohMsg:
    """A coherence-protocol message body (rides inside a NoC packet)."""

    __slots__ = (
        "op", "addr",
        "requester",  # tile id of the L2/SE that started the transaction
        # Request provenance for Figure 14's L3 request breakdown:
        # "core" (demand/prefetch), "core_stream" (SE_core-issued, not
        # floated), or set by SE_L3 ("float_affine"/"float_ind"/
        # "float_conf").
        "source",
        # Data-grant annotations:
        "grant",       # state granted by a Data response: "S", "E" or "M"
        "dirty",
        "data_bytes",  # subline responses carry less (§IV-B)
        # Stream annotations on GetU/DataU:
        "stream_id", "element",
        "se_info",  # opaque SE_L3 bookkeeping echoed in responses
        # LLC back-invalidation may require the owner to write straight
        # to memory (the bank no longer tracks the line).
        "writeback_to_dram",
        # Bank-internal: request already counted in the L3 request stats
        # (set when a request is parked/replayed, to avoid double
        # counts).
        "seen",
    )

    def __init__(
        self,
        op: str,
        addr: int,
        requester: int,
        source: str = "core",
        grant: str = "",
        dirty: bool = False,
        data_bytes: int = 64,
        stream_id: Optional[int] = None,
        element: Optional[int] = None,
        se_info: object = None,
        writeback_to_dram: bool = False,
        seen: bool = False,
    ) -> None:
        self.op = op
        self.addr = addr
        self.requester = requester
        self.source = source
        self.grant = grant
        self.dirty = dirty
        self.data_bytes = data_bytes
        self.stream_id = stream_id
        self.element = element
        self.se_info = se_info
        self.writeback_to_dram = writeback_to_dram
        self.seen = seen

    def __repr__(self) -> str:
        return (
            f"CohMsg(op={self.op!r}, addr={self.addr:#x}, "
            f"requester={self.requester}, source={self.source!r}, "
            f"grant={self.grant!r}, dirty={self.dirty}, "
            f"data_bytes={self.data_bytes}, stream_id={self.stream_id}, "
            f"element={self.element})"
        )


@dataclass
class DirEntry:
    """Directory state for one line homed at an L3 bank."""

    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None  # tile id holding the line in M/E

    @property
    def idle(self) -> bool:
        return not self.sharers and self.owner is None

    def holders(self) -> Set[int]:
        """All tiles the directory believes hold the line."""
        holders = set(self.sharers)
        if self.owner is not None:
            holders.add(self.owner)
        return holders


class Directory:
    """Sharer/owner tracking for the lines homed at one L3 bank."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirEntry] = {}
        self.invalidations_sent = 0

    def entry(self, addr: int) -> DirEntry:
        base = addr & _LINE_MASK
        entries = self._entries
        if base in entries:
            return entries[base]
        ent = entries[base] = DirEntry()
        return ent

    def peek(self, addr: int) -> Optional[DirEntry]:
        """Entry if one exists, without creating it."""
        base = addr & _LINE_MASK
        entries = self._entries
        return entries[base] if base in entries else None

    def add_sharer(self, addr: int, tile: int) -> None:
        ent = self.entry(addr)
        ent.sharers.add(tile)
        if ent.owner == tile:
            ent.owner = None

    def set_owner(self, addr: int, tile: int) -> None:
        ent = self.entry(addr)
        ent.owner = tile
        ent.sharers.clear()

    def remove(self, addr: int, tile: int) -> None:
        """Drop ``tile`` from the line's sharers/owner (PutS/PutM/Inv)."""
        ent = self._entries.get(line_addr(addr))
        if ent is None:
            return
        ent.sharers.discard(tile)
        if ent.owner == tile:
            ent.owner = None
        if ent.idle:
            del self._entries[line_addr(addr)]

    def clear(self, addr: int) -> Optional[DirEntry]:
        """Forget the line entirely (LLC eviction); returns old entry."""
        return self._entries.pop(line_addr(addr), None)

    def items(self):
        """(line address, entry) pairs for every tracked line."""
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)
