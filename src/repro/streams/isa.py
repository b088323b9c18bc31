"""Decoupled-stream ISA: stream specifications and configuration
packets (Table I).

Workloads declare their streams as :class:`StreamSpec` objects, which
is the information a ``stream_cfg`` instruction carries. The packet
encodings below reproduce Table I: a full 3-level affine
configuration is 450 bits (less than one cache line) and each chained
indirect stream appends 60 bits.

In the core model a ``stream_load`` both consumes the current element
and advances the stream (the common case; the ISA's separate
``stream_step`` enabling control-dependent use is folded in, since
our workloads' iteration traces already resolve control flow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.streams.pattern import AffinePattern, IndirectPattern

# --- Table I field widths (bits) ---
AFFINE_FIELDS = {
    "cid": 6,  # core id (64 cores)
    "sid": 4,  # stream id (12 streams/core)
    "base": 48,  # base virtual address
    "strd": 48 * 3,  # memory stride x3 levels
    "ptable": 48,  # page table address
    "iter": 48,  # current iteration
    "size": 8,  # element size
    "len": 48 * 3,  # length x3 levels
}
AFFINE_CONFIG_BITS = sum(AFFINE_FIELDS.values())  # 450 (Table I)

INDIRECT_FIELDS = {
    "sid": 4,
    "base": 48,
    "size": 8,
}
INDIRECT_CONFIG_BITS = sum(INDIRECT_FIELDS.values())  # 60 (Table I)

# Float-plan change point (streams/plan.py): an element index plus a
# 2-bit serving-level selector. A classic config's single change point
# rides the existing start_idx field; each further point costs this.
PLAN_FIELDS = {
    "elem": 48,  # change-point element index (iter width)
    "level": 2,  # core / l2 / l3 selector
}
PLAN_POINT_BITS = sum(PLAN_FIELDS.values())  # 50


@dataclass
class StreamSpec:
    """One stream as configured by ``stream_cfg``.

    ``pattern.elem_size`` is the granule the core consumes per
    ``stream_load`` (64 B for AVX-512 vector streams, the field size
    for scalar/indirect streams).
    """

    sid: int
    pattern: Union[AffinePattern, IndirectPattern]
    kind: str = "load"  # "load" or "store"
    # For indirect streams: the sid of the affine index stream this
    # stream chains from (must be configured in the same stream_cfg).
    parent_sid: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("load", "store"):
            raise ValueError(f"bad stream kind {self.kind!r}")
        if self.is_indirect and self.parent_sid is None:
            raise ValueError("indirect streams need a parent_sid")
        if not self.is_indirect and self.parent_sid is not None:
            raise ValueError("affine streams cannot have a parent")

    @property
    def is_indirect(self) -> bool:
        return isinstance(self.pattern, IndirectPattern)

    @property
    def length(self) -> int:
        return len(self.pattern)

    def config_bits(self) -> int:
        """Configuration packet contribution of this stream."""
        return INDIRECT_CONFIG_BITS if self.is_indirect else AFFINE_CONFIG_BITS


def config_packet_bits(specs: List[StreamSpec]) -> int:
    """Total bits of a stream configuration packet (SS IV-A/IV-B)."""
    return sum(spec.config_bits() for spec in specs)


# --- kernel-level stream instructions -------------------------------------


@dataclass
class StreamCfg:
    """Configure a group of streams before a loop."""

    specs: List[StreamSpec]


@dataclass
class StreamEnd:
    """Deconstruct streams after the loop (enables early termination)."""

    sids: List[int]
