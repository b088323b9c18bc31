"""Stream-management message bodies (config / migrate / end / credit).

These ride in NoC packets of traffic class ``STREAM`` — the "extra
messages to manage floating streams" band in Figure 15. Payload sizes
follow Table I (450-bit affine config, +60 bits per indirect stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.streams.isa import (
    AFFINE_FIELDS,
    StreamSpec,
    config_packet_bits,
)
from repro.streams.plan import FloatPlan


@dataclass
class FloatConfig:
    """SE_L2 -> SE_L3: float a stream (plus chained indirect streams)."""

    spec: StreamSpec
    children: List[StreamSpec]
    start_idx: int
    credits: int
    requester: int
    # Incarnation counter: a stream sid may float, end, and float again;
    # the epoch lets SE_L3s drop stale credits/ends from an earlier life.
    epoch: int = 0
    # Per-range float plan (None: classic all-L3 float). Extra change
    # points cost PLAN_POINT_BITS each on the wire.
    plan: Optional[FloatPlan] = None

    def bits(self) -> int:
        return config_packet_bits([self.spec] + list(self.children)) + \
            (self.plan.extra_bits() if self.plan is not None else 0)


@dataclass
class Migrate:
    """SE_L3 -> SE_L3: stream crosses a NUCA interleave boundary."""

    spec: StreamSpec
    children: List[StreamSpec]
    next_idx: int
    credits: int
    requester: int
    epoch: int = 0
    plan: Optional[FloatPlan] = None

    def bits(self) -> int:
        # Config fields plus the current iteration and credit count.
        return config_packet_bits([self.spec] + list(self.children)) + \
            AFFINE_FIELDS["iter"] + 16 + \
            (self.plan.extra_bits() if self.plan is not None else 0)


@dataclass
class EndStream:
    """SE_L2 -> SE_L3: terminate a floating stream (early end / sink)."""

    requester: int
    sid: int
    epoch: int = 0

    def bits(self) -> int:
        return 16


@dataclass
class EndAck:
    """SE_L3 -> SE_L2: termination acknowledged."""

    sid: int

    def bits(self) -> int:
        return 16


@dataclass
class Credit:
    """SE_L2 -> SE_L3: coarse-grained flow-control credit grant."""

    requester: int
    sid: int
    count: int
    epoch: int = 0

    def bits(self) -> int:
        return 32


@dataclass
class StreamInv:
    """SE_L3 -> SE_L2 (stream-grain coherence, SS V-B): another core
    wrote into this stream's fetched range — the stream must
    re-execute (sink); its buffered data is stale."""

    sid: int
    addr: int

    def bits(self) -> int:
        return 64


@dataclass
class IndFetch:
    """SE_L3 -> SE_L3: fetch one indirect element at its home bank and
    respond (subline) directly to the requesting tile."""

    requester: int
    sid: int
    element: int
    addr: int
    data_bytes: int

    def bits(self) -> int:
        return 64
