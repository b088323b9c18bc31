"""Decoupled streams and the stream-floating engines."""

from repro.streams.history import HistoryEntry, StreamHistoryTable
from repro.streams.isa import (
    AFFINE_CONFIG_BITS,
    INDIRECT_CONFIG_BITS,
    StreamSpec,
    config_packet_bits,
)
from repro.streams.messages import (
    Credit,
    EndAck,
    EndStream,
    FloatConfig,
    IndFetch,
    Migrate,
)
from repro.streams.pattern import AffinePattern, IndirectPattern
from repro.streams.se_core import CoreStream, SECore
from repro.streams.se_l2 import SEL2
from repro.streams.se_l3 import SEL3

__all__ = [
    "AffinePattern",
    "IndirectPattern",
    "StreamSpec",
    "AFFINE_CONFIG_BITS",
    "INDIRECT_CONFIG_BITS",
    "config_packet_bits",
    "StreamHistoryTable",
    "HistoryEntry",
    "SECore",
    "CoreStream",
    "SEL2",
    "SEL3",
    "FloatConfig",
    "Migrate",
    "EndStream",
    "EndAck",
    "Credit",
    "IndFetch",
]
