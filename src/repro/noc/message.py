"""NoC packets and traffic classification.

Figure 15 classifies traffic into *coherence control*, *data*, and
*stream management* (configuration / migration / termination / flow
control). Every packet carries one of these classes so the network can
maintain the same breakdown.

Flit accounting follows Garnet conventions: a packet is a 64-bit header
plus its payload, serialized onto the configured link width (256-bit
default, Table III; Figure 16 sweeps 128/256/512). A bare control
message is one flit; a full cache-line data response is
``ceil((64 + 512) / link_bits)`` flits — 3 at 256-bit. Subline
responses (indirect floating, SS IV-B) carry only the requested bytes
and thus fewer flits.
"""

from __future__ import annotations

from typing import Any

HEADER_BITS = 64

# Traffic classes (Figure 15's breakdown).
CTRL = "ctrl"  # coherence + request control messages
DATA = "data"  # cache line / subline payload carriers
STREAM = "stream"  # stream config / migrate / end / credit messages

TRAFFIC_CLASSES = (CTRL, DATA, STREAM)


class Packet:
    """One NoC packet.

    ``dst_port`` names the handler at the destination tile ("l2",
    "l3", "dram", "se_l2", "se_l3"); ``body`` is the protocol-level
    message object, opaque to the network.
    """

    __slots__ = ("src", "dst", "kind", "payload_bits", "dst_port", "body")

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        payload_bits: int,
        dst_port: str,
        body: Any = None,
    ) -> None:
        if kind not in TRAFFIC_CLASSES:
            raise ValueError(f"unknown traffic class {kind!r}")
        if payload_bits < 0:
            raise ValueError("payload_bits must be >= 0")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload_bits = payload_bits
        self.dst_port = dst_port
        self.body = body

    def __repr__(self) -> str:
        return (
            f"Packet(src={self.src}, dst={self.dst}, kind={self.kind!r}, "
            f"payload_bits={self.payload_bits}, "
            f"dst_port={self.dst_port!r}, body={self.body!r})"
        )

    def flits(self, link_bits: int) -> int:
        """Number of flits on a link of ``link_bits`` width."""
        total = HEADER_BITS + self.payload_bits
        return max(1, -(-total // link_bits))


def data_payload_bits(data_bytes: int) -> int:
    """Payload bits for a data message carrying ``data_bytes``."""
    return data_bytes * 8


def control_payload_bits(extra_bytes: int = 0) -> int:
    """Payload bits for a control message (address etc. fit in the
    header; ``extra_bytes`` for anything beyond)."""
    return extra_bytes * 8
