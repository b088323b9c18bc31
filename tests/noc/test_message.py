"""Tests for NoC packet encoding and flit math."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc.message import (
    CTRL,
    DATA,
    HEADER_BITS,
    STREAM,
    TRAFFIC_CLASSES,
    Packet,
    control_payload_bits,
    data_payload_bits,
)


def test_traffic_classes():
    assert set(TRAFFIC_CLASSES) == {CTRL, DATA, STREAM}


def test_header_bits():
    assert HEADER_BITS == 64


def test_payload_helpers():
    assert data_payload_bits(64) == 512
    assert data_payload_bits(4) == 32
    assert control_payload_bits() == 0
    assert control_payload_bits(6) == 48


def test_minimum_one_flit():
    pkt = Packet(src=0, dst=1, kind=CTRL, payload_bits=0, dst_port="x")
    assert pkt.flits(4096) == 1


def test_stream_config_flits():
    # A 450-bit stream config (Table I) plus header: 3 flits at 256b.
    pkt = Packet(src=0, dst=1, kind=STREAM, payload_bits=450, dst_port="x")
    assert pkt.flits(256) == 3
    assert pkt.flits(512) == 2


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, kind=CTRL, payload_bits=-1, dst_port="x")


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([64, 128, 256, 512]),
)
def test_flits_cover_payload_exactly(payload, width):
    pkt = Packet(src=0, dst=1, kind=DATA, payload_bits=payload, dst_port="x")
    flits = pkt.flits(width)
    total = payload + HEADER_BITS
    assert flits * width >= total
    assert (flits - 1) * width < total or flits == 1


@given(st.integers(min_value=1, max_value=64))
def test_subline_monotone(data_bytes):
    """Bigger payloads never take fewer flits."""
    small = Packet(src=0, dst=1, kind=DATA,
                   payload_bits=data_payload_bits(data_bytes), dst_port="x")
    full = Packet(src=0, dst=1, kind=DATA,
                  payload_bits=data_payload_bits(64), dst_port="x")
    assert small.flits(256) <= full.flits(256)
