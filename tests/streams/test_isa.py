"""Tests for ISA encodings — reproduces Table I's sizes."""

import numpy as np
import pytest

from repro.streams.isa import (
    AFFINE_CONFIG_BITS,
    INDIRECT_CONFIG_BITS,
    StreamSpec,
    config_packet_bits,
)
from repro.streams.pattern import AffinePattern, IndirectPattern


def affine_spec(sid=0, length=16, kind="load"):
    return StreamSpec(
        sid=sid,
        pattern=AffinePattern(base=0, strides=(64,), lengths=(length,), elem_size=64),
        kind=kind,
    )


def indirect_spec(sid=1, parent=0, n=8):
    index = AffinePattern(base=0, strides=(8,), lengths=(n,), elem_size=8)
    return StreamSpec(
        sid=sid,
        pattern=IndirectPattern(
            base=0x1000, index_pattern=index,
            index_array=np.arange(n, dtype=np.int64),
        ),
        parent_sid=parent,
    )


def test_affine_config_is_450_bits():
    """Table I: the total affine configuration is 450 bits, less than
    one 512-bit cache line."""
    assert AFFINE_CONFIG_BITS == 450
    assert AFFINE_CONFIG_BITS < 512


def test_indirect_config_is_60_bits():
    """Table I: each indirect stream appends 60 bits."""
    assert INDIRECT_CONFIG_BITS == 60


def test_config_packet_sums_streams():
    specs = [affine_spec(0), indirect_spec(1, parent=0)]
    assert config_packet_bits(specs) == 450 + 60


def test_spec_kind_validation():
    with pytest.raises(ValueError):
        affine_spec(kind="readwrite")


def test_indirect_requires_parent():
    index = AffinePattern(base=0, strides=(8,), lengths=(4,), elem_size=8)
    pat = IndirectPattern(base=0, index_pattern=index,
                          index_array=np.arange(4, dtype=np.int64))
    with pytest.raises(ValueError):
        StreamSpec(sid=1, pattern=pat)  # missing parent_sid


def test_affine_rejects_parent():
    with pytest.raises(ValueError):
        StreamSpec(
            sid=0,
            pattern=AffinePattern(base=0, strides=(64,), lengths=(4,), elem_size=64),
            parent_sid=3,
        )


def test_spec_length():
    assert affine_spec(length=37).length == 37
