"""Tests for address arithmetic and NUCA interleaving."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.addr import (
    LINE_SIZE,
    NucaMap,
    line_addr,
    page_index,
)


def test_line_alignment():
    assert line_addr(0x1234) == 0x1200
    assert line_addr(0x1240) == 0x1240


def test_page_alignment():
    assert page_index(0x12345) == 0x12
    assert page_index(0xFFF) == 0


def test_same_line_and_page():
    assert line_addr(0x100) == line_addr(0x13F)
    assert line_addr(0x100) != line_addr(0x140)
    assert page_index(0x1000) == page_index(0x1FFF)
    assert page_index(0x1000) != page_index(0x2000)


@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_line_addr_idempotent(addr):
    assert line_addr(line_addr(addr)) == line_addr(addr)
    assert line_addr(addr) <= addr < line_addr(addr) + LINE_SIZE


class TestNucaMap:
    def test_round_robin_at_line_grain(self):
        nuca = NucaMap(num_banks=4, interleave=64)
        banks = [nuca.bank_of(i * 64) for i in range(8)]
        assert banks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_coarse_interleave(self):
        nuca = NucaMap(num_banks=4, interleave=1024)
        assert nuca.bank_of(0) == nuca.bank_of(1023)
        assert nuca.bank_of(1024) == 1
        assert nuca.bank_of(4096) == 0

    def test_same_bank(self):
        nuca = NucaMap(num_banks=16, interleave=256)
        assert nuca.bank_of(0) == nuca.bank_of(255)
        assert nuca.bank_of(0) != nuca.bank_of(256)

    def test_rejects_sub_line_interleave(self):
        with pytest.raises(ValueError):
            NucaMap(num_banks=4, interleave=32)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            NucaMap(num_banks=4, interleave=192)

    @given(
        st.integers(min_value=0, max_value=2**40),
        st.sampled_from([64, 256, 1024, 4096]),
    )
    def test_banks_in_range(self, addr, interleave):
        nuca = NucaMap(num_banks=16, interleave=interleave)
        assert 0 <= nuca.bank_of(addr) < 16

    @given(st.integers(min_value=0, max_value=2**40))
    def test_chunk_contains_addr(self, addr):
        """Every address of an interleave chunk maps to one bank."""
        nuca = NucaMap(num_banks=8, interleave=1024)
        base = addr & ~1023
        assert nuca.bank_of(addr) == nuca.bank_of(base) \
            == nuca.bank_of(base + 1023)
