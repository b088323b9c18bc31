"""Tests for affine and indirect stream patterns."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.mem.addr import line_addr
from repro.streams.pattern import AffinePattern, IndirectPattern

# Positive, negative and zero strides over 1-, 2- and 3-level patterns.
_strides = st.one_of(st.just(0), st.integers(-300, -1), st.integers(1, 300))
affine_patterns = st.integers(1, 3).flatmap(lambda levels: st.builds(
    AffinePattern,
    base=st.integers(2**20, 2**32),
    strides=st.tuples(*[_strides] * levels),
    lengths=st.tuples(*[st.integers(1, 9)] * levels),
    elem_size=st.sampled_from([1, 4, 8, 64]),
))


def walk_line_run(pat, idx, limit):
    """``line_run_length`` one ``address()`` call per element."""
    limit = min(limit, len(pat) - idx)
    line = line_addr(pat.address(idx))
    count = 1
    while count < limit and line_addr(pat.address(idx + count)) == line:
        count += 1
    return count


class TestAffine:
    def test_1d_dense(self):
        pat = AffinePattern(base=0x1000, strides=(8,), lengths=(10,), elem_size=8)
        assert len(pat) == 10
        assert pat.address(0) == 0x1000
        assert pat.address(9) == 0x1000 + 72

    def test_2d_row_major(self):
        # A[i][j] over 4x3: inner j stride 8, outer i stride 64.
        pat = AffinePattern(base=0, strides=(8, 64), lengths=(3, 4))
        addrs = [pat.address(i) for i in range(len(pat))]
        assert addrs == [0, 8, 16, 64, 72, 80, 128, 136, 144, 192, 200, 208]

    def test_3d(self):
        pat = AffinePattern(base=0, strides=(8, 100, 10000), lengths=(2, 3, 2))
        assert len(pat) == 12
        assert pat.address(11) == 8 + 2 * 100 + 1 * 10000

    def test_strided_skips(self):
        pat = AffinePattern(base=0, strides=(128,), lengths=(4,), elem_size=64)
        assert [pat.address(i) for i in range(4)] == [0, 128, 256, 384]

    def test_out_of_range_rejected(self):
        pat = AffinePattern(base=0, strides=(8,), lengths=(4,))
        with pytest.raises(IndexError):
            pat.address(4)
        with pytest.raises(IndexError):
            pat.address(-1)

    def test_footprint_dense(self):
        pat = AffinePattern(base=0, strides=(64,), lengths=(16,), elem_size=64)
        assert pat.footprint_bytes() == 16 * 64

    def test_footprint_negative_stride(self):
        pat = AffinePattern(base=1024, strides=(-64,), lengths=(8,), elem_size=64)
        assert pat.footprint_bytes() == 8 * 64

    def test_lines_dedup(self):
        pat = AffinePattern(base=0, strides=(8,), lengths=(16,), elem_size=8)
        assert pat.lines() == [0, 64]

    def test_same_shape(self):
        a = AffinePattern(base=0, strides=(64,), lengths=(8,), elem_size=64)
        b = AffinePattern(base=0, strides=(64,), lengths=(8,), elem_size=64)
        c = AffinePattern(base=64, strides=(64,), lengths=(8,), elem_size=64)
        assert a.same_shape(b)
        assert not a.same_shape(c)

    def test_validation(self):
        with pytest.raises(ValueError):
            AffinePattern(base=0, strides=(), lengths=())
        with pytest.raises(ValueError):
            AffinePattern(base=0, strides=(8, 8, 8, 8), lengths=(1, 1, 1, 1))
        with pytest.raises(ValueError):
            AffinePattern(base=0, strides=(8,), lengths=(0,))
        with pytest.raises(ValueError):
            AffinePattern(base=0, strides=(8, 8), lengths=(2,))

    @given(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=1, max_value=100),
    )
    def test_1d_address_formula(self, base, stride, length):
        pat = AffinePattern(base=base, strides=(stride,), lengths=(length,))
        for idx in (0, length // 2, length - 1):
            assert pat.address(idx) == base + idx * stride

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
    def test_2d_covers_cartesian_product(self, inner, outer):
        pat = AffinePattern(base=0, strides=(1, 1000), lengths=(inner, outer))
        addrs = {pat.address(i) for i in range(len(pat))}
        expected = {j + 1000 * i for i in range(outer) for j in range(inner)}
        assert addrs == expected

    @given(affine_patterns, st.data())
    def test_addresses_match_address(self, pat, data):
        start = data.draw(st.integers(0, len(pat)))
        count = data.draw(st.integers(0, len(pat) - start))
        addrs = pat.addresses(start, count)
        assert type(addrs) is list
        assert all(type(addr) is int for addr in addrs)
        assert addrs == [pat.address(i) for i in range(start, start + count)]

    @given(affine_patterns, st.integers(-12, 800), st.integers(-4, 800))
    def test_addresses_out_of_range_rejected(self, pat, start, count):
        assume(count < 0 or start < 0 or start + count > len(pat))
        with pytest.raises(IndexError):
            pat.addresses(start, count)

    @given(affine_patterns, st.data())
    def test_line_run_length_matches_walk(self, pat, data):
        idx = data.draw(st.integers(0, len(pat) - 1))
        limit = data.draw(st.integers(1, len(pat) + 4))
        assert pat.line_run_length(idx, limit) == walk_line_run(pat, idx, limit)


class TestIndirect:
    def make(self, values, scale=8, field_offset=0):
        index = AffinePattern(
            base=0x10000, strides=(8,), lengths=(len(values),), elem_size=8,
        )
        return IndirectPattern(
            base=0x200000, index_pattern=index,
            index_array=np.asarray(values, dtype=np.int64),
            scale=scale, field_offset=field_offset,
        )

    def test_addresses_follow_index_array(self):
        pat = self.make([5, 0, 9])
        assert pat.address(0) == 0x200000 + 5 * 8
        assert pat.address(1) == 0x200000
        assert pat.address(2) == 0x200000 + 9 * 8

    def test_field_offset(self):
        pat = self.make([2], scale=16, field_offset=4)
        assert pat.address(0) == 0x200000 + 32 + 4

    def test_length_matches_index_stream(self):
        pat = self.make([1, 2, 3, 4])
        assert len(pat) == 4

    def test_index_value_roundtrip(self):
        values = [7, 3, 1, 0]
        pat = self.make(values)
        for i, v in enumerate(values):
            assert pat.index_value(i) == v

    def test_strided_index_stream(self):
        # Walk every other entry of A.
        index = AffinePattern(base=0, strides=(16,), lengths=(3,), elem_size=8)
        pat = IndirectPattern(
            base=0, index_pattern=index,
            index_array=np.arange(10, dtype=np.int64), scale=8,
        )
        assert [pat.index_value(i) for i in range(3)] == [0, 2, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make([1], scale=0)
