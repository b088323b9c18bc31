"""Tests for the set-associative cache array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import EXCLUSIVE, MODIFIED, SHARED, CacheArray


def make_cache(size=1024, ways=2, replacement="lru"):
    return CacheArray(size, ways, replacement=replacement)


def test_miss_then_hit():
    c = make_cache()
    assert c.lookup(0x40) is None
    line, evicted = c.fill(0x40, SHARED, now=5)
    assert evicted is None
    assert line.addr == 0x40
    assert line.state == SHARED
    assert line.fill_cycle == 5
    hit = c.lookup(0x7F)  # same line
    assert hit is line


def test_fill_duplicate_rejected():
    c = make_cache()
    c.fill(0x40, SHARED)
    with pytest.raises(ValueError):
        c.fill(0x40, SHARED)


def test_eviction_returns_victim_copy():
    c = make_cache(size=256, ways=2)  # 2 sets
    sets = c.num_sets
    stride = sets * 64
    # Fill both ways of set 0, then a third line evicts the LRU one.
    first, _ = c.fill(0x0, SHARED)
    first.uses = 3
    c.fill(stride, SHARED)
    _, evicted = c.fill(2 * stride, SHARED)
    assert evicted is not None
    assert evicted.addr == 0x0
    assert evicted.uses == 3  # metadata preserved on the copy
    assert c.lookup(0x0) is None


def test_dirty_and_metadata_reset_on_fill():
    c = make_cache()
    line, _ = c.fill(0x80, MODIFIED, prefetched=True, stream_id=7, fill_flits=3)
    line.dirty = True
    line.uses = 5
    c.invalidate(0x80)
    line2, _ = c.fill(0x80, SHARED)
    assert line2.dirty is False
    assert line2.uses == 0
    assert line2.prefetched is False
    assert line2.stream_id is None
    assert line2.fill_flits == 0


def test_invalidate_returns_copy():
    c = make_cache()
    line, _ = c.fill(0xC0, EXCLUSIVE)
    line.dirty = True
    dropped = c.invalidate(0xC0)
    assert dropped.dirty is True
    assert dropped.state == EXCLUSIVE
    assert not c.contains(0xC0)
    assert c.invalidate(0xC0) is None


def test_set_mapping_isolated():
    c = make_cache(size=512, ways=2)  # 4 sets
    # Lines in different sets never evict each other.
    for i in range(4):
        c.fill(i * 64, SHARED)
    assert c.occupancy() == 4
    for i in range(4):
        assert c.contains(i * 64)


def test_lru_order_respected():
    c = make_cache(size=256, ways=2)
    sets = c.num_sets
    stride = sets * 64
    c.fill(0, SHARED)
    c.fill(stride, SHARED)
    c.lookup(0)  # refresh line 0
    _, evicted = c.fill(2 * stride, SHARED)
    assert evicted.addr == stride


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        CacheArray(1000, 3)
    with pytest.raises(ValueError):
        CacheArray(64 * 3 * 2, 2)  # 3 sets: not a power of two


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(line_numbers):
    c = CacheArray(4096, 4, replacement="brrip")
    capacity = 4096 // 64
    for n in line_numbers:
        addr = n * 64
        if not c.contains(addr):
            c.fill(addr, SHARED)
        assert c.occupancy() <= capacity
    # Internal index consistent with the arrays.
    assert c.occupancy() == len(c.all_lines())


@given(st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=200))
def test_lookup_matches_fill_history(line_numbers):
    """A line is present iff it was filled and not evicted since."""
    c = CacheArray(2048, 2)
    present = set()
    for n in line_numbers:
        addr = n * 64
        if c.contains(addr):
            assert addr in present
            c.lookup(addr)
        else:
            _, evicted = c.fill(addr, SHARED)
            present.add(addr)
            if evicted is not None:
                present.discard(evicted.addr)
    for addr in present:
        assert c.contains(addr)
