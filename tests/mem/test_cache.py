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
    line, evicted = c.fill(0x40, SHARED)
    assert evicted is None
    assert line.addr == 0x40
    assert line.state == SHARED
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
    line, _ = c.fill(0x80, MODIFIED, stream_id=7, fill_flits=3)
    line.dirty = True
    line.uses = 5
    c.invalidate(0x80)
    line2, _ = c.fill(0x80, SHARED)
    assert line2.dirty is False
    assert line2.uses == 0
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


def test_line_built_by_first_fill_and_kept():
    c = make_cache(size=128, ways=2)  # 1 set
    assert c._slots == [None, None]
    line, _ = c.fill(0x40, SHARED)
    assert c._slots == [line, None]
    c.invalidate(0x40)
    again, _ = c.fill(0x80, EXCLUSIVE)
    assert again is line
    assert c._slots == [line, None]


def _one_set_brrip(ways, pinned):
    """A full one-set BRRIP array whose ``pinned`` low ways sit at RRPV
    3 and whose other ways were just hit (RRPV 0)."""
    c = CacheArray(ways * 64, ways, replacement="brrip")
    for way in range(ways):
        c.fill(way * 64, SHARED)
    for way in range(pinned, ways):
        c.lookup(way * 64)
    for way in range(pinned):
        c._rrpv[way] = 3
    return c, {way * 64 for way in range(pinned)}


@pytest.mark.parametrize("ways,pinned", [(2, 1), (4, 2), (16, 8), (16, 7)])
def test_pinned_ways_skipped_under_brrip(ways, pinned):
    # Promoting a pinned way and aging can hand the same way back every
    # attempt; an unpinned way must still be found.
    c, pinned_addrs = _one_set_brrip(ways, pinned)
    way, line = c.pick_victim(ways * 64, avoid=pinned_addrs.__contains__)
    assert way >= pinned
    assert line.addr not in pinned_addrs


def test_all_ways_pinned_raises():
    c, _ = _one_set_brrip(4, 0)
    with pytest.raises(RuntimeError, match="all ways pinned"):
        c.pick_victim(4 * 64, avoid=lambda addr: True)


def test_pinned_lru_way_skipped_for_next_oldest():
    c = make_cache(size=256, ways=4)  # 1 set
    for way in range(4):
        c.fill(way * 64, SHARED)
    c.lookup(64)  # way 1 is now the newest; way 0 oldest, then way 2
    way, line = c.pick_victim(4 * 64, avoid=lambda addr: addr == 0)
    assert (way, line.addr) == (2, 2 * 64)
