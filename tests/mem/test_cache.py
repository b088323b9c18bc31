"""Tests for the set-associative cache array."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheArray


def make_cache(size=1024, ways=2, replacement="lru"):
    return CacheArray(size, ways, replacement=replacement)


def test_miss_then_hit():
    c = make_cache()
    assert c.lookup(0x40) is None
    slot, evicted, evicted_dirty = c.fill(0x40)
    assert evicted is None and evicted_dirty is False
    assert c.lines() == [0x40]
    assert c.lookup(0x7F) == slot  # same line


def test_fill_duplicate_rejected():
    c = make_cache()
    c.fill(0x40)
    with pytest.raises(ValueError):
        c.fill(0x40)


def test_eviction_returns_victim_copy():
    # The evicted line comes back as its base and dirty bit; the
    # controllers' own fields for the slot still hold its values.
    c = make_cache(size=256, ways=2)  # 2 sets
    sets = c.num_sets
    stride = sets * 64
    # Fill both ways of set 0, then a third line evicts the LRU one.
    first, _, _ = c.fill(0x0, dirty=True)
    c.fill(stride)
    slot, evicted, evicted_dirty = c.fill(2 * stride)
    assert (slot, evicted, evicted_dirty) == (first, 0x0, True)
    assert not c.dirty[slot]  # the new line is clean
    assert c.lookup(0x0) is None
    _, evicted, evicted_dirty = c.fill(3 * stride)
    assert (evicted, evicted_dirty) == (stride, False)


def test_dirty_and_metadata_reset_on_fill():
    c = make_cache()
    slot, _, _ = c.fill(0x80, dirty=True)
    assert c.dirty[slot]
    assert c.invalidate(0x80) is True
    assert not c.dirty[slot]
    again, _, _ = c.fill(0x80)
    assert again == slot and not c.dirty[again]


def test_invalidate_returns_copy():
    # invalidate() returns the dropped line's dirty bit.
    c = make_cache()
    slot, _, _ = c.fill(0xC0)
    c.dirty[slot] = 1
    assert c.invalidate(0xC0) is True
    assert not c.contains(0xC0)
    assert c.invalidate(0xC0) is None
    c.fill(0xC0)
    assert c.invalidate(0xC0) is False


def test_address_zero_is_a_line():
    # An empty way's tag is negative: line 0 is not mistaken for one.
    c = make_cache(size=128, ways=2)  # 1 set
    first, _, _ = c.fill(0x0)
    second, evicted, _ = c.fill(0x40)
    assert (first, second, evicted) == (0, 1, None)
    assert c.lines() == [0x0, 0x40]
    assert c.contains(0x0) and c.lookup(0x0) == 0


def test_set_mapping_isolated():
    c = make_cache(size=512, ways=2)  # 4 sets
    # Lines in different sets never evict each other.
    for i in range(4):
        c.fill(i * 64)
    assert c.occupancy() == 4
    for i in range(4):
        assert c.contains(i * 64)


def test_lru_order_respected():
    c = make_cache(size=256, ways=2)
    sets = c.num_sets
    stride = sets * 64
    c.fill(0)
    c.fill(stride)
    c.lookup(0)  # refresh line 0
    _, evicted, _ = c.fill(2 * stride)
    assert evicted == stride


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
            c.fill(addr)
        assert c.occupancy() <= capacity
    # Internal index consistent with the arrays.
    assert c.occupancy() == len(c.lines())


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
            _, evicted, _ = c.fill(addr)
            present.add(addr)
            if evicted is not None:
                present.discard(evicted)
    for addr in present:
        assert c.contains(addr)


LINES = 1024  # slots of the arrays below: most slot numbers exceed 256


def _fill_all(c):
    # Line addresses above 2**30, so no base is a cached small int.
    for n in range(1 << 24, (1 << 24) + LINES):
        c.fill(n * 64)


def test_fills_build_no_tracked_objects():
    """A line is a slot, not an object: filling every way of a built
    array leaves the GC tracking exactly what it tracked before (one
    line object per way while lines were objects). LRU, because BRRIP
    builds one generator per seed it has not seen."""
    c = CacheArray(LINES * 64, 4)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        _fill_all(c)
        after = len(gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    assert c.occupancy() == LINES
    assert after == before


def test_fill_memory_per_line():
    """A filled line costs its base int and its map entry: under 96
    traced bytes (~69), where a line object, a slot int, the base int
    and the map entry took ~210."""
    c = CacheArray(LINES * 64, 4)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        _fill_all(c)
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.occupancy() == LINES
    assert (end - start) / LINES < 96


def _one_set_brrip(ways, pinned):
    """A full one-set BRRIP array whose ``pinned`` low ways sit at RRPV
    3 and whose other ways were just hit (RRPV 0)."""
    c = CacheArray(ways * 64, ways, replacement="brrip")
    for way in range(ways):
        c.fill(way * 64)
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
    slot = c.pick_victim(ways * 64, avoid=pinned_addrs.__contains__)
    assert slot >= pinned  # one set: slot == way
    assert c.lines()[slot] not in pinned_addrs


def test_all_ways_pinned_raises():
    c, _ = _one_set_brrip(4, 0)
    with pytest.raises(RuntimeError, match="all ways pinned"):
        c.pick_victim(4 * 64, avoid=lambda addr: True)


def test_pinned_lru_way_skipped_for_next_oldest():
    c = make_cache(size=256, ways=4)  # 1 set
    for way in range(4):
        c.fill(way * 64)
    c.lookup(64)  # way 1 is now the newest; way 0 oldest, then way 2
    slot = c.pick_victim(4 * 64, avoid=lambda addr: addr == 0)
    assert (slot, c.lines()[slot]) == (2, 2 * 64)
