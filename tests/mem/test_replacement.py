"""Tests for LRU and Bimodal RRIP replacement.

``CacheArray`` keeps replacement state flat, per array; the per-set
policies in ``replacement_oracle.py`` are the reference it must match.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import cache
from repro.mem.cache import FREE, CacheArray

from .replacement_oracle import OracleArray


def one_set(ways, replacement, seed=0):
    """A one-set array: way w of a fresh array holds line w."""
    return CacheArray(ways * 64, ways, replacement=replacement, seed=seed)


def fill_ways(c, ways):
    for way in range(ways):
        c.fill(way * 64)


def victim_line(c, addr):
    """The line base in the slot ``pick_victim`` offers for ``addr``
    (of a one-set array, whose slots are its ways)."""
    return c._tags[c.pick_victim(addr)]


class TestLru:
    def test_prefers_invalid_ways(self):
        c = one_set(4, "lru")
        fill_ways(c, 4)
        c.invalidate(64)
        slot = c.pick_victim(4 * 64)
        assert slot == 1 and c._tags[slot] == FREE

    def test_evicts_least_recent(self):
        c = one_set(4, "lru")
        fill_ways(c, 4)
        c.lookup(0)  # way 1 is now the oldest
        _, evicted, _ = c.fill(4 * 64)
        assert evicted == 64

    def test_hit_refreshes(self):
        c = one_set(2, "lru")
        fill_ways(c, 2)
        c.lookup(0)
        c.lookup(64)
        c.lookup(0)
        assert victim_line(c, 2 * 64) == 64

    def test_lookup_without_touch_keeps_order(self):
        c = one_set(2, "lru")
        fill_ways(c, 2)
        c.lookup(0, touch=False)
        assert victim_line(c, 2 * 64) == 0


class TestBrrip:
    def test_prefers_invalid_ways(self):
        c = one_set(4, "brrip")
        fill_ways(c, 4)
        c.invalidate(2 * 64)
        slot = c.pick_victim(4 * 64)
        assert slot == 2 and c._tags[slot] == FREE

    def test_distant_insertion_is_default_victim(self, monkeypatch):
        # With p=0 every fill is distant (RRPV 3) and evictable at once.
        monkeypatch.setattr(cache, "BRRIP_P", 0.0)
        c = one_set(2, "brrip")
        fill_ways(c, 2)
        assert list(c._rrpv) == [3, 3]
        c.lookup(0)
        assert c.pick_victim(2 * 64) == 1

    def test_long_insertion_with_p_one(self, monkeypatch):
        monkeypatch.setattr(cache, "BRRIP_P", 1.0)
        c = one_set(2, "brrip")
        fill_ways(c, 2)
        assert list(c._rrpv) == [2, 2]
        # Aging makes both 3; way 0 is picked first deterministically.
        assert c.pick_victim(2 * 64) == 0
        assert list(c._rrpv) == [3, 3]

    def test_hit_protects_line(self):
        c = one_set(2, "brrip")
        fill_ways(c, 2)
        c.lookup(64)
        assert c._rrpv[1] == 0
        assert c.pick_victim(2 * 64) == 0

    def test_aging_picks_lowest_oldest_way(self):
        c = one_set(4, "brrip")
        fill_ways(c, 4)
        for way in range(4):
            c.lookup(way * 64)
        c._rrpv[0] = 0
        c._rrpv[1] = 1
        c._rrpv[2] = 2
        c._rrpv[3] = 2
        # Every way ages by one until the two RRPV-2 ways read 3.
        assert c.pick_victim(4 * 64) == 2
        assert list(c._rrpv) == [1, 2, 3, 3]

    def test_deterministic_given_seed(self):
        a = one_set(8, "brrip", seed=42)
        b = one_set(8, "brrip", seed=42)
        for c in (a, b):
            for n in range(64):
                c.fill(n * 64)
        assert a._rrpv == b._rrpv

    def test_nth_fill_reads_nth_value_of_its_seed(self, monkeypatch):
        # Arrays with one seed share their draws; each set must still
        # insert exactly as a private random.Random(seed + set) would,
        # in any interleaving and whenever its array was built.
        monkeypatch.setattr(cache, "BRRIP_P", 0.5)
        seeds = [90_001, 90_001, 90_002, 90_000]
        arrays = [CacheArray(2 * 64, 1, replacement="brrip", seed=seed)
                  for seed in seeds]
        inserted = {}

        def fill(order):
            for i, set_idx in order:
                c = arrays[i]
                addr = set_idx * 64
                if c.contains(addr):
                    c.invalidate(addr)
                c.fill(addr)
                inserted.setdefault((i, set_idx), []).append(c._rrpv[set_idx])

        fill(((0, 0), (0, 0), (0, 1), (1, 0), (2, 0), (0, 0), (3, 1),
              (1, 1), (2, 1), (2, 0), (0, 0), (1, 0), (3, 0), (3, 1)))
        # One more array of the first seed, built after the others have
        # drawn from it.
        seeds.append(90_001)
        arrays.append(CacheArray(2 * 64, 1, replacement="brrip", seed=90_001))
        fill(((4, 0), (4, 1), (0, 0), (4, 0), (1, 1), (4, 1), (4, 0),
              (4, 0), (4, 1)))
        for (i, set_idx), rrpvs in inserted.items():
            rng = random.Random(seeds[i] + set_idx)
            assert rrpvs == [2 if rng.random() < 0.5 else 3 for _ in rrpvs]
        assert {2, 3} <= set(inserted[(0, 0)])  # both insertions occurred

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
    def test_victim_always_valid_way(self, hits):
        c = one_set(8, "brrip", seed=1)
        fill_ways(c, 8)
        for way in hits:
            c.lookup(way * 64)
        slot = c.pick_victim(8 * 64)
        assert 0 <= slot < 8 and c._tags[slot] != FREE


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown replacement policy"):
        CacheArray(1024, 2, replacement="plru")


# ----------------------------------------------------------------------
# the flat state against the per-set reference
# ----------------------------------------------------------------------
SETS = 2

_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["fill", "fill", "lookup", "peek", "invalidate", "pick", "dirty"],
        ),
        st.integers(min_value=0, max_value=63),  # line number
        st.frozensets(st.integers(min_value=0, max_value=63), max_size=8),  # pinned
        st.booleans(),  # a fill's dirty bit
    ),
    min_size=10,
    max_size=150,
)


@settings(max_examples=300, deadline=None)
@given(
    replacement=st.sampled_from(["lru", "brrip"]),
    ways=st.sampled_from([1, 2, 4, 8, 16]),
    seed=st.integers(min_value=0, max_value=1000),
    extra=st.integers(min_value=1, max_value=32),
    ops=_ops,
)
def test_flat_state_matches_per_set_policies(replacement, ways, seed, extra, ops):
    """Every victim, filled slot and evicted address equals the
    reference's under a random mix of clean and dirty fills, touching
    and non-touching lookups, invalidations, dirtying hits and victim
    picks with random pinned sets, over ``extra`` more lines than the
    array holds; every evicted or dropped line carries its dirty bit."""
    size = SETS * ways * 64
    lines = SETS * ways + extra
    flat = CacheArray(size, ways, replacement=replacement, seed=seed)
    ref = OracleArray(size, ways, replacement, seed=seed)
    dirty = {}  # line base -> dirty bit, for the lines the array holds
    for op, n, pins, fill_dirty in ops:
        addr = (n % lines) * 64
        pinned = {(k % lines) * 64 for k in pins}
        avoid = pinned.__contains__ if pinned else None
        if op == "fill":
            if flat.contains(addr):
                continue
            try:
                slot, evicted, evicted_dirty = flat.fill(
                    addr, dirty=fill_dirty, avoid=avoid,
                )
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    ref.fill(addr, avoid=avoid)
                continue
            assert evicted == ref.fill(addr, avoid=avoid)
            assert divmod(slot, ways) == ref._where[addr]
            expected_dirty = False if evicted is None else dirty.pop(evicted)
            assert evicted_dirty is expected_dirty
            dirty[addr] = fill_dirty
        elif op in ("lookup", "peek"):
            slot = flat.lookup(addr, touch=op == "lookup")
            assert (None if slot is None else flat._tags[slot]) == \
                ref.lookup(addr, touch=op == "lookup")
        elif op == "dirty":
            slot = flat.lookup(addr)
            if slot is not None:
                ref.lookup(addr)
                flat.dirty[slot] = 1
                dirty[addr] = True
        elif op == "invalidate":
            dropped = flat.invalidate(addr)
            assert (None if dropped is None else addr) == ref.invalidate(addr)
            if dropped is not None:
                assert dropped is dirty.pop(addr)
        else:
            try:
                slot = flat.pick_victim(addr, avoid=avoid)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    ref.pick_victim(addr, avoid=avoid)
                continue
            tag = flat._tags[slot]
            assert slot // ways == flat.set_of(addr)
            assert (slot % ways, tag if tag != FREE else None) == \
                ref.pick_victim(addr, avoid=avoid)
    assert sorted(flat.lines()) == sorted(ref._where)
    assert {base: flat.dirty[flat.lookup(base, touch=False)] == 1
            for base in flat.lines()} == dirty
