"""Tests for LRU and Bimodal RRIP replacement."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.replacement import BrripPolicy, LruPolicy, make_policy


class TestLru:
    def test_prefers_invalid_ways(self):
        lru = LruPolicy(4)
        assert lru.victim([True, False, True, True]) == 1

    def test_evicts_least_recent(self):
        lru = LruPolicy(4)
        for way in range(4):
            lru.on_fill(way)
        lru.on_hit(0)  # 1 now oldest
        assert lru.victim([True] * 4) == 1

    def test_hit_refreshes(self):
        lru = LruPolicy(2)
        lru.on_fill(0)
        lru.on_fill(1)
        lru.on_hit(0)
        assert lru.victim([True, True]) == 1


class TestBrrip:
    def test_prefers_invalid_ways(self):
        pol = BrripPolicy(4)
        assert pol.victim([True, True, False, True]) == 2

    def test_distant_insertion_is_default_victim(self):
        # With p=0 every fill is distant (RRPV 3) and evictable at once.
        pol = BrripPolicy(2, p=0.0)
        pol.on_fill(0)
        pol.on_fill(1)
        pol.on_hit(0)
        assert pol.victim([True, True]) == 1

    def test_hit_protects_line(self):
        pol = BrripPolicy(2, p=0.0)
        pol.on_fill(0)
        pol.on_fill(1)
        pol.on_hit(0)
        pol.on_hit(1)
        # Both protected: aging must still find a victim.
        victim = pol.victim([True, True])
        assert victim in (0, 1)

    def test_long_insertion_with_p_one(self):
        pol = BrripPolicy(2, p=1.0)
        pol.on_fill(0)  # RRPV 2
        pol.on_fill(1)  # RRPV 2
        # Aging makes both 3; way 0 picked first deterministically.
        assert pol.victim([True, True]) == 0

    def test_deterministic_given_seed(self):
        a = BrripPolicy(8, p=0.5, seed=42)
        b = BrripPolicy(8, p=0.5, seed=42)
        for way in range(8):
            a.on_fill(way)
            b.on_fill(way)
        assert a._rrpv == b._rrpv

    def test_nth_fill_reads_nth_value_of_its_seed(self):
        # Policies with one seed share their draws; each must still
        # insert exactly as a private random.Random(seed) would, in any
        # interleaving and whenever it was built.
        p = 0.5
        seeds = [90_001, 90_001, 90_002, 90_001]
        pols = [BrripPolicy(1, p=p, seed=seed) for seed in seeds]
        inserted = [[] for _ in seeds]

        def fill(order):
            for i in order:
                pols[i].on_fill(0)
                inserted[i].append(pols[i]._rrpv[0])

        fill((0, 0, 0, 1, 2, 0, 3, 1, 2, 2, 0, 1, 3, 3, 3))
        # One more policy of the first seed, built after the others
        # have drawn from it.
        seeds.append(90_001)
        pols.append(BrripPolicy(1, p=p, seed=90_001))
        inserted.append([])
        fill((4, 4, 0, 4, 1, 4, 4, 4, 4))
        for seed, rrpvs in zip(seeds, inserted):
            rng = random.Random(seed)
            assert rrpvs == [2 if rng.random() < p else 3 for _ in rrpvs]
        assert {2, 3} <= set(inserted[0])  # both insertions occurred

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
    def test_victim_always_valid_way(self, hits):
        pol = BrripPolicy(8, p=0.03, seed=1)
        for way in range(8):
            pol.on_fill(way)
        for way in hits:
            pol.on_hit(way)
        assert 0 <= pol.victim([True] * 8) < 8


def test_factory():
    assert isinstance(make_policy("lru", 4), LruPolicy)
    assert isinstance(make_policy("brrip", 4), BrripPolicy)


def test_factory_rejects_unknown():
    import pytest

    with pytest.raises(ValueError):
        make_policy("plru", 4)
