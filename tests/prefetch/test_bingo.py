"""Tests for the Bingo spatial prefetcher."""

from repro.prefetch.bingo import BingoPrefetcher


REGION = 2048


def touch_region(pf, pc, region_base, offsets):
    """Access the given line offsets within one region."""
    out = []
    for off in offsets:
        out.append(pf.on_access(pc, region_base + off * 64, hit=False))
    return out


def test_first_generation_learns_no_prediction():
    pf = BingoPrefetcher(accumulation_entries=1)
    out = touch_region(pf, pc=7, region_base=0, offsets=[0, 3, 5])
    assert out == [[], [], []]


def test_long_event_replays_footprint():
    pf = BingoPrefetcher(accumulation_entries=1)
    touch_region(pf, 7, 0, [0, 3, 5])
    # Evict the generation by triggering another region.
    touch_region(pf, 7, 10 * REGION, [0])
    # Re-trigger region 0 with the same pc+addr: long event hit.
    out = pf.on_access(7, 0, hit=False)
    assert sorted(out) == [3 * 64, 5 * 64]
    assert pf.long_hits == 1


def test_short_event_fallback_different_region():
    pf = BingoPrefetcher(accumulation_entries=1)
    touch_region(pf, 7, 0, [2, 4, 6])
    touch_region(pf, 7, 10 * REGION, [0])  # commits region 0
    # New region, same pc and same trigger offset (2): short event.
    out = pf.on_access(7, 20 * REGION + 2 * 64, hit=False)
    assert sorted(out) == [20 * REGION + 4 * 64, 20 * REGION + 6 * 64]
    assert pf.short_hits == 1


def test_trigger_line_excluded_from_prefetch():
    pf = BingoPrefetcher(accumulation_entries=1)
    touch_region(pf, 1, 0, [1, 2])
    touch_region(pf, 1, 10 * REGION, [0])
    out = pf.on_access(1, 64, hit=False)  # trigger offset 1
    assert 64 not in out


def test_unknown_event_no_prefetch():
    pf = BingoPrefetcher()
    assert pf.on_access(9, 123456 * 64, hit=False) == []


def test_footprint_capped_by_region():
    pf = BingoPrefetcher(accumulation_entries=1)
    touch_region(pf, 1, 0, list(range(32)))  # whole region
    touch_region(pf, 1, 10 * REGION, [0])
    out = pf.on_access(1, 0, hit=False)
    assert len(out) == 31  # all lines minus trigger
    assert all(0 <= a < REGION for a in out)


def test_pht_capacity_lru():
    pf = BingoPrefetcher(accumulation_entries=1, pht_entries=2)
    for r in range(4):
        touch_region(pf, r, r * 100 * REGION, [0, 1])
    assert len(pf._pht_long) <= 2
    assert len(pf._pht_short) <= 2


def test_none_op_id_ignored():
    pf = BingoPrefetcher()
    assert pf.on_access(None, 0, hit=False) == []
