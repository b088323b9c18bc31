"""Tests for the statistics tree."""

import pytest

from repro.sim import Histogram, Stats


def test_add_and_get():
    s = Stats()
    s.add("noc.flits.data", 3)
    s.add("noc.flits.data", 2)
    assert s["noc.flits.data"] == 5
    assert s["missing"] == 0
    assert s.get("missing", 7) == 7


def test_group_strips_prefix():
    s = Stats()
    s.add("noc.flits.data", 4)
    s.add("noc.flits.ctrl", 1)
    s.add("l2.hits", 9)
    assert s.group("noc.flits") == {"data": 4, "ctrl": 1}


def test_group_requires_dot_boundary():
    s = Stats()
    s.add("l2.hits", 1)
    s.add("l2x.hits", 1)
    assert s.group("l2") == {"hits": 1}


def test_set_overwrites():
    s = Stats()
    s.add("v", 10)
    s.set("v", 2)
    assert s["v"] == 2


def test_dump_lists_sorted():
    s = Stats()
    s.add("b", 1)
    s.add("a", 2)
    lines = s.dump().splitlines()
    assert lines[0].startswith("a")
    assert lines[1].startswith("b")


def test_histogram_basics():
    h = Histogram(bucket_size=10)
    for v in (1, 5, 12, 99):
        h.record(v)
    assert h.count == 4
    assert h.mean == (1 + 5 + 12 + 99) / 4
    assert h.min == 1
    assert h.max == 99
    assert h.buckets() == [(0, 2), (10, 1), (90, 1)]


def test_histogram_empty_mean_is_zero():
    assert Histogram().mean == 0.0


def test_histogram_empty_min_max_are_finite():
    """Regression: an empty histogram read min/max as ±inf, which
    poisoned means/report lines and is not JSON-serializable."""
    import json
    import math

    h = Histogram()
    assert h.min == 0.0
    assert h.max == 0.0
    assert math.isfinite(h.min) and math.isfinite(h.max)
    # JSON round-trips (json.dumps(inf) emits the non-standard
    # `Infinity`, rejected by strict parsers).
    assert json.loads(json.dumps({"min": h.min, "max": h.max}))


def test_histogram_min_max_track_after_records():
    h = Histogram()
    h.record(7)
    assert (h.min, h.max) == (7, 7)
    h.record(3)
    h.record(40)
    assert (h.min, h.max) == (3, 40)


def test_stats_to_from_dict_roundtrip():
    s = Stats()
    s.add("noc.flits.data", 12)
    s.set("l2.hits", 0.5)
    restored = Stats.from_dict(s.to_dict())
    assert restored.to_dict() == s.to_dict()
    assert restored["noc.flits.data"] == 12
    # The restored object is independent and still a working Stats.
    restored.add("noc.flits.data", 1)
    assert s["noc.flits.data"] == 12


def test_reads_have_no_side_effects():
    """get / [] / contains must never insert keys."""
    s = Stats()
    assert s["phantom"] == 0
    assert s.get("phantom") == 0
    assert "phantom" not in s
    assert s.to_dict() == {}


def test_histogram_percentile():
    h = Histogram(bucket_size=10)
    for v in range(100):  # 0..99, one per value
        h.record(v)
    assert h.percentile(0) == 0
    assert h.percentile(50) == 49  # upper edge of the 40..49 bucket
    assert h.percentile(100) == 99
    # Small p lands in the first bucket.
    assert h.percentile(1) == 9
    with pytest.raises(ValueError):
        h.percentile(101)
    with pytest.raises(ValueError):
        h.percentile(-1)


def test_histogram_percentile_clamps_to_recorded_range():
    h = Histogram(bucket_size=100)
    h.record(3)
    h.record(5)
    # Bucket upper edge is 99, but no recorded value exceeds 5.
    assert h.percentile(99) == 5
    assert h.percentile(0) == 3


def test_histogram_percentile_empty_is_zero():
    assert Histogram().percentile(50) == 0.0


def test_histogram_dict_roundtrip():
    h = Histogram(bucket_size=8)
    for v in (1, 7, 9, 63, 64):
        h.record(v)
    restored = Histogram.from_dict(h.to_dict())
    assert restored.bucket_size == h.bucket_size
    assert restored.count == h.count
    assert restored.sum == h.sum
    assert (restored.min, restored.max) == (h.min, h.max)
    assert restored.buckets() == h.buckets()
    assert restored.percentile(50) == h.percentile(50)
    # JSON-safe: survives an actual dumps/loads cycle.
    import json

    again = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
    assert again.buckets() == h.buckets()


def test_histogram_empty_dict_roundtrip():
    restored = Histogram.from_dict(Histogram().to_dict())
    assert restored.count == 0
    assert restored.min == 0.0 and restored.max == 0.0
    assert restored.percentile(50) == 0.0
