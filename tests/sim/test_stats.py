"""Tests for the statistics tree."""

from repro.sim import Stats


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
