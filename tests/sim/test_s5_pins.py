"""Tests for the S5 pin helper (``tests/sim/s5_pins.py``)."""

import json
from dataclasses import dataclass

from tests.sim.s5_pins import FIGURE, GOLDEN, TIER1, count_calls


@dataclass
class _First:
    x: int


@dataclass
class _Second:
    y: int


def _construct(first: int, second: int) -> None:
    for i in range(first):
        _First(i)
    for i in range(second):
        _Second(i)


def test_count_calls_counts_every_generated_init():
    # Both generated __init__s share pstats' key ("<string>", 2,
    # "__init__"), so pstats.Stats.total_calls keeps only one of them.
    calls = count_calls(lambda: _construct(300, 500))
    assert calls - count_calls(lambda: _construct(0, 0)) == 800


def test_golden_pins_exactly_the_listed_points():
    with open(GOLDEN, encoding="utf-8") as fh:
        pins = json.load(fh)
    assert sorted(pins) == sorted(TIER1 + FIGURE)
    for name in TIER1:
        assert set(pins[name]) == {"trace_hash", "trace_events", "cycles"}
    for name in FIGURE:
        assert set(pins[name]) == {"trace_hash", "trace_events", "cycles",
                                   "events", "calls_per_event"}
