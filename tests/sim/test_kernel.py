"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import Simulator


def test_runs_events_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(10, order.append, "b")
    sim.schedule(5, order.append, "a")
    sim.schedule(20, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 20


def test_same_cycle_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(7, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_scheduled_from_events():
    sim = Simulator()
    seen = []

    def first():
        seen.append(("first", sim.now))
        sim.schedule(3, second)

    def second():
        seen.append(("second", sim.now))

    sim.schedule(2, first)
    sim.run()
    assert seen == [("first", 2), ("second", 5)]


def test_zero_delay_runs_after_earlier_same_cycle_events():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0, order.append, "inner")

    sim.schedule(1, outer)
    sim.schedule(1, order.append, "peer")
    sim.run()
    assert order == ["outer", "peer", "inner"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, "early")
    sim.schedule(50, fired.append, "late")
    sim.run(until=10)
    assert fired == ["early"]
    assert sim.now == 10
    assert sim.events_pending == 1
    sim.run()
    assert fired == ["early", "late"]


def test_run_max_events_bound():
    sim = Simulator()
    count = []

    def reschedule():
        count.append(1)
        sim.schedule(1, reschedule)

    sim.schedule(0, reschedule)
    sim.run(max_events=100)
    assert len(count) == 100
