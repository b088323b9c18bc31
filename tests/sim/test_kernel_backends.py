"""Backend-level tests for the two scheduler implementations.

Every test here runs against both the calendar queue (the default)
and the single-heap reference (``REPRO_KERNEL=heap``): the backends
must be observably identical, and the regression tests for the two
historical kernel bugs — ``run(until=N)`` leaving ``now`` behind on
queue drain, and ``schedule_at`` silently truncating fractional times
— must hold on each.

Tests marked ``no_sanitize`` additionally exercise the run loop with
no ``dispatch`` probe subscriber (the tier-1 default attaches the
sanitizer, which subscribes one).
"""

import pytest

from repro.sim import Simulator
from repro.sim.kernel import (
    CalendarSimulator,
    ENV_KERNEL,
    HeapSimulator,
    kernel_from_env,
)


@pytest.fixture(params=["calendar", "heap"])
def backend(request, monkeypatch):
    monkeypatch.setenv(ENV_KERNEL, request.param)
    return request.param


@pytest.fixture
def sim(backend):
    return Simulator()


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_env_selects_backend(backend, sim):
    expected = HeapSimulator if backend == "heap" else CalendarSimulator
    assert type(sim) is expected


def test_unknown_kernel_env_rejected(monkeypatch):
    monkeypatch.setenv(ENV_KERNEL, "fibonacci")
    with pytest.raises(ValueError, match="fibonacci"):
        kernel_from_env()


def test_default_is_calendar(monkeypatch):
    monkeypatch.delenv(ENV_KERNEL, raising=False)
    assert kernel_from_env() == "calendar"


# ----------------------------------------------------------------------
# regression: run(until=N) must advance now to N when the queue drains
# ----------------------------------------------------------------------
def test_run_until_advances_now_past_drained_queue(sim):
    fired = []
    sim.schedule(3, fired.append, "only")
    assert sim.run(until=10) == 10
    assert fired == ["only"]
    assert sim.now == 10  # historically stuck at 3


def test_run_until_on_empty_queue_advances_now(sim):
    assert sim.run(until=7) == 7
    assert sim.now == 7


@pytest.mark.no_sanitize
def test_run_until_advances_now_fast_path(sim):
    # Same regression with no observer on the run loop.
    assert sim.probes.dispatch is None
    sim.schedule(2, lambda: None)
    sim.run(until=25)
    assert sim.now == 25
    # Scheduling relative to the advanced time must land correctly.
    fired = []
    sim.schedule(5, fired.append, "next")
    sim.run()
    assert fired == ["next"]
    assert sim.now == 30


# ----------------------------------------------------------------------
# regression: fractional schedule times are rejected, never truncated
# ----------------------------------------------------------------------
def test_schedule_at_fractional_rejected(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    assert sim.now == 10
    with pytest.raises(ValueError, match="whole cycle"):
        sim.schedule_at(10.7, lambda: None)


def test_schedule_at_fractional_below_now_rejected_as_fractional(sim):
    """int(10.4) == 10 would slip past a truncate-after-compare guard;
    the coercion must reject the fraction before the past-check."""
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="whole cycle"):
        sim.schedule_at(10.4, lambda: None)


def test_schedule_at_integral_float_accepted(sim):
    fired = []
    sim.schedule_at(6.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [6]
    assert sim.now == 6


def test_schedule_fractional_delay_rejected(sim):
    with pytest.raises(ValueError, match="whole number"):
        sim.schedule(0.5, lambda: None)


def test_schedule_integral_float_delay_accepted(sim):
    fired = []
    sim.schedule(4.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4]


# ----------------------------------------------------------------------
# shared ordering semantics
# ----------------------------------------------------------------------
def test_fifo_within_cycle(sim):
    order = []
    for tag in range(8):
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == list(range(8))


@pytest.mark.no_sanitize
def test_zero_delay_fifo_fast_path(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0, order.append, "inner")

    sim.schedule(1, outer)
    sim.schedule(1, order.append, "peer")
    sim.run()
    assert order == ["outer", "peer", "inner"]


def test_events_pending_and_executed(sim):
    sim.schedule(1, lambda: None)
    sim.schedule(5000, lambda: None)  # calendar: overflow heap
    assert sim.events_pending == 2
    sim.run()
    assert sim.events_pending == 0
    assert sim.events_executed == 2


def test_count_inlined_events(sim):
    sim.schedule(1, sim.count_inlined_events, 3)
    sim.run()
    assert sim.events_executed == 4  # one dispatch + three credited


# ----------------------------------------------------------------------
# calendar-specific mechanics
# ----------------------------------------------------------------------
@pytest.fixture
def cal(monkeypatch):
    monkeypatch.setenv(ENV_KERNEL, "calendar")
    return Simulator()


def test_calendar_bucket_wraparound(cal):
    """Events exactly RING cycles apart share a bucket index; the
    earlier one must run and clear before the later becomes visible."""
    ring = cal.RING
    order = []
    cal.schedule_at(10, order.append, "first")
    cal.schedule_at(10 + ring, order.append, "wrapped")  # same bucket
    cal.schedule_at(10 + 2 * ring, order.append, "wrapped-again")
    cal.run()
    assert order == ["first", "wrapped", "wrapped-again"]
    assert cal.now == 10 + 2 * ring


def test_calendar_overflow_migration_preserves_fifo(cal):
    """A far-future event (scheduled first, via the overflow heap)
    must still run before a same-cycle event inserted directly into
    the ring after the window reached that cycle."""
    target = cal.RING * 2 + 5
    order = []
    cal.schedule_at(target, order.append, "overflow-first")
    # Advance the window so `target` migrates into the ring...
    cal.schedule(cal.RING + 10, lambda: None)
    cal.run(until=cal.RING + 10)
    # ...then insert directly at the same cycle.
    cal.schedule_at(target, order.append, "direct-second")
    cal.run()
    assert order == ["overflow-first", "direct-second"]


def test_calendar_far_future_goes_to_overflow(cal):
    cal.schedule(cal.RING + 100, lambda: None)
    assert len(cal._overflow) == 1
    assert cal._ring_count == 0
    cal.run()
    assert cal.events_executed == 1


def test_calendar_dense_reschedule_storm(cal):
    """Self-rescheduling actors across bucket wraparound boundaries:
    event counts and final time must match the heap reference."""
    horizon = cal.RING * 3 + 17
    ticks = []

    def tick(period):
        ticks.append(cal.now)
        cal.schedule(period, tick, period)

    for i in range(5):
        cal.schedule(i, tick, 1 + i)
    cal.run(until=horizon)
    assert cal.now == horizon
    assert ticks == sorted(ticks)
    expected = sum(
        len(range(i, horizon + 1, 1 + i)) for i in range(5)
    )
    assert len(ticks) == expected


def test_calendar_step_matches_run_order(monkeypatch):
    monkeypatch.setenv(ENV_KERNEL, "calendar")
    run_order = []
    sim = Simulator()
    for d, tag in ((3, "a"), (3, "b"), (1, "c"), (5000, "z")):
        sim.schedule(d, run_order.append, tag)
    sim.run()

    step_order = []
    sim2 = Simulator()
    for d, tag in ((3, "a"), (3, "b"), (1, "c"), (5000, "z")):
        sim2.schedule(d, step_order.append, tag)
    while sim2.step():
        pass
    assert step_order == run_order == ["c", "a", "b", "z"]
    assert sim2.now == sim.now == 5000
