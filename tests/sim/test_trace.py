"""Event tracing: ring-buffer logs of floated-stream lifecycle events,
taken straight from the stream-engine probes."""

from collections import Counter

import pytest

from repro.obs.telemetry import TRACE_KINDS, attach
from repro.system import Chip, make_config
from repro.workloads import build_programs


def _chip():
    return Chip(make_config("sf", core="ooo4", cols=2, rows=2, scale=32))


def traced_run(kinds=TRACE_KINDS, workload="hotspot", capacity=100_000):
    chip = _chip()
    events = attach(chip.sim).record(kinds, capacity=capacity)
    programs = build_programs(workload, chip.num_cores, scale=32)
    chip.run(programs)
    return events


def of_kind(events, kind):
    return [ev for ev in events if ev.kind == kind]


def test_records_floats_and_migrations():
    events = traced_run(kinds=("float", "migrate"))
    assert of_kind(events, "float"), "no floats traced"
    assert of_kind(events, "migrate"), "no migrations traced"
    # Kinds filter respected.
    assert not of_kind(events, "credit")


def test_all_kinds_by_default():
    kinds = {ev.kind for ev in traced_run()}
    assert kinds <= set(TRACE_KINDS)
    assert "float" in kinds
    assert "credit" in kinds or "migrate" in kinds


def test_events_are_time_ordered():
    events = traced_run(kinds=("float", "sink", "migrate", "end"))
    cycles = [ev.cycle for ev in events]
    assert cycles == sorted(cycles)


def test_capacity_bounds_buffer():
    assert len(traced_run(capacity=10)) <= 10


def test_summary_and_str():
    events = traced_run(kinds=("float",))
    assert Counter(ev.kind for ev in events)["float"] == len(events)
    ev = events[0]
    assert str(ev).startswith(f"[{ev.cycle:>9}] float")
    assert f"tile {ev.tile}" in str(ev)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="teleport"):
        attach(_chip().sim).record(("float", "teleport"))


def test_tracing_does_not_change_results():
    def run(with_log):
        chip = _chip()
        if with_log:
            attach(chip.sim).record()
        programs = build_programs("hotspot", chip.num_cores, scale=32)
        return chip.run(programs).cycles

    assert run(True) == run(False)
