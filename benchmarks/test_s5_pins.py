"""The figure points' S5, throughput and calls-per-event gates.

Each of the eight figure points (``tests/sim/s5_pins.py``) runs three
times, each on a fresh chip:

- with the sanitizer attached: the S5 trace hash, trace events and
  cycles must equal ``tests/sim/golden_s5.json`` exactly, because
  determinism is not a tolerance band;
- timed, with no sanitizer or profiler attached: logical events must
  equal the pin, and logical events per CPU second, scaled to the
  reference host speed by ``bench/hostspeed.py``, must be at least
  80% of ``EVENTS_PER_S``. Raw wall-clock events/s measures the host
  as much as the code: on a slow shared host unmodified code read up
  to a third below these baselines, and with another process on the
  test's CPU up to half;
- under cProfile: Python calls per logical event, counted per code
  object, must be at most 115% of the pin. The count moves slightly
  with what the process ran before (the BRRIP generators are shared
  process-wide), so it is a ceiling, not an exact pin.

A point with no pin fails. CI's ``bench-smoke`` job runs this file.
"""

import time

import pytest

from bench.hostspeed import HostSpeed
from tests.sim.s5_pins import FIGURE, build, calls_per_event, pinned, s5

# Logical events per second of each figure point, measured on
# 2026-08-09 when these points were first pinned, and carried over
# unchanged. The test compares them with events per CPU second,
# scaled to the reference host speed by the factor HostSpeed's probe
# gives (reference seconds over host seconds). CPU time leaves out
# the slices another process on the test's CPU takes, which the probe
# cannot see: each probe pass fits in one scheduler slice. The
# regenerator never rewrites them.
EVENTS_PER_S = {
    "mv/sf@4x4s16": 107422,
    "mv/base@4x4s16": 89196,
    "conv3d/sf@4x4s16": 121442,
    "bfs/sf@4x4s16": 106076,
    "pathfinder/sf@4x4s16": 98157,
    "hotspot/sf@4x4s16": 94180,
    "stencil_tiled/sf_smart@4x4s16": 102906,
    "mv/sf@8x8s4": 89762,
}
EVENTS_TOLERANCE = 0.20
CALLS_TOLERANCE = 0.15


@pytest.mark.parametrize("name", FIGURE)
def test_figure_point_is_pinned(name):
    pin = pinned(name)
    assert s5(name) == {key: pin[key]
                        for key in ("trace_hash", "trace_events", "cycles")}

    chip, programs = build(name)
    cpu_start = time.process_time()
    _, host_s, reference_s = HostSpeed().timed(chip.run, programs)
    reference_cpu_s = (time.process_time() - cpu_start) * reference_s / host_s
    events = chip.sim.events_executed
    assert events == pin["events"]
    floor = (1 - EVENTS_TOLERANCE) * EVENTS_PER_S[name]
    assert events / reference_cpu_s >= floor, (
        f"{events / reference_cpu_s:,.0f} events per CPU second at "
        f"reference host speed")

    per_event, _ = calls_per_event(name)
    assert per_event <= (1 + CALLS_TOLERANCE) * pin["calls_per_event"]
