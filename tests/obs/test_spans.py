"""Span collector tests: mem / elem / stream span assembly."""

import pytest

from repro.obs.spans import SpanCollector
from repro.obs.telemetry import Telemetry, TelemetryConfig
from tests.mem.conftest import MiniHierarchy

BASE = 0x20_0000


def spans_hierarchy() -> MiniHierarchy:
    hier = MiniHierarchy()
    Telemetry(hier.sim, TelemetryConfig(spans=True))
    return hier


@pytest.fixture(scope="module")
def sf_chip():
    """One telemetry-on sf run shared by the stream-span tests."""
    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    system = make_config("sf", core="ooo8", cols=2, rows=2, scale=64)
    chip = Chip(system)
    Telemetry(chip.sim, TelemetryConfig(spans=True))
    programs = build_programs("nn", chip.num_cores, scale=64, seed=0)
    chip.run(programs)
    return chip


# ----------------------------------------------------------------------
# mem spans (demand fetch lifecycle)
# ----------------------------------------------------------------------
def test_mem_span_hops_l2_l3_dram():
    hier = spans_hierarchy()
    results = []
    hier.read(0, BASE, results)
    hier.run()
    collector = hier.sim.telemetry.spans
    mem = collector.by_kind("mem")
    assert len(mem) == 1
    span = mem[0]
    assert span.closed
    assert span.tile == 0
    hop_names = [h.name for h in span.hops]
    # Cold L3 miss walks the full hierarchy.
    assert hop_names == ["l2_miss", "l3", "dram", "l2_data"]
    cycles = [span.start] + [h.cycle for h in span.hops] + [span.end]
    assert cycles == sorted(cycles)
    assert span.end > span.start


def test_merged_miss_shares_one_span():
    hier = spans_hierarchy()
    results = []
    hier.read(0, BASE, results)
    hier.read(0, BASE + 8, results)  # same line: merges into the MSHR
    hier.run()
    collector = hier.sim.telemetry.spans
    assert len(collector.by_kind("mem")) == 1
    assert len(results) == 2


def test_span_cap_counts_drops():
    hier = spans_hierarchy()
    tel = hier.sim.telemetry
    tel.spans.max_spans = 2
    results = []
    for k in range(5):
        hier.read(0, BASE + k * 64, results)
    hier.run()
    assert tel.spans.opened == 2
    assert tel.spans.dropped == 3
    assert len(results) == 5  # dropping spans never drops requests


# ----------------------------------------------------------------------
# elem + stream spans (needs a floating run)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_sf_run_builds_stream_and_elem_spans(sf_chip):
    collector = sf_chip.sim.telemetry.spans
    streams = collector.by_kind("stream")
    assert streams, "sf run floated no streams"
    for span in streams:
        names = [h.name for h in span.hops]
        assert names[0] == "float"
        assert "migrate" in names
        assert names[-1] in ("sink", "end")
        cycles = [h.cycle for h in span.hops]
        assert cycles == sorted(cycles)
        assert span.closed
    elems = collector.by_kind("elem")
    assert elems
    closed = [s for s in elems if s.closed]
    assert closed
    for span in closed[:50]:
        assert [h.name for h in span.hops][0] == "getu"
        assert span.end >= span.start


@pytest.mark.slow
def test_noc_events_capture_arrivals(sf_chip):
    collector = sf_chip.sim.telemetry.spans
    assert collector.noc_events
    for noc in collector.noc_events[:100]:
        assert noc["arrive"] >= noc["depart"]
        assert noc["src"] != noc["dst"] or noc["port"]


# ----------------------------------------------------------------------
# standalone collector API (what the golden export test builds on)
# ----------------------------------------------------------------------
def test_collector_standalone_open_hop_close():
    collector = SpanCollector()
    key = ("mem", 0, 0x1000)
    collector.open("mem", key, 0, 10, addr=0x1000)
    collector.hop(key, "l2_miss", 14, 0)
    collector.close(key, 40)
    assert collector.opened == collector.closed == 1
    span = collector.spans[0]
    assert span.duration() == 30
    # Reopening a closed key makes a fresh span; hop to a missing key
    # is a no-op.
    collector.hop(("mem", 9, 0x9), "x", 1, 9)
    collector.open("mem", key, 0, 50)
    assert collector.opened == 2
