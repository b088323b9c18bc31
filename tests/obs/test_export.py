"""Chrome trace-event export tests: golden file + format validity."""

import json
import os

import pytest

from repro.obs.export import (
    TelemetrySink,
    chrome_trace_events,
    point_artifacts,
    point_slug,
    write_chrome_trace,
)
from repro.obs.spans import SpanCollector
from repro.obs.telemetry import TelemetryConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace.json")


def synthetic_collector() -> SpanCollector:
    """A tiny fixed span set (what the golden file pins)."""
    collector = SpanCollector()
    mem = ("mem", 0, 0x1000)
    collector.open("mem", mem, 0, 10, addr=0x1000, write=False,
                   prefetch=False)
    collector.hop(mem, "l2_miss", 14, 0)
    collector.hop(mem, "l3", 30, 1, detail="GetS")
    collector.hop(mem, "dram", 62, 3, detail="MemRead")
    collector.hop(mem, "l2_data", 150, 0)
    collector.close(mem, 154)
    elem = ("elem", 2, 7, 4)
    collector.open("elem", elem, 2, 100, sid=7, element=4, bank=1,
                   category="float_affine")
    collector.hop(elem, "getu", 100, 1)
    collector.hop(elem, "datau", 141, 2)
    collector.close(elem, 141)
    stream = ("stream", 2, 7, 0)
    collector.open("stream", stream, 2, 0, sid=7, float_elem=0)
    collector.hop(stream, "float", 0, 2)
    collector.hop(stream, "migrate", 90, 1, detail="-> bank 2")
    collector.hop(stream, "sink", 220, 2)
    collector.close(stream, 220)
    still_open = ("mem", 3, 0x2000)
    collector.open("mem", still_open, 3, 200, addr=0x2000, write=True,
                   prefetch=False)
    collector.hop(still_open, "l2_miss", 204, 3)
    collector.noc_events.append({
        "src": 1, "dst": 2, "port": "se_l2", "kind": "data",
        "id": 42, "depart": 120, "arrive": 141,
    })
    return collector


def test_golden_trace_export():
    """The exporter's output is pinned byte-for-byte by a golden file
    (regenerate with `python -m tests.obs.test_export` after a
    deliberate schema change)."""
    events = chrome_trace_events(synthetic_collector(), pid=1,
                                 point="golden")
    got = json.dumps({"traceEvents": events}, indent=1, sort_keys=True)
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().rstrip("\n")
    assert got == want


def test_export_is_deterministic():
    a = chrome_trace_events(synthetic_collector(), pid=1, point="x")
    b = chrome_trace_events(synthetic_collector(), pid=1, point="x")
    assert a == b


def test_trace_event_format(tmp_path):
    events = chrome_trace_events(synthetic_collector(), pid=1,
                                 point="fmt")
    path = write_chrome_trace(str(tmp_path / "t.trace.json"), events)
    payload = json.load(open(path))
    assert set(payload) == {"traceEvents", "displayTimeUnit"}
    phs = {"X", "M", "s", "f"}
    for ev in payload["traceEvents"]:
        assert ev["ph"] in phs
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["ts"], int)
        if ev["ph"] == "X":
            assert ev["dur"] >= 1
        if ev["ph"] in ("s", "f"):
            assert "id" in ev
    # Flow arrows come in matched s/f pairs.
    starts = [e["id"] for e in payload["traceEvents"] if e["ph"] == "s"]
    finishes = [e["id"] for e in payload["traceEvents"] if e["ph"] == "f"]
    assert sorted(starts) == sorted(finishes) and starts
    # Open spans are flagged.
    open_spans = [e for e in payload["traceEvents"]
                  if e["ph"] == "X" and e.get("args", {}).get("open")]
    assert len(open_spans) == 1


def test_span_hops_ride_in_args():
    events = chrome_trace_events(synthetic_collector(), pid=1)
    mem = [e for e in events if e.get("cat") == "mem"
           and not e.get("args", {}).get("open")]
    assert len(mem) == 1
    hops = mem[0]["args"]["hops"]
    assert [h[0] for h in hops] == ["l2_miss", "l3", "dram", "l2_data"]
    cycles = [h[1] for h in hops]
    assert cycles == sorted(cycles)


def test_point_slug_is_deterministic():
    params = dict(workload="nn", config="sf", core="ooo8", cols=2,
                  rows=2, scale=64, link_bits=256, l3_interleave=None,
                  seed=0)
    assert point_slug(params) == "nn-sf-ooo8-2x2-s64"
    params["seed"] = 3
    assert point_slug(params).endswith("-seed3")


# ----------------------------------------------------------------------
# sink (CLI aggregation) + a real run's structural validity
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_sink_merges_points_and_validates(tmp_path):
    from repro.harness.runner import configure_telemetry, run_once

    sink = TelemetrySink(trace_out=str(tmp_path / "run.trace.json"))
    configure_telemetry(sink)
    try:
        for config in ("base", "sf"):
            run_once("nn", config, cols=2, rows=2, scale=64)
    finally:
        configure_telemetry(None)
    assert sink.points == 2
    [path] = sink.write()
    payload = json.load(open(path))
    evs = payload["traceEvents"]
    names = {e["pid"]: e["args"]["name"] for e in evs
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {1: "nn-base-ooo8-2x2-s64", 2: "nn-sf-ooo8-2x2-s64"}
    # The sf point floats streams: its trace must carry stream spans
    # whose hops run float -> migrate -> sink/end monotonically.
    streams = [e for e in evs if e.get("cat") == "stream"]
    assert streams
    for ev in streams:
        hops = ev["args"]["hops"]
        assert hops[0][0] == "float"
        assert hops[-1][0] in ("sink", "end")
        assert [h[1] for h in hops] == sorted(h[1] for h in hops)


def test_real_point_export_repeats_in_one_process():
    """Exporting the same point twice in one process yields the same
    events: flow-arrow ids may not depend on what simulated earlier
    (packet ids come from a process-wide counter)."""
    from repro.obs.telemetry import Telemetry
    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    def export():
        chip = Chip(make_config("sf", core="ooo8", cols=2, rows=2,
                                scale=64))
        tel = Telemetry(chip.sim, TelemetryConfig(spans=True))
        chip.run(build_programs("mv", chip.num_cores, scale=64, seed=0))
        return chrome_trace_events(tel.spans, pid=1, point="mv-sf")

    first = export()
    assert any(e["ph"] == "s" for e in first)
    assert export() == first


class _SummaryOnlyTelemetry:
    """Stand-in with no live pillars — only a summary() to inspect."""

    spans = None
    sampler = None
    profiler = None
    provenance = None

    def __init__(self, summary):
        self._summary = summary

    def summary(self):
        return dict(self._summary)


def _params():
    return dict(workload="nn", config="sf", core="ooo8", cols=2, rows=2,
                scale=64, link_bits=256, l3_interleave=None, seed=0)


def test_sink_warns_on_nonzero_drop_counters(capsys):
    sink = TelemetrySink()
    sink.add(point_artifacts(_SummaryOnlyTelemetry(
        {"spans_opened": 10, "spans_dropped": 3, "cpi.journeys_dropped": 2,
         "noc_dropped": 0}), point_slug(_params())))
    [warning] = sink.drop_warnings
    assert "spans_dropped=3" in warning
    assert "cpi.journeys_dropped=2" in warning
    assert "noc_dropped" not in warning  # zero counters stay quiet
    assert "nn-sf-ooo8-2x2-s64" in warning
    assert "WARNING" in capsys.readouterr().err


def test_sink_quiet_without_drops(capsys):
    sink = TelemetrySink()
    sink.add(point_artifacts(_SummaryOnlyTelemetry(
        {"spans_opened": 10, "spans_dropped": 0}), point_slug(_params())))
    assert sink.drop_warnings == []
    assert capsys.readouterr().err == ""


def regenerate_golden() -> None:
    events = chrome_trace_events(synthetic_collector(), pid=1,
                                 point="golden")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    regenerate_golden()
