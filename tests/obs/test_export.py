"""Chrome trace-event export tests: golden file + format validity."""

import json
import os
from dataclasses import replace

from repro.harness.runner import Point
from repro.obs.export import (
    chrome_trace_events,
    write_chrome_trace,
    write_point_dir,
)
from repro.obs.spans import SpanCollector
from repro.obs.telemetry import TelemetryConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace.json")
POINT = Point("nn", "sf", cols=2, rows=2, scale=64)


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
    assert POINT.slug == "nn-sf-ooo8-2x2-s64"
    # Link width and NUCA interleave make distinct points (figs 16
    # and 17 sweep them), so the slug names them when not default.
    assert (replace(POINT, link_bits=128).slug
            == "nn-sf-ooo8-2x2-s64-link128")
    assert (replace(POINT, l3_interleave=4096).slug
            == "nn-sf-ooo8-2x2-s64-ilv4096")
    assert replace(POINT, seed=3).slug.endswith("-seed3")
    # So do a point's own telemetry pillars and the sanitizer.
    assert (replace(POINT, obs="attribution,spans", sanitize=True).slug
            == "nn-sf-ooo8-2x2-s64-attribution+spans-sanitize")


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
    provenance = None

    def __init__(self, summary):
        self._summary = summary

    def summary(self):
        return dict(self._summary)


def test_point_dir_warns_on_nonzero_drop_counters(tmp_path, capsys):
    telemetry = _SummaryOnlyTelemetry(
        {"spans_opened": 10, "spans_dropped": 3, "cpi.journeys_dropped": 2,
         "noc_dropped": 0})
    assert write_point_dir(telemetry, POINT.slug,
                           str(tmp_path)) == []
    [warning] = capsys.readouterr().err.splitlines()
    assert "WARNING" in warning
    assert "spans_dropped=3" in warning
    assert "cpi.journeys_dropped=2" in warning
    assert "noc_dropped" not in warning  # zero counters stay quiet
    assert "nn-sf-ooo8-2x2-s64" in warning


def test_point_dir_quiet_without_drops(tmp_path, capsys):
    telemetry = _SummaryOnlyTelemetry(
        {"spans_opened": 10, "spans_dropped": 0})
    write_point_dir(telemetry, POINT.slug, str(tmp_path))
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
