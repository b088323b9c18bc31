"""Differential observatory tests: golden report + delta parity with
raw RunRecords + CLI round-trip."""

import json
import os

import pytest

from repro.energy.model import EnergyBreakdown
from repro.harness.runner import Point, RunRecord
from repro.obs.diff import (
    RunArtifacts,
    diff_runs,
    headline_deltas,
    link_flits,
    tile_matrix,
)
from repro.obs.report import render_html, render_markdown, sparkline
from repro.sim.stats import Stats

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_report.md")


# ----------------------------------------------------------------------
# synthetic fixture pair (what the golden file pins)
# ----------------------------------------------------------------------
def _record(config, cycles, overrides, telemetry):
    stats = Stats()
    base = {
        "core.ops": 1000, "l1.misses": 120,
        "l2.hits": 300, "l2.misses": 100,
        "l3.hits": 60, "l3.misses": 40,
        "noc.flit_hops.ctrl": 50, "noc.flit_hops.data": 200,
        "noc.flit_hops.stream": 0,
        "dram.reads": 40, "dram.writes": 4,
        "se_core.floats": 0, "se_core.sinks": 0,
        "se_l3.elements_issued": 0,
    }
    base.update(overrides)
    for name, value in base.items():
        stats.set(name, value)
    energy = EnergyBreakdown(core_dynamic=500.0, l2=100.0, l3=80.0,
                             noc=float(base["noc.flit_hops.data"]),
                             dram=200.0)
    return RunRecord(
        point=Point("mv", config, cols=2, rows=2, scale=8),
        cycles=cycles, stats=stats, energy=energy, telemetry=telemetry,
    )


def _intervals(point, ipcs):
    return [
        {"point": point, "cycle": (i + 1) * 100, "dcycles": 100,
         "ipc": ipc, "noc_util": round(ipc / 10, 3), "l3_mpki": 1.0,
         "streams_alive": 0, "core_ops": int(ipc * 100)}
        for i, ipc in enumerate(ipcs)
    ]


def _stream_trace(point, durations):
    events = []
    for i, dur in enumerate(durations):
        events.append({
            "ph": "X", "pid": 1, "tid": (i % 4) * 4 + 2, "ts": i * 10,
            "dur": dur, "name": f"stream sid {i} #0", "cat": "stream",
            "args": {"sid": i, "key": f"stream/{i % 4}/{i}/0"},
        })
    return events


def synthetic_pair():
    rec_a = _record("base", 2000, {}, telemetry={
        "tile.0.l3_demand": 40, "tile.1.l3_demand": 42,
        "tile.2.l3_demand": 38, "tile.3.l3_demand": 44,
        "link.0>1.flits": 90, "link.1>0.flits": 85,
    })
    rec_b = _record("sf", 1600, {
        "l2.hits": 380, "l2.misses": 60, "l3.hits": 20,
        "l3.misses": 30, "noc.flit_hops.data": 120,
        "noc.flit_hops.stream": 40, "se_core.floats": 6,
        "se_core.sinks": 2, "se_l3.elements_issued": 500,
    }, telemetry={
        "decisions": 10.0, "decisions.float": 6.0,
        "decisions.sink": 2.0, "decisions.migrate": 2.0,
        "tile.0.l3_demand": 30, "tile.1.l3_demand": 28,
        "tile.2.l3_demand": 26, "tile.3.l3_demand": 31,
        "tile.0.getu": 12, "tile.1.getu": 14,
        "tile.2.getu": 11, "tile.3.getu": 13,
        "link.0>1.flits": 60, "link.1>0.flits": 55,
        "link.2>3.flits": 20,
    })
    a = RunArtifacts(record=rec_a, label="base",
                     intervals=_intervals("a", [0.5, 0.4, 0.6, 0.5]),
                     trace_events=_stream_trace("a", [400, 900, 300]))
    b = RunArtifacts(record=rec_b, label="sf",
                     intervals=_intervals("b", [0.7, 0.8, 0.6, 0.9]),
                     trace_events=_stream_trace("b", [1500, 200, 800]))
    return a, b


# ----------------------------------------------------------------------
# golden
# ----------------------------------------------------------------------
def test_golden_report():
    """The Markdown report is pinned byte-for-byte (regenerate with
    `python -m tests.obs.test_diff` after a deliberate format
    change)."""
    a, b = synthetic_pair()
    got = render_markdown(diff_runs(a, b, k=2))
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read()
    assert got == want


def test_report_is_deterministic():
    a, b = synthetic_pair()
    first = render_markdown(diff_runs(a, b, k=2))
    a2, b2 = synthetic_pair()
    second = render_markdown(diff_runs(a2, b2, k=2))
    assert first == second


def test_html_report_wraps_markdown():
    a, b = synthetic_pair()
    html = render_html(diff_runs(a, b, k=2))
    assert html.startswith("<!DOCTYPE html>")
    assert "Run diff: base vs sf" in html
    assert "<table>" in html and "cycles" in html


# ----------------------------------------------------------------------
# computation units
# ----------------------------------------------------------------------
def test_headline_deltas_match_records():
    a, b = synthetic_pair()
    deltas = {d.name: d for d in headline_deltas(a.record, b.record)}
    assert deltas["cycles"].a == 2000 and deltas["cycles"].b == 1600
    assert deltas["cycles"].delta == -400
    assert deltas["cycles"].pct == pytest.approx(-20.0)
    assert deltas["se_core.floats"].pct is None  # 0 baseline
    assert deltas["l2.hit_rate"].a == pytest.approx(300 / 400)
    assert deltas["l2.hit_rate"].b == pytest.approx(380 / 440)


def test_tile_matrix_layout():
    a, _ = synthetic_pair()
    matrix = tile_matrix(a.record, "l3_demand")
    assert matrix == [[40.0, 42.0], [38.0, 44.0]]
    assert tile_matrix(a.record, "getu") == [[0.0, 0.0], [0.0, 0.0]]


def test_link_flits_union():
    a, b = synthetic_pair()
    assert link_flits(a.record) == {"0>1": 90.0, "1>0": 85.0}
    diff = diff_runs(a, b)
    assert ("2>3", 0.0, 20.0) in diff.links


def test_top_streams_sorted_by_duration():
    a, b = synthetic_pair()
    diff = diff_runs(a, b, k=2)
    assert [s["duration"] for s in diff.top_streams_a] == [900, 400]
    assert [s["duration"] for s in diff.top_streams_b] == [1500, 800]


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
    line = sparkline([0.0, 0.5, 1.0])
    assert line[0] == "▁" and line[-1] == "█" and len(line) == 3


# ----------------------------------------------------------------------
# delta parity against raw RunRecords (real simulation)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_report_deltas_match_raw_records():
    """Acceptance: a diff of float-on vs float-off runs of a tier-1
    workload reports exactly the numbers recomputed from the raw
    RunRecords — the report is a view, not a second source of
    truth."""
    from repro.harness.runner import Point, simulate
    from repro.obs.report import _fmt
    from repro.obs.telemetry import TelemetryConfig

    provenance = TelemetryConfig(provenance=True)
    rec_off, _ = simulate(Point("mv", "base", cols=2, rows=2, scale=8),
                          provenance)
    rec_on, _ = simulate(Point("mv", "sf", cols=2, rows=2, scale=8),
                         provenance)
    a = RunArtifacts(record=rec_off, label="float-off")
    b = RunArtifacts(record=rec_on, label="float-on")
    markdown = render_markdown(diff_runs(a, b))

    rows = {}
    in_table = False
    for line in markdown.splitlines():
        if line.startswith("## Headline deltas"):
            in_table = True
            continue
        if in_table and line.startswith("## "):
            break
        if in_table and line.startswith("|") and "---" not in line:
            cells = [c.strip() for c in line.strip("|").split("|")]
            if cells[0] != "stat":
                rows[cells[0]] = cells[1:]

    expected = {
        "cycles": (float(rec_off.cycles), float(rec_on.cycles)),
        "core.ops": (rec_off.stats.get("core.ops"),
                     rec_on.stats.get("core.ops")),
        "l2.hit_rate": (rec_off.l2_hit_rate(), rec_on.l2_hit_rate()),
        "noc.flit_hops": (rec_off.flit_hops, rec_on.flit_hops),
        "se_core.floats": (rec_off.stats.get("se_core.floats"),
                           rec_on.stats.get("se_core.floats")),
        "energy.total_pj": (rec_off.energy.total, rec_on.energy.total),
    }
    for name, (va, vb) in expected.items():
        cell_a, cell_b, cell_delta = rows[name][:3]
        assert cell_a == _fmt(float(va)), name
        assert cell_b == _fmt(float(vb)), name
        assert cell_delta == _fmt(float(vb) - float(va)), name
    # Floating actually happened in the float-on run.
    assert rec_on.stats.get("se_core.floats") > 0
    assert rows["cycles"][2].startswith("-")  # sf is faster

    # Provenance verdicts surfaced in the report.
    assert "## Decision provenance" in markdown
    assert "| float |" in markdown


# ----------------------------------------------------------------------
# CLI round-trip on captured run directories
# ----------------------------------------------------------------------
def test_cli_diff_on_run_dirs(tmp_path):
    from repro.obs.__main__ import main

    a, b = synthetic_pair()
    for artifacts, name in ((a, "runA"), (b, "runB")):
        run_dir = tmp_path / name
        run_dir.mkdir()
        with open(run_dir / "record.json", "w") as fh:
            json.dump(artifacts.record.to_dict(), fh)
        with open(run_dir / "pt.intervals.jsonl", "w") as fh:
            for sample in artifacts.intervals:
                fh.write(json.dumps(sample) + "\n")
        with open(run_dir / "pt.trace.json", "w") as fh:
            json.dump({"traceEvents": artifacts.trace_events}, fh)
    out = tmp_path / "report.md"
    html = tmp_path / "report.html"
    rc = main(["diff", str(tmp_path / "runA"), str(tmp_path / "runB"),
               "--out", str(out), "--html", str(html),
               "--label-a", "base", "--label-b", "sf", "--top", "2"])
    assert rc == 0
    with open(GOLDEN, encoding="utf-8") as fh:
        assert open(out).read() == fh.read()
    assert "Run diff" in open(html).read()


def test_load_rejects_non_run_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        RunArtifacts.load(str(tmp_path))


def regenerate_golden() -> None:
    a, b = synthetic_pair()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(render_markdown(diff_runs(a, b, k=2)))
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    regenerate_golden()
