"""Tests for the ``python -m repro.harness`` CLI."""

import pytest

from repro.harness.__main__ import main
from repro.harness.runner import clear_cache


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_cache()
    yield
    clear_cache()


def test_cli_runs_a_small_figure(capsys):
    rc = main([
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--no-cache",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "nn" in out
    assert "done in" in out


def test_cli_fig14(capsys):
    rc = main([
        "fig14", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "conv3d", "--no-cache",
    ])
    assert rc == 0
    assert "Figure 14" in capsys.readouterr().out


def test_cli_parallel_report_matches_serial(tmp_path, capsys):
    """--jobs 4 must render byte-identical report text, and the warm
    disk cache must satisfy the rerun without new simulations."""
    args = [
        "fig13", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--cache-dir", str(tmp_path / "cache"),
    ]

    def report_lines(out):
        # Everything except the timing/cache footer is the report.
        return [l for l in out.splitlines() if not l.startswith("[fig13")]

    assert main(args + ["--jobs", "4"]) == 0
    cold = capsys.readouterr().out
    assert "0 disk hits" in cold

    clear_cache()  # simulate a fresh session; only the disk remains
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert report_lines(warm) == report_lines(cold)
    assert "0 simulated" in warm

    clear_cache()
    assert main(args + ["--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert report_lines(serial) == report_lines(cold)


def test_cli_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_unknown_core():
    with pytest.raises(SystemExit):
        main(["fig2", "--core", "pentium"])


# ----------------------------------------------------------------------
# telemetry flags (--trace-out / --interval-stats / --profile)
# ----------------------------------------------------------------------
def test_cli_telemetry_artifacts(tmp_path, capsys):
    """One run with all three pillars produces the three artifacts."""
    import json

    trace = tmp_path / "run.trace.json"
    intervals = tmp_path / "run.intervals.jsonl"
    profile = tmp_path / "run.profile.json"
    rc = main([
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--no-cache",
        "--trace-out", str(trace),
        "--interval-stats", "5000", "--interval-out", str(intervals),
        "--profile", "--profile-out", str(profile),
    ])
    assert rc == 0
    err = capsys.readouterr().err

    payload = json.load(open(trace))
    events = payload["traceEvents"]
    assert events
    assert {e["ph"] for e in events} <= {"X", "M", "s", "f"}
    assert any(e["ph"] == "X" for e in events)

    lines = [json.loads(line) for line in open(intervals)]
    assert lines
    assert {"point", "cycle", "ipc", "noc_util", "l3_mpki"} <= set(lines[0])

    prof = json.load(open(profile))
    assert prof["points"]
    assert prof["points"][0]["top"]
    assert "== nn-base-ooo8-2x2-s64 ==" in err
    assert "us/event" in err
    for path in (trace, intervals, profile):
        assert f"wrote {path}" in err


def test_cli_telemetry_parallel_jobs(tmp_path, capsys):
    """Telemetry composes with --jobs N: fan-out workers return each
    point's artifacts to the parent, which merges them in the order
    the figure enumerates its points — so the trace, interval and
    provenance files, and the report text, are byte-identical to a
    serial telemetry run's."""
    import json

    def outputs(tag):
        return [
            "--trace-out", str(tmp_path / f"{tag}.trace.json"),
            "--interval-out", str(tmp_path / f"{tag}.intervals.jsonl"),
            "--provenance-out", str(tmp_path / f"{tag}.provenance.jsonl"),
        ]

    trace = tmp_path / "par.trace.json"
    intervals = tmp_path / "par.intervals.jsonl"
    provenance = tmp_path / "par.provenance.jsonl"
    # fig13 enumerates stream-floating configs, so the provenance
    # ledger has float/sink verdicts to merge (fig2 is base-only).
    args = [
        "fig13", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "mv", "--no-cache",
        "--interval-stats", "5000",
    ]
    rc = main(args + ["--jobs", "2"] + outputs("par"))
    assert rc == 0
    captured = capsys.readouterr()
    assert "forcing --jobs 1" not in captured.err

    events = json.load(open(trace))["traceEvents"]
    point_names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    # fig13 enumerates multiple configs per workload; every simulated
    # point must appear as its own trace process, for both workloads.
    assert any(name.startswith("nn-") for name in point_names)
    assert any(name.startswith("mv-") for name in point_names)
    # Merged points keep distinct pids (every bundle arrives as pid 1).
    pids = {e["pid"] for e in events}
    assert len(pids) == len(point_names)

    interval_points = {
        json.loads(line)["point"] for line in open(intervals)
    }
    assert interval_points == point_names

    rows = [json.loads(line) for line in open(provenance)]
    assert rows
    assert {"cycle", "tile", "verdict", "inputs", "point"} <= set(rows[0])

    # Same run serially: report text and artifacts are byte-identical.
    clear_cache()
    assert main(args + outputs("serial")) == 0
    serial_out = capsys.readouterr().out

    def report_lines(out):
        return [l for l in out.splitlines() if not l.startswith("[fig13")]

    assert report_lines(serial_out) == report_lines(captured.out)
    for suffix in ("trace.json", "intervals.jsonl", "provenance.jsonl"):
        assert (tmp_path / f"serial.{suffix}").read_bytes() == \
            (tmp_path / f"par.{suffix}").read_bytes(), suffix


def test_cli_telemetry_bypasses_the_disk_cache(tmp_path, capsys):
    """A telemetry run neither stores its records in the disk cache
    (they carry telemetry the cache key does not name) nor reads
    cached ones (a cached point has no artifacts to give)."""
    import json

    from repro.harness.runner import configure_disk_cache, run_once

    cache = str(tmp_path / "cache")
    base = [
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--cache-dir", cache,
    ]
    # A telemetry run on a cold cache leaves nothing a plain run reads.
    assert main(base + ["--trace-out", str(tmp_path / "cold.json")]) == 0
    capsys.readouterr()
    clear_cache()
    configure_disk_cache(cache)
    try:
        record = run_once("nn", "base", cols=2, rows=2, scale=64)
    finally:
        configure_disk_cache(None)
    assert record.telemetry is None
    assert not [k for k in record.stats.to_dict()
                if k.startswith("telemetry.")]

    # A telemetry run on a warm cache still simulates every point.
    clear_cache()
    assert main(base) == 0  # the plain run above already warmed it
    assert "1 disk hits, 0 simulated" in capsys.readouterr().out
    clear_cache()
    trace = tmp_path / "warm.json"
    assert main(base + ["--trace-out", str(trace)]) == 0
    assert "0 disk hits, 1 simulated" in capsys.readouterr().out
    assert json.load(open(trace))["traceEvents"]
