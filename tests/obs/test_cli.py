"""``python -m repro.obs`` capture and attribution subcommands, end to
end on one small point (``diff`` is covered in test_diff.py)."""

import json
import os

from repro.obs.__main__ import main

HERE = os.path.dirname(__file__)
POINT = ["--workload", "mv", "--config", "sf",
         "--cols", "2", "--rows", "2", "--scale", "64"]


def test_cli_run_and_attribute(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["run", *POINT, "--out", str(run_dir)]) == 0
    with open(run_dir / "record.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert (record["workload"], record["config"]) == ("mv", "sf")
    assert record["stats"]["chip.cycles"] == record["cycles"] > 0
    assert record["telemetry"]
    slug = "mv-sf-ooo8-2x2-s64"
    assert sorted(os.listdir(run_dir)) == sorted([
        "record.json", f"{slug}.trace.json", f"{slug}.intervals.jsonl",
        f"{slug}.provenance.jsonl",
    ])
    for suffix in ("intervals.jsonl", "provenance.jsonl"):
        with open(run_dir / f"{slug}.{suffix}", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and {row["point"] for row in rows} == {slug}, suffix
    # Every floated stream's span runs float -> ... -> sink|end, its
    # hops in cycle order.
    with open(run_dir / f"{slug}.trace.json", encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    streams = [e for e in events if e.get("cat") == "stream"]
    assert streams
    for ev in streams:
        hops = ev["args"]["hops"]
        assert hops[0][0] == "float"
        assert hops[-1][0] in ("sink", "end")
        assert [h[1] for h in hops] == sorted(h[1] for h in hops)

    report = tmp_path / "attr" / "report.md"
    counters = tmp_path / "attr" / "cpi.json"
    assert main(["attribute", *POINT, "--out", str(report),
                 "--json", str(counters)]) == 0
    # The CLI renders the same CPI stack and bottleneck table the
    # attribution goldens pin for this point.
    with open(os.path.join(HERE, "golden_attribution.md"),
              encoding="utf-8") as fh:
        assert report.read_text(encoding="utf-8") == fh.read()
    with open(counters, encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(os.path.join(HERE, "golden_attribution.json"),
              encoding="utf-8") as fh:
        assert payload["attribution"] == json.load(fh)
    # Full telemetry and attribution-only runs of one point agree.
    assert payload["cycles"] == record["cycles"]
