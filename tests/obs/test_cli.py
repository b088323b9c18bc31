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
