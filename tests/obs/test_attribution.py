"""Cycle-accounting pillar tests: conservation, golden CPI stack,
``--jobs`` byte-stability, identical accounting with fusion on and
off, and the bucket movement the attribution figure exists to show."""

import json
import os

import pytest

from repro.harness.parallel import run_points
from repro.harness.runner import clear_cache, params_key, run_once, run_params
from repro.obs.attribution import BUCKETS
from repro.obs.telemetry import ENV_TELEMETRY
from repro.sim.fastpath import ENV_FASTPATH

GOLDEN_JSON = os.path.join(os.path.dirname(__file__),
                           "golden_attribution.json")
GOLDEN_MD = os.path.join(os.path.dirname(__file__),
                         "golden_attribution.md")

KW = dict(cols=2, rows=2, scale=64)
GOLDEN_POINT = dict(workload="mv", config="sf", **KW)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _attribution(record):
    """The deterministic attribution subset of a record's telemetry."""
    return {name: value for name, value in sorted(
        (record.telemetry or {}).items())
        if name.startswith(("cpi.", "crit.", "critdom."))}


def _golden_record():
    return run_once(obs="attribution,spans", use_cache=False,
                    **GOLDEN_POINT)


# ----------------------------------------------------------------------
# conservation: every core cycle lands in exactly one bucket
# ----------------------------------------------------------------------
def _chip_run(workload, config, monkeypatch, pillars="attribution",
              fastpath=None, **kw):
    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    monkeypatch.setenv(ENV_TELEMETRY, pillars)
    if fastpath is not None:
        monkeypatch.setenv(ENV_FASTPATH, fastpath)
    kw = dict(KW, **kw)
    scale = kw.pop("scale")
    system = make_config(config, core="ooo8", scale=scale, **kw)
    chip = Chip(system)
    programs = build_programs(workload, chip.num_cores, scale=scale,
                              seed=0)
    chip.run(programs)
    return chip


@pytest.mark.parametrize("workload,config", [
    ("mv", "base"), ("mv", "sf"), ("nn", "sf"), ("bfs", "sf"),
    ("conv3d", "ss"), ("hotspot", "sf"), ("pathfinder", "base"),
])
def test_buckets_sum_to_core_cycles(workload, config, monkeypatch):
    chip = _chip_run(workload, config, monkeypatch)
    accountant = chip.sim.telemetry.attribution
    # finalize() already ran check() once; re-assert per core here so
    # a failure names the tile.
    for tile, ts in sorted(accountant._tiles.items()):
        total = sum(ts.buckets.values())
        finish = chip.tiles[tile].core.finish_time
        assert total == finish, (
            f"tile {tile}: buckets sum {total} != {finish} cycles"
        )
    summary = accountant.summary()
    assert summary["cpi.total_cycles"] == sum(
        summary[f"cpi.{b}"] for b in BUCKETS)
    assert summary["cpi.total_cycles"] > 0
    assert summary["cpi.journeys_dropped"] == 0


def test_conservation_is_asserted_at_finalize(monkeypatch):
    chip = _chip_run("mv", "sf", monkeypatch)
    accountant = chip.sim.telemetry.attribution
    tile = min(accountant._tiles)
    accountant._tiles[tile].buckets["compute"] += 1
    with pytest.raises(AssertionError, match="conservation"):
        accountant.check()


def test_record_carries_cpi_counters():
    record = run_once(obs="attribution", use_cache=False, **GOLDEN_POINT)
    tel = record.telemetry
    for bucket in BUCKETS:
        assert f"cpi.{bucket}" in tel
    assert tel["cpi.total_cycles"] == sum(
        tel[f"cpi.{b}"] for b in BUCKETS)


# ----------------------------------------------------------------------
# golden CPI stack + critical-path profile (byte-stable, jobs-safe)
# ----------------------------------------------------------------------
def _load_golden():
    with open(GOLDEN_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_attribution_counters():
    """The full cpi.*/crit.* export for one pinned point, byte-stable
    (regenerate with `python -m tests.obs.test_attribution` after a
    deliberate accounting change)."""
    got = json.dumps(_attribution(_golden_record()), indent=1,
                     sort_keys=True)
    with open(GOLDEN_JSON, encoding="utf-8") as fh:
        assert got == fh.read().rstrip("\n")


def test_golden_attribution_report():
    from repro.obs.report import render_attribution

    got = render_attribution(_golden_record())
    with open(GOLDEN_MD, encoding="utf-8") as fh:
        assert got == fh.read()


def test_attribution_stable_across_jobs():
    """`--jobs 2` must reproduce the serial CPI stack byte-for-byte
    (the golden pins the serial one; satellite of DESIGN.md §15)."""
    points = [dict(GOLDEN_POINT, obs="attribution,spans"),
              dict(workload="mv", config="base", obs="attribution,spans",
                   **KW)]
    records = run_points(points, jobs=2, use_cache=False)
    key = params_key(run_params(**points[0]))
    got = json.dumps(_attribution(records[key]), indent=1, sort_keys=True)
    want = json.dumps(_load_golden(), indent=1, sort_keys=True)
    assert got == want


# ----------------------------------------------------------------------
# the figure's claim: floating moves cycles out of DRAM/NoC waits
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_floating_empties_dram_wait_bucket():
    base = run_once("mv", "base", cols=2, rows=2, scale=16,
                    obs="attribution", use_cache=False)
    sf = run_once("mv", "sf", cols=2, rows=2, scale=16,
                  obs="attribution", use_cache=False)
    assert sf.cycles < base.cycles  # floating wins on mv...
    b, s = base.telemetry, sf.telemetry
    # ...and the accounting shows where: the DRAM-wait bucket empties
    # (demand misses no longer walk to memory; floated streams feed
    # the core from L3/SE instead).
    assert s["cpi.wait_dram"] < 0.2 * b["cpi.wait_dram"]
    assert (b["cpi.wait_dram"] / b["cpi.total_cycles"]
            > s["cpi.wait_dram"] / s["cpi.total_cycles"])


# ----------------------------------------------------------------------
# fastpath: telemetry observes the fused path, and sees the same run
# ----------------------------------------------------------------------
def _span_chains(chip):
    return sorted(
        (s.kind, str(s.key), s.start,
         tuple((h.name, h.cycle, h.tile) for h in s.hops), s.end)
        for s in chip.sim.telemetry.spans.spans
    )


@pytest.mark.parametrize("fastpath,fused", [(None, True), ("0", False)])
def test_telemetry_keeps_fastpath(fastpath, fused, monkeypatch):
    monkeypatch.delenv(ENV_FASTPATH, raising=False)
    chip = _chip_run("mv", "sf", monkeypatch, pillars="spans,attribution",
                     fastpath=fastpath)
    # Attaching telemetry leaves handler fusion as REPRO_FASTPATH sets
    # it (on by default): the pillars observe the path that ships.
    assert chip.sim.fastpath is fused


def test_fastpath_setting_does_not_change_attribution(monkeypatch):
    runs = {}
    for fastpath in ("1", "0"):
        chip = _chip_run("mv", "sf", monkeypatch,
                         pillars="spans,attribution", fastpath=fastpath)
        runs[fastpath] = (
            chip.sim.now,
            _span_chains(chip),
            chip.sim.telemetry.attribution.summary(),
        )
    assert runs["1"] == runs["0"]


# ----------------------------------------------------------------------
# regeneration entry point
# ----------------------------------------------------------------------
def regenerate_golden() -> None:
    from repro.obs.report import render_attribution

    clear_cache()
    record = _golden_record()
    with open(GOLDEN_JSON, "w", encoding="utf-8") as fh:
        json.dump(_attribution(record), fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(GOLDEN_MD, "w", encoding="utf-8") as fh:
        fh.write(render_attribution(record))
    print(f"wrote {GOLDEN_JSON}\nwrote {GOLDEN_MD}")


if __name__ == "__main__":
    regenerate_golden()
