"""Cycle-accounting pillar tests: conservation, golden CPI stack,
``--jobs`` byte-stability, a run that telemetry observes equal to one
it does not, and the bucket movement the attribution figure exists to
show."""

import json
import os
from dataclasses import replace

import pytest

from repro.harness.runner import Point, clear_cache, run_points, simulate
from repro.obs.attribution import BUCKETS
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.sim.kernel import Simulator
from repro.system.chip import Chip
from repro.system.configs import make_config
from repro.workloads.base import build_programs

GOLDEN_JSON = os.path.join(os.path.dirname(__file__),
                           "golden_attribution.json")
GOLDEN_MD = os.path.join(os.path.dirname(__file__),
                         "golden_attribution.md")

KW = dict(cols=2, rows=2, scale=64)
GOLDEN_POINT = Point("mv", "sf", obs="attribution,spans", **KW)


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
    return simulate(GOLDEN_POINT)[0]


# ----------------------------------------------------------------------
# conservation: every core cycle lands in exactly one bucket
# ----------------------------------------------------------------------
def _chip_run(workload, config, pillars="attribution", **kw):
    kw = dict(KW, **kw)
    scale = kw.pop("scale")
    system = make_config(config, core="ooo8", scale=scale, **kw)
    chip = Chip(system)
    if pillars is not None:
        Telemetry(chip.sim, TelemetryConfig.parse(pillars))
    programs = build_programs(workload, chip.num_cores, scale=scale,
                              seed=0)
    chip.run(programs)
    return chip


@pytest.mark.parametrize("workload,config", [
    ("mv", "base"), ("mv", "sf"), ("nn", "sf"), ("bfs", "sf"),
    ("conv3d", "ss"), ("hotspot", "sf"), ("pathfinder", "base"),
])
def test_buckets_sum_to_core_cycles(workload, config):
    chip = _chip_run(workload, config)
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


def test_conservation_is_asserted_at_finalize():
    chip = _chip_run("mv", "sf")
    accountant = chip.sim.telemetry.attribution
    tile = min(accountant._tiles)
    accountant._tiles[tile].buckets["compute"] += 1
    with pytest.raises(AssertionError, match="conservation"):
        accountant.check()


def test_record_carries_cpi_counters():
    record, _ = simulate(replace(GOLDEN_POINT, obs="attribution"))
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
    points = [GOLDEN_POINT, replace(GOLDEN_POINT, config="base")]
    records = run_points(points, jobs=2)
    got = json.dumps(_attribution(records[GOLDEN_POINT]), indent=1,
                     sort_keys=True)
    want = json.dumps(_load_golden(), indent=1, sort_keys=True)
    assert got == want


# ----------------------------------------------------------------------
# the figure's claim: floating moves cycles out of DRAM/NoC waits
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_floating_empties_dram_wait_bucket():
    base, _ = simulate(Point("mv", "base", cols=2, rows=2, scale=16,
                             obs="attribution"))
    sf, _ = simulate(Point("mv", "sf", cols=2, rows=2, scale=16,
                           obs="attribution"))
    assert sf.cycles < base.cycles  # floating wins on mv...
    b, s = base.telemetry, sf.telemetry
    # ...and the accounting shows where: the DRAM-wait bucket empties
    # (demand misses no longer walk to memory; floated streams feed
    # the core from L3/SE instead).
    assert s["cpi.wait_dram"] < 0.2 * b["cpi.wait_dram"]
    assert (b["cpi.wait_dram"] / b["cpi.total_cycles"]
            > s["cpi.wait_dram"] / s["cpi.total_cycles"])


# ----------------------------------------------------------------------
# observing a run must not change it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fastpath,fused", [(None, True), (0, False)])
def test_telemetry_keeps_fastpath(fastpath, fused, monkeypatch):
    # fastpath overrides the kernel's inert class attribute (None keeps
    # the shipped default); no module under src/ reads it, so neither
    # setting may change the run, observed or not.
    if fastpath is not None:
        monkeypatch.setattr(Simulator, "fastpath", fastpath)
    runs = {}
    for pillars in (None, "spans,attribution"):
        chip = _chip_run("mv", "sf", pillars=pillars)
        runs[pillars] = (chip.stats.get("chip.cycles"),
                         chip.sim.events_executed, chip.sim.events_inlined)
    assert chip.sim.telemetry is not None
    assert bool(chip.sim.fastpath) is fused
    assert runs["spans,attribution"] == runs[None]


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
