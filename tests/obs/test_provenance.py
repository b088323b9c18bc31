"""Decision-provenance pillar tests: ledger mechanics, real-run
verdict recording with input snapshots, export artifacts, and the
zero-cost-off contract."""

import json
from types import SimpleNamespace

import pytest

from repro.obs.export import (
    provenance_instant_events,
    write_point_dir,
    write_provenance,
)
from repro.obs.provenance import ProvenanceLedger, ProvenanceRecord
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.sim.kernel import Simulator
from repro.streams.pattern import AffinePattern


def _telemetry():
    return Telemetry(Simulator(), TelemetryConfig(provenance=True))


# Small stand-ins for the components and streams the probes carry.
def _se(tile, requests=0, misses=0):
    entry = SimpleNamespace(
        requests=requests, reuses=0, misses=misses, aliased=False,
        miss_ratio=misses / requests if requests else 0.0,
        w_requests=0, w_reuses=0, w_misses=0, w_stores=0, cooldown=0,
        revokes=0,
    )
    return SimpleNamespace(tile=tile, se_l2=None,
                           history=SimpleNamespace(entry=lambda sid: entry))


def _stream(sid):
    pattern = AffinePattern(base=0, strides=(64,), lengths=(64,),
                            elem_size=64)
    return SimpleNamespace(
        sid=sid, spec=SimpleNamespace(pattern=pattern, length=64),
        next_issue=0, consecutive_hits=0, plan=None,
    )


def _l3_stream(requester, sid, **fields):
    return SimpleNamespace(requester=requester, spec=SimpleNamespace(sid=sid),
                           **fields)


# ----------------------------------------------------------------------
# ledger mechanics
# ----------------------------------------------------------------------
def test_ledger_collects_decision_events():
    tel = _telemetry()
    ledger = tel.provenance
    assert isinstance(ledger, ProvenanceLedger)
    probes = tel.sim.probes
    probes.se_float_decision(_se(2, requests=10, misses=9), _stream(7),
                             "history", None)
    probes.se_sink_decision(_se(0), _stream(7), "cache_hits")
    assert len(ledger.records) == 2
    rec = ledger.records[0]
    assert rec.verdict == "float" and rec.sid == 7 and rec.tile == 2
    assert rec.reason == "history"
    assert rec.inputs["miss_ratio"] == 0.9
    assert rec.inputs["requests"] == 10
    assert rec.inputs["pattern"] == "AffinePattern"
    assert rec.inputs["footprint"] == 64 * 64
    assert ledger.verdict_counts() == {"float": 1, "sink": 1}
    assert [r.verdict for r in ledger.by_verdict("sink")] == ["sink"]


def test_ledger_bounded_with_drop_counter():
    tel = _telemetry()
    ledger = tel.provenance
    ledger.max_records = 3
    for i in range(5):
        tel.sim.probes.se_float_decision(_se(0), _stream(i), "history",
                                         None)
    assert len(ledger.records) == 3
    assert ledger.dropped == 2
    assert ledger.summary()["decisions_dropped"] == 2


def test_ledger_migrate_and_confluence_enrichment():
    tel = _telemetry()
    probes = tel.sim.probes
    probes.se_l3_migrate(
        SimpleNamespace(tile=1),
        _l3_stream(0, 3, next_idx=40, epoch=1, credits=5), 2)
    probes.se_l3_confluence(
        SimpleNamespace(tile=2),
        _l3_stream(1, 9, group=SimpleNamespace(members=[0, 1, 2, 3])))
    ledger = tel.provenance
    migrate, confluence = ledger.records
    assert migrate.verdict == "migrate"
    assert (migrate.tile, migrate.requester, migrate.sid) == (1, 0, 3)
    assert migrate.inputs == {"elem": 40, "to_bank": 2, "epoch": 1,
                              "credits": 5}
    assert confluence.verdict == "confluence"
    assert confluence.inputs == {"group_size": 4}


def test_tile_activity_and_link_accounting():
    tel = _telemetry()
    probes = tel.sim.probes
    bank = SimpleNamespace(tile=1)
    probes.l3_demand(bank, None, "hit")
    probes.l3_demand(bank, None, "queued")
    probes.l3_getu(bank, None)
    probes.dram(SimpleNamespace(tile=0), None, 120)
    probes.noc_links([(0, 1), (1, 3)], 4)
    probes.noc_links([(0, 1)], 2)
    summary = tel.provenance.summary()
    assert summary["tile.1.l3_demand"] == 2
    assert summary["tile.1.getu"] == 1
    assert summary["tile.0.dram"] == 1
    assert summary["link.0>1.flits"] == 6
    assert summary["link.1>3.flits"] == 4


def test_record_round_trip():
    rec = ProvenanceRecord(cycle=10, tile=3, verdict="float", sid=1,
                           requester=2, reason="history",
                           inputs={"epoch": 0})
    assert ProvenanceRecord.from_dict(rec.to_dict()) == rec


# ----------------------------------------------------------------------
# enablement / zero-cost-off
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_provenance_off_means_no_ledger():
    sim = Simulator()
    Telemetry(sim, TelemetryConfig.parse("spans,interval"))
    assert sim.telemetry is not None
    assert sim.telemetry.provenance is None


@pytest.mark.no_sanitize
def test_all_enables_provenance():
    sim = Simulator()
    Telemetry(sim, TelemetryConfig.parse("all"))
    assert sim.telemetry.provenance is not None


# ----------------------------------------------------------------------
# real-run verdicts with input snapshots
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sf_telemetry_record():
    from repro.harness.runner import Point, simulate

    record, _ = simulate(Point("mv", "sf", cols=2, rows=2, scale=8),
                         TelemetryConfig(provenance=True))
    return record


def test_real_run_records_decisions(sf_telemetry_record):
    tel = sf_telemetry_record.telemetry
    assert tel["decisions"] > 0
    assert tel["decisions.float"] > 0
    assert tel["decisions.migrate"] > 0
    assert tel["decisions.config_installed"] > 0
    # Stream-floating runs float/sink based on history: both verdicts
    # and their tile/link activity must be present.
    assert any(k.startswith("tile.") for k in tel)
    assert any(k.startswith("link.") for k in tel)
    # Counters also ride the stats tree as telemetry.* (RunRecord).
    assert sf_telemetry_record.stats.get("telemetry.decisions") == \
        tel["decisions"]


def test_float_decisions_snapshot_policy_inputs():
    """A float verdict must carry the evidence the policy saw: the
    Table-II history row, pattern class and position."""
    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    system = make_config("sf", core="ooo8", cols=2, rows=2, scale=8,
                         link_bits=256, l3_interleave=None)
    chip = Chip(system)
    ledger = Telemetry(chip.sim, TelemetryConfig(provenance=True)).provenance
    programs = build_programs("mv", chip.num_cores, scale=8, seed=0)
    chip.run(programs)
    floats = ledger.by_verdict("float")
    assert floats
    for rec in floats:
        for field in ("requests", "reuses", "misses", "miss_ratio",
                      "pattern", "length", "next_issue"):
            assert field in rec.inputs, \
                f"float decision missing {field!r}"
        assert 0.0 <= rec.inputs["miss_ratio"] <= 1.0
    # Both float paths leave distinct evidence: configure-time floats
    # (footprint exceeds L2) fire before any requests; history floats
    # carry the Table-II row that crossed the miss-ratio threshold.
    history = [r for r in floats if r.reason == "history"]
    footprint = [r for r in floats if r.reason == "footprint"]
    assert history and footprint
    assert all(r.inputs["requests"] > 0 for r in history)

    # A history float shows the streaming signature over the stream's
    # lifetime OR its current window (windowed requalification: one
    # early warm prefix no longer disqualifies forever).
    def qualifying_ratio(rec):
        lifetime = rec.inputs["miss_ratio"]
        w_requests = rec.inputs.get("w_requests", 0)
        windowed = (
            rec.inputs.get("w_misses", 0) / w_requests if w_requests else 0.0
        )
        return max(lifetime, windowed)

    assert all(qualifying_ratio(r) > 0.5 for r in history)
    assert all(r.inputs["footprint"] is not None for r in footprint)
    sinks = ledger.by_verdict("sink")
    assert sinks and all(r.reason for r in sinks)


def test_revocation_reaches_the_ledger():
    """The smart policy's revocation must land as a ``revoke`` verdict
    carrying the counters that triggered it (the PR acceptance case:
    the tiled stencil's cache-resident re-sweeps)."""
    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    system = make_config("sf_smart", core="ooo8", cols=2, rows=2,
                         scale=16)
    chip = Chip(system)
    ledger = Telemetry(chip.sim, TelemetryConfig(provenance=True)).provenance
    programs = build_programs("stencil_tiled", chip.num_cores,
                              scale=16, seed=0)
    chip.run(programs)
    revokes = ledger.by_verdict("revoke")
    assert revokes
    for rec in revokes:
        assert rec.reason.startswith("revoke"), rec.reason
        # The snapshot carries the windowed evidence behind the call.
        for field in ("requests", "w_requests", "w_reuses",
                      "consecutive_hits", "policy"):
            assert field in rec.inputs, f"revoke missing {field!r}"
        assert rec.inputs["policy"] == "smart"
    # A revoked float shows up in the summary counters too.
    counts = ledger.verdict_counts()
    assert counts["revoke"] == len(revokes)
    assert counts.get("float", 0) >= len(revokes)


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def _tiny_ledger():
    tel = _telemetry()
    probes = tel.sim.probes
    probes.se_float_decision(_se(1), _stream(4), "history", None)
    probes.se_sink_decision(_se(0), _stream(4), "alias_store")
    return tel


def test_provenance_jsonl_writer(tmp_path):
    tel = _tiny_ledger()
    path = write_provenance(str(tmp_path / "p.jsonl"),
                            tel.provenance.to_rows("pt"))
    rows = [json.loads(line) for line in open(path)]
    assert [r["verdict"] for r in rows] == ["float", "sink"]
    assert all(r["point"] == "pt" for r in rows)


def test_instant_events_land_on_streams_track():
    tel = _tiny_ledger()
    events = provenance_instant_events(tel.provenance, pid=3, point="pt")
    assert all(e["ph"] == "i" and e["cat"] == "decision" for e in events)
    # streams track is index 2 of 4 per tile.
    assert events[0]["tid"] == 1 * 4 + 2
    assert events[1]["tid"] == 0 * 4 + 2
    assert events[0]["args"]["verdict"] == "float"
    assert events[0]["args"]["reason"] == "history"


def test_point_dir_includes_provenance(tmp_path):
    tel = _tiny_ledger()
    written = write_point_dir(tel, "pt", str(tmp_path))
    assert str(tmp_path / "pt.provenance.jsonl") in written
    rows = [json.loads(line)
            for line in open(tmp_path / "pt.provenance.jsonl")]
    assert len(rows) == 2
