"""Interval sampler tests: cadence, deltas, derived rates, writers."""

import json
from types import SimpleNamespace

import pytest

from repro.obs.export import write_intervals
from repro.obs.interval import IntervalSampler
from repro.obs.probes import Probes
from repro.obs.telemetry import TelemetryConfig
from repro.sim.stats import Stats


def test_period_must_be_positive():
    with pytest.raises(ValueError):
        IntervalSampler(0)


def test_samples_deltas_not_totals():
    stats = Stats()
    sampler = IntervalSampler(100)
    sampler.bind(stats, links=8, cores=4)
    stats.add("core.ops", 500)
    stats.add("l3.misses", 5)
    sampler.on_step(100)
    stats.add("core.ops", 300)
    stats.add("l3.misses", 1)
    sampler.on_step(200)
    assert len(sampler.samples) == 2
    first, second = sampler.samples
    assert first["core_ops"] == 500 and second["core_ops"] == 300
    assert first["ipc"] == 5.0 and second["ipc"] == 3.0
    assert first["l3_mpki"] == 10.0
    assert second["l3_mpki"] == pytest.approx(1 / 0.3)


def test_sampler_skips_idle_gaps():
    stats = Stats()
    sampler = IntervalSampler(100)
    sampler.bind(stats, links=1, cores=1)
    sampler.on_step(50)
    assert not sampler.samples  # period not reached yet
    sampler.on_step(1050)  # one event after a long idle stretch
    assert len(sampler.samples) == 1  # no backlog of empty samples
    assert sampler.samples[0]["cycle"] == 1050
    sampler.on_step(1100)
    assert len(sampler.samples) == 2


def test_flush_emits_partial_tail():
    stats = Stats()
    sampler = IntervalSampler(1000)
    sampler.bind(stats, links=1, cores=1)
    stats.add("core.ops", 10)
    sampler.on_step(400)
    assert not sampler.samples
    sampler.flush(400)
    assert len(sampler.samples) == 1
    assert sampler.samples[0]["dcycles"] == 400
    sampler.flush(400)  # idempotent at the same cycle
    assert len(sampler.samples) == 1


def test_noc_util_uses_link_count():
    stats = Stats()
    sampler = IntervalSampler(10)
    sampler.bind(stats, links=4, cores=1)
    stats.add("noc.flit_hops.data", 20)
    sampler.on_step(10)
    assert sampler.samples[0]["noc_util"] == 20 / (4 * 10)


def test_streams_alive_gauge_is_sampled():
    probes = Probes()
    sampler = IntervalSampler(10, probes)
    sampler.bind(Stats(), links=1, cores=1)
    streams = [SimpleNamespace(sid=sid) for sid in range(3)]
    for stream in streams:
        probes.se_floated(SimpleNamespace(tile=0), stream)
    probes.dispatched(10, None)
    probes.se_sunk(SimpleNamespace(tile=0), streams[0])
    probes.se_l3_end(SimpleNamespace(tile=3),
                     SimpleNamespace(requester=0, sid=1))
    probes.dispatched(20, None)
    assert [s["streams_alive"] for s in sampler.samples] == [3, 1]


def test_unbound_sampler_never_samples():
    sampler = IntervalSampler(10)
    sampler.on_step(1000)
    sampler.flush(1000)
    assert sampler.samples == []


def test_zero_cycle_interval_no_division():
    """A sample spanning zero cycles (back-to-back boundaries at the
    same instant) must report zero rates, not divide by zero."""
    stats = Stats()
    sampler = IntervalSampler(100)
    sampler.bind(stats, links=4, cores=2)
    stats.add("core.ops", 50)
    stats.add("noc.flit_hops.data", 10)
    sampler._sample(100)
    stats.add("l3.misses", 3)  # activity but no elapsed cycles
    sampler._sample(100)
    assert len(sampler.samples) == 2
    zero = sampler.samples[1]
    assert zero["dcycles"] == 0
    assert zero["ipc"] == 0.0
    assert zero["noc_util"] == 0.0
    assert zero["l3_mpki"] == 0.0
    assert zero["l3_misses"] == 3


def test_zero_ops_interval_no_division():
    """l3_mpki divides by ops — an interval with misses but no ops
    must come out 0, not raise."""
    stats = Stats()
    sampler = IntervalSampler(100)
    sampler.bind(stats, links=1, cores=1)
    stats.add("l3.misses", 7)
    sampler.on_step(100)
    assert sampler.samples[0]["l3_mpki"] == 0.0
    assert sampler.samples[0]["ipc"] == 0.0
    assert sampler.samples[0]["l3_misses"] == 7


def test_flush_partial_interval_reconciles_totals():
    """The final partial interval carries exactly the tail activity:
    summed deltas across all samples equal the Stats totals."""
    stats = Stats()
    sampler = IntervalSampler(100)
    sampler.bind(stats, links=1, cores=1)
    stats.add("core.ops", 60)
    sampler.on_step(100)
    stats.add("core.ops", 25)
    sampler.flush(140)  # run ends mid-interval
    assert len(sampler.samples) == 2
    assert sampler.samples[1]["dcycles"] == 40
    assert sampler.samples[1]["core_ops"] == 25
    assert sum(s["core_ops"] for s in sampler.samples) == 85


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------
def _two_samples():
    stats = Stats()
    sampler = IntervalSampler(10)
    sampler.bind(stats, links=2, cores=2)
    stats.add("core.ops", 5)
    sampler.on_step(10)
    stats.add("core.ops", 7)
    sampler.on_step(20)
    return [{"point": "p", **s} for s in sampler.samples]


def test_jsonl_writer(tmp_path):
    path = write_intervals(str(tmp_path / "iv.jsonl"), _two_samples())
    lines = [json.loads(line) for line in open(path)]
    assert len(lines) == 2
    assert lines[0]["point"] == "p"
    assert lines[1]["core_ops"] == 7
    for col in IntervalSampler.columns():
        assert col in lines[0]


def test_interval_pillar_end_to_end():
    """A chip run with the interval pillar on produces samples whose
    totals reconcile with the final Stats."""
    from repro.harness.runner import Point, simulate

    record, _ = simulate(Point("nn", "base", cols=2, rows=2, scale=64),
                         TelemetryConfig(interval=5000))
    assert record.telemetry["interval_samples"] > 1
