"""Telemetry layer tests: config parsing, pillars on the probe seam.

The layer must be a strict no-op with no probe subscribed when no
``Telemetry`` is attached, and attach the requested pillars (and only
those) when one is.
"""

from types import SimpleNamespace

import pytest

from repro.obs.telemetry import PILLARS, Telemetry, TelemetryConfig
from repro.sim import Simulator
from repro.sim.stats import Stats
from tests.mem.conftest import MiniHierarchy

BASE = 0x20_0000


# ----------------------------------------------------------------------
# config parsing and attachment
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_disabled_without_env():
    sim = Simulator()
    assert sim.telemetry is None
    # Zero-cost off: nothing watches the kernel's dispatches (the
    # sanitizer is also off here)...
    assert sim.probes.dispatch is None and sim.probes.dispatched is None
    # ...and no component method is replaced.
    hier = MiniHierarchy()
    assert hier.sim.probes.l1_miss is None
    assert "_miss" not in hier.l1s[0].__dict__


@pytest.mark.parametrize("value", ["1", "all", "on", "true"])
def test_all_values_enable_every_pillar(value):
    config = TelemetryConfig.parse(value)
    assert config == TelemetryConfig(spans=True, interval=10_000,
                                     profile=True, provenance=True,
                                     attribution=True)
    assert TelemetryConfig.parse(",".join(PILLARS)) == config


def test_pillar_list_parses():
    config = TelemetryConfig.parse("spans,profile")
    assert config.spans and config.profile
    assert config.interval == 0


def test_interval_period_from_env():
    config = TelemetryConfig.parse("interval", 2500)
    assert config.interval == 2500
    assert not config.spans and not config.profile


def test_unknown_pillar_rejected():
    with pytest.raises(ValueError, match="bogus"):
        TelemetryConfig.parse("spans,bogus")


def test_env_attach_installs_hooks():
    hier = MiniHierarchy()
    tel = Telemetry(hier.sim, TelemetryConfig.parse("spans"))
    assert hier.sim.telemetry is tel
    assert tel.spans is not None
    assert tel.sampler is None and tel.profiler is None
    # spans alone watches no dispatch; the sanitizer does.
    results = []
    hier.read(0, BASE, results)
    hier.run()
    assert results
    assert tel.spans.opened > 0
    assert tel.spans.closed == tel.spans.opened


def test_step_hook_only_for_interval_or_profile():
    sim = Simulator()
    Telemetry(sim, TelemetryConfig.parse("profile"))
    assert sim.telemetry.profiler is not None
    assert sim.probes.dispatched is not None


# ----------------------------------------------------------------------
# streams-alive gauge (interval sampler)
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_streams_alive_gauge_tracks_float_sink_end():
    sim = Simulator()
    tel = Telemetry(sim, TelemetryConfig(interval=10))
    tel.sampler.bind(Stats(), links=1, cores=1)
    probes = sim.probes
    alive = []

    def sample():
        probes.dispatched(10 * (len(alive) + 1), None)
        alive.append(tel.sampler.samples[-1]["streams_alive"])

    probes.se_floated(SimpleNamespace(tile=0), SimpleNamespace(sid=1))
    probes.se_floated(SimpleNamespace(tile=1), SimpleNamespace(sid=1))
    sample()
    probes.se_sunk(SimpleNamespace(tile=0), SimpleNamespace(sid=1))
    sample()
    # end after sink for the same stream is idempotent...
    probes.se_l3_end(SimpleNamespace(tile=9),
                     SimpleNamespace(requester=0, sid=1))
    sample()
    # ...and end alone retires the other one.
    probes.se_l3_end(SimpleNamespace(tile=9),
                     SimpleNamespace(requester=1, sid=1))
    sample()
    assert alive == [2, 1, 1, 0]


def test_telemetry_does_not_change_simulation():
    results = []
    hier = MiniHierarchy()
    for k in range(8):
        hier.read(k % 4, BASE + k * 64, results)
    hier.run()
    plain = (hier.sim.now, list(results))

    results2 = []
    hier2 = MiniHierarchy()
    Telemetry(hier2.sim, TelemetryConfig.parse("all"))
    for k in range(8):
        hier2.read(k % 4, BASE + k * 64, results2)
    hier2.run()
    assert (hier2.sim.now, results2) == plain
    assert hier2.sim.telemetry.spans.opened > 0
