"""Telemetry layer tests: enablement matrix, event bus, probes.

Mirrors ``tests/sim/test_sanitizer.py``'s enablement coverage: the
layer must be a strict no-op with no probe subscribed when off, and
attach the requested pillars (and only those) when on.
"""

import pytest

from repro.obs.telemetry import (
    ENV_INTERVAL,
    ENV_TELEMETRY,
    Telemetry,
    TelemetryConfig,
    config_from_env,
    enabled_by_env,
)
from repro.sim import Simulator
from tests.mem.conftest import MiniHierarchy

BASE = 0x20_0000


# ----------------------------------------------------------------------
# enablement matrix
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_disabled_without_env():
    assert not enabled_by_env()
    sim = Simulator()
    assert sim.telemetry is None
    # Zero-cost off: nothing watches the kernel's dispatches (the
    # sanitizer is also off here)...
    assert sim.probes.dispatch is None and sim.probes.dispatched is None
    # ...and no component method is replaced.
    hier = MiniHierarchy()
    assert hier.sim.probes.l1_miss is None
    assert "_miss" not in hier.l1s[0].__dict__


@pytest.mark.no_sanitize
@pytest.mark.parametrize("value", ["", "0", "off", "False", "no"])
def test_off_values(monkeypatch, value):
    monkeypatch.setenv(ENV_TELEMETRY, value)
    assert not enabled_by_env()
    assert config_from_env() is None


@pytest.mark.parametrize("value", ["1", "all", "on", "true"])
def test_all_values_enable_every_pillar(monkeypatch, value):
    monkeypatch.setenv(ENV_TELEMETRY, value)
    config = config_from_env()
    assert config.spans
    assert config.interval > 0
    assert config.profile


def test_pillar_list_parses(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "spans,profile")
    config = config_from_env()
    assert config.spans and config.profile
    assert config.interval == 0


def test_interval_period_from_env(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "interval")
    monkeypatch.setenv(ENV_INTERVAL, "2500")
    config = config_from_env()
    assert config.interval == 2500
    assert not config.spans and not config.profile


def test_unknown_pillar_rejected(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "spans,bogus")
    with pytest.raises(ValueError, match="bogus"):
        config_from_env()


def test_env_attach_installs_hooks(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "spans")
    hier = MiniHierarchy()
    tel = hier.sim.telemetry
    assert tel is not None
    assert tel.spans is not None
    assert tel.sampler is None and tel.profiler is None
    # spans alone watches no dispatch; the sanitizer does.
    results = []
    hier.read(0, BASE, results)
    hier.run()
    assert results
    assert tel.bus_events > 0
    assert tel.spans.opened > 0
    assert tel.spans.closed == tel.spans.opened


def test_step_hook_only_for_interval_or_profile(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "profile")
    sim = Simulator()
    assert sim.telemetry.profiler is not None
    assert sim.probes.dispatched is not None


# ----------------------------------------------------------------------
# event bus
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_publish_reaches_subscribers_in_order():
    sim = Simulator()
    tel = Telemetry(sim, TelemetryConfig())
    seen = []
    tel.subscribe("float", lambda ev: seen.append(("a", ev)))
    tel.subscribe("float", lambda ev: seen.append(("b", ev)))
    tel.publish("float", tile=3, detail="sid 1", sid=1)
    assert [tag for tag, _ in seen] == ["a", "b"]
    ev = seen[0][1]
    assert ev.kind == "float" and ev.tile == 3 and ev.data["sid"] == 1
    assert tel.bus_events == 1


@pytest.mark.no_sanitize
def test_subscribe_unknown_kind_rejected():
    tel = Telemetry(Simulator(), TelemetryConfig())
    with pytest.raises(ValueError, match="unknown telemetry kind"):
        tel.subscribe("nope", lambda ev: None)


@pytest.mark.no_sanitize
def test_streams_alive_gauge_tracks_float_sink_end():
    tel = Telemetry(Simulator(), TelemetryConfig())
    tel.publish("float", tile=0, sid=1)
    tel.publish("float", tile=1, sid=1)
    assert tel.streams_alive == 2
    tel.publish("sink", tile=0, sid=1)
    assert tel.streams_alive == 1
    # end after sink for the same stream is idempotent...
    tel.publish("end", tile=9, requester=0, sid=1)
    assert tel.streams_alive == 1
    # ...and end alone retires the other one.
    tel.publish("end", tile=9, requester=1, sid=1)
    assert tel.streams_alive == 0


def test_telemetry_does_not_change_simulation(monkeypatch):
    results = []
    hier = MiniHierarchy()
    for k in range(8):
        hier.read(k % 4, BASE + k * 64, results)
    hier.run()
    plain = (hier.sim.now, list(results))

    monkeypatch.setenv(ENV_TELEMETRY, "all")
    results2 = []
    hier2 = MiniHierarchy()
    for k in range(8):
        hier2.read(k % 4, BASE + k * 64, results2)
    hier2.run()
    assert (hier2.sim.now, results2) == plain
    assert hier2.sim.telemetry.bus_events > 0
