"""Kernel profiler tests: attribution, ranking, report format."""

from types import SimpleNamespace

import pytest

from repro.obs.export import TelemetrySink, point_artifacts, point_slug
from repro.obs.profiler import KernelProfiler
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.sim import Simulator


def test_attribution_by_qualname():
    profiler = KernelProfiler()

    def fn_a():
        pass

    def fn_b():
        pass

    profiler.record(fn_a, 0.010)
    profiler.record(fn_a, 0.020)
    profiler.record(fn_b, 0.005)
    assert profiler.events == 3
    top = profiler.top(10)
    assert top[0]["callback"].endswith("fn_a")
    assert top[0]["events"] == 2
    assert top[0]["seconds"] == pytest.approx(0.030)
    assert top[0]["us_per_event"] == pytest.approx(15_000, rel=1e-3)
    assert profiler.total_seconds == pytest.approx(0.035)


def test_top_is_bounded_and_sorted():
    profiler = KernelProfiler()
    for i in range(30):
        fn = lambda: None  # noqa: E731
        fn.__qualname__ = f"cb_{i:02}"
        profiler.record(fn, 0.001 * (30 - i))
    top = profiler.top(5)
    assert len(top) == 5
    seconds = [row["seconds"] for row in top]
    assert seconds == sorted(seconds, reverse=True)
    assert top[0]["callback"] == "cb_00"


def test_report_renders_table():
    """The CLI's ``--profile`` table: one block per collected point."""
    profiler = KernelProfiler()

    def cb():
        pass

    profiler.record(cb, 0.001)
    telemetry = SimpleNamespace(spans=None, sampler=None, provenance=None,
                                profiler=profiler, summary=lambda: {})
    sink = TelemetrySink(profile_out="unused.json")
    sink.add(point_artifacts(telemetry, point_slug(dict(
        workload="mv", config="sf", core="ooo8", cols=2, rows=2,
        scale=64, seed=0))))
    lines = sink.profile_report().splitlines()
    assert lines[0] == "== mv-sf-ooo8-2x2-s64 =="
    assert "us/event" in lines[1]
    assert lines[2].split()[:2] == ["test_report_renders_table.<locals>.cb",
                                    "1"]


def test_payload_schema():
    profiler = KernelProfiler()

    def cb():
        pass

    profiler.record(cb, 0.002)
    payload = profiler.payload(3)
    assert set(payload) == {"events", "callbacks", "total_seconds", "top"}
    assert payload["events"] == 1 and payload["callbacks"] == 1
    row = payload["top"][0]
    assert set(row) == {"callback", "events", "seconds", "us_per_event"}


def test_record_inner_subtracts_from_dispatch_sample():
    profiler = KernelProfiler()
    profiler.record_inner("L2Cache.handle", 0.004)

    def drain():
        pass

    drain.__qualname__ = "Network._drain_cycle"
    profiler.record(drain, 0.010)
    assert profiler._acc["L2Cache.handle"] == [1, 0.004]
    # The dispatch sample keeps only its own (non-handler) time...
    assert profiler._acc["Network._drain_cycle"][1] == pytest.approx(0.006)
    # ...so host seconds are counted exactly once.
    assert profiler.total_seconds == pytest.approx(0.010)
    assert profiler.events == 1  # queue dispatches only


def test_record_inner_clamps_dispatch_at_zero():
    # Timer skew can make the nested handler time exceed the
    # enclosing dispatch sample; the dispatch share clamps at zero
    # instead of going negative.
    profiler = KernelProfiler()
    profiler.record_inner("L3Bank.handle", 0.010)

    def drain():
        pass

    drain.__qualname__ = "Network._drain_cycle"
    profiler.record(drain, 0.008)
    assert profiler._acc["Network._drain_cycle"][1] == 0.0
    assert all(slot[1] >= 0 for slot in profiler._acc.values())


def test_lane_cached_deliveries_credit_real_handlers():
    """Regression: deliveries batched by the NoC lane cache must show
    up under the endpoint handler's __qualname__, not lumped into the
    shared Network dispatch wrapper."""
    from tests.mem.conftest import MiniHierarchy

    hier = MiniHierarchy()
    profiler = Telemetry(hier.sim, TelemetryConfig(profile=True)).profiler
    results = []
    for k in range(8):
        hier.read(k % 4, 0x20_0000 + k * 64, results)
    hier.run()
    assert results
    names = set(profiler._acc)
    handlers = {n for n in names if n.endswith(".handle")}
    assert handlers, f"no endpoint handlers profiled, saw {sorted(names)}"
    # The per-endpoint timers preserved the component qualnames (no
    # `timed` wrapper names leaked into the profile)...
    assert not any("watch_network" in n or n.endswith(".timed")
                   for n in names)
    # ...and the subtraction never drove a dispatch sample negative.
    assert all(slot[1] >= 0 for slot in profiler._acc.values())


def test_step_hook_profiles_simulation():
    sim = Simulator()
    Telemetry(sim, TelemetryConfig(profile=True))
    hits = []

    def tick():
        hits.append(sim.now)
        if len(hits) < 5:
            sim.schedule(3, tick)

    sim.schedule(0, tick)
    sim.run()
    profiler = sim.telemetry.profiler
    assert len(hits) == 5
    assert profiler.events == 5
    [row] = profiler.top(5)
    assert row["callback"].endswith("tick")
    assert row["events"] == 5
