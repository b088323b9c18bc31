"""Tests of the benchmark: the layer map, the profile grouping, the
metric schema and the repeatability of the deterministic metrics.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench -q``.
Each measured run is a child process of ``run.py`` on a small 2x2 spec,
so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time

import pytest

import hostspeed
import layers
import run

SMOKE = dict(workload="conv3d", config="sf", cols=2, rows=2, scale=8)
# mv-base's configuration on a small mesh: stream engines are idle.
BYPASS = dict(run.WORKLOADS["mv-base"], cols=2, rows=2, scale=32)
STREAM_ENGINES = ("streams.se_core", "streams.se_l2", "streams.se_l3",
                  "streams.history")


def measure(spec):
    return run.run_workload("smoke", spec, seed=0, seconds=0, trace=True)


@pytest.fixture(scope="module")
def smoke_pair():
    return measure(SMOKE), measure(SMOKE)


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_module_maps_to_exactly_one_layer():
    modules = list(layers.source_modules(run.SRC))
    assert "repro.sim.kernel" in modules
    wrong = {m: layers.layers_of(m) for m in modules
             if len(layers.layers_of(m)) != 1}
    assert not wrong, f"modules in no layer or in several: {wrong}"


def test_every_declared_metric_is_emitted_with_its_unit(smoke_pair, declared):
    result = smoke_pair[0]
    for section, emitted in (("end_to_end", result["metrics"]),
                             ("per_layer", result["per_layer"])):
        want = {m["name"]: m["unit"] for m in declared[section]}
        got = {name: m["unit"] for name, m in emitted.items()}
        assert got == want, section


def test_smoke_runs_are_correct(smoke_pair):
    for result in smoke_pair:
        assert result["runs_failed"] == 0, result["failures"]
        assert result["runs_attempted"] == 2  # one timed rep, one traced


def test_layer_self_time_sums_to_profile_total(smoke_pair):
    result = smoke_pair[0]
    per_layer = result["per_layer"]
    self_s = sum(per_layer[f"host.{layer}.self_s"]["value"]
                 for layer in layers.LAYERS)
    assert self_s == pytest.approx(result["trace"]["total_s"], rel=0.01)
    events = per_layer["model.kernel.events"]["value"]
    calls = sum(per_layer[f"host.{layer}.calls_per_event"]["value"] * events
                for layer in layers.LAYERS)
    assert calls == pytest.approx(result["trace"]["total_calls"], rel=0.01)


def test_back_to_back_runs_agree_on_deterministic_metrics(smoke_pair):
    first, second = smoke_pair
    assert first["digest"] == second["digest"]

    def deterministic(result):
        metrics = {**result["metrics"], **result["per_layer"]}
        return {
            name: m["value"] for name, m in metrics.items()
            if name in ("sim_cycles", "noc_flit_hops")
            or (name.startswith("host.") and name.endswith("calls_per_event"))
            or (name.startswith("model.") and not name.endswith("_per_s"))
        }

    assert deterministic(first) == deterministic(second)


def test_host_speed_probes_inside_the_timed_region():
    previous = signal.getsignal(signal.SIGALRM)
    try:
        speed = hostspeed.HostSpeed()
        _, host_s, scaled_s = speed.timed(time.sleep, 0.35)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(speed.samples) - hostspeed.PRE_SAMPLES >= 3
    assert host_s == pytest.approx(0.35, abs=0.03)
    factor = hostspeed.REFERENCE_PROBE_S / statistics.median(speed.samples)
    assert scaled_s == pytest.approx(host_s * factor ** hostspeed.SENSITIVITY)


def test_bypass_workload_makes_no_stream_engine_calls():
    per_layer = measure(BYPASS)["per_layer"]
    for layer in STREAM_ENGINES:
        assert per_layer[f"host.{layer}.calls_per_event"]["value"] == 0
    assert per_layer["host.mem.l2.calls_per_event"]["value"] > 0
