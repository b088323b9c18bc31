"""Tests for the experiment runner and memoization."""

import pytest

from repro.harness.runner import (
    COUNTERS,
    clear_cache,
    run_key,
    run_once,
)

KW = dict(cols=2, rows=2, scale=32)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_run_once_produces_record():
    rec = run_once("nn", "base", **KW)
    assert rec.cycles > 0
    assert rec.energy.total > 0
    assert rec.flit_hops > 0
    assert rec.workload == "nn"
    assert rec.config == "base"


def test_memoization_returns_same_object():
    a = run_once("nn", "base", **KW)
    b = run_once("nn", "base", **KW)
    assert a is b


def test_cache_distinguishes_parameters():
    a = run_once("nn", "base", **KW)
    b = run_once("nn", "sf", **KW)
    assert a is not b
    c = run_once("nn", "base", link_bits=128, **KW)
    assert c is not a


def test_seed_distinguishes_memo_entries():
    """Regression: the memo key used to omit the seed, so seed=1
    silently returned the seed=0 record."""
    a = run_once("nn", "base", seed=0, **KW)
    b = run_once("nn", "base", seed=1, **KW)
    assert a is not b
    assert a.seed == 0 and b.seed == 1
    assert a.key != b.key
    # And the seed=0 entry is still there, undisturbed.
    assert run_once("nn", "base", seed=0, **KW) is a
    assert run_once("nn", "base", seed=1, **KW) is b


def test_run_key_includes_seed():
    base = ("nn", "base", "ooo8", 2, 2, 32, 256, None)
    assert run_key(*base, seed=0) != run_key(*base, seed=1)
    assert run_key(*base) == run_key(*base, seed=0)


def test_disk_cache_hit_across_memo_clears(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    first = run_once("nn", "base", **KW)
    assert COUNTERS.simulated == 1
    clear_cache()  # new "session": memo gone, disk remains
    second = run_once("nn", "base", **KW)
    assert COUNTERS.simulated == 0
    assert COUNTERS.disk_hits == 1
    assert second is not first
    assert second.cycles == first.cycles
    assert second.stats.to_dict() == first.stats.to_dict()
    assert second.energy.total == first.energy.total


def test_disk_cache_distinguishes_seeds(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    a = run_once("nn", "base", seed=0, **KW)
    b = run_once("nn", "base", seed=1, **KW)
    clear_cache()
    a2 = run_once("nn", "base", seed=0, **KW)
    b2 = run_once("nn", "base", seed=1, **KW)
    assert COUNTERS.disk_hits == 2 and COUNTERS.simulated == 0
    assert a2.seed == 0 and b2.seed == 1
    assert a2.stats.to_dict() == a.stats.to_dict()
    assert b2.stats.to_dict() == b.stats.to_dict()


def test_use_cache_false_bypasses_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_once("nn", "base", **KW)
    clear_cache()
    run_once("nn", "base", use_cache=False, **KW)
    assert COUNTERS.simulated == 1
    assert COUNTERS.disk_hits == 0


def test_use_cache_false_reruns():
    a = run_once("nn", "base", **KW)
    b = run_once("nn", "base", use_cache=False, **KW)
    assert a is not b
    # Deterministic simulation: identical outcome.
    assert a.cycles == b.cycles
    assert a.flit_hops == b.flit_hops


def test_hit_rates_in_range():
    rec = run_once("hotspot", "base", **KW)
    assert 0.0 <= rec.l2_hit_rate() <= 1.0
    assert 0.0 <= rec.l3_hit_rate() <= 1.0


def test_utilization_positive():
    rec = run_once("nn", "base", **KW)
    assert 0.0 < rec.noc_utilization() < 1.0


def test_traffic_breakdown_sums_to_flit_hops():
    rec = run_once("nn", "sf", **KW)
    td = rec.traffic_breakdown()
    assert sum(td.values()) == pytest.approx(rec.flit_hops)
    assert td["stream"] > 0  # floating ran
