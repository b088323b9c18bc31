"""Tests for the experiment runner and memoization."""

import pytest

from repro.harness import runner
from repro.harness.runner import (
    COUNTERS,
    Point,
    clear_cache,
    configure_disk_cache,
    run_once,
    simulate,
)

KW = dict(cols=2, rows=2, scale=32)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()
    configure_disk_cache(None)


def test_run_once_produces_record():
    rec = run_once("nn", "base", **KW)
    assert rec.cycles > 0
    assert rec.energy.total > 0
    assert rec.flit_hops > 0
    assert rec.point == Point("nn", "base", **KW)


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
    assert a.point.seed == 0 and b.point.seed == 1
    assert a.point != b.point
    # And the seed=0 entry is still there, undisturbed.
    assert run_once("nn", "base", seed=0, **KW) is a
    assert run_once("nn", "base", seed=1, **KW) is b


def test_disk_cache_hit_across_memo_clears(tmp_path):
    configure_disk_cache(str(tmp_path))
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


def test_disk_cache_distinguishes_seeds(tmp_path):
    configure_disk_cache(str(tmp_path))
    a = run_once("nn", "base", seed=0, **KW)
    b = run_once("nn", "base", seed=1, **KW)
    clear_cache()
    a2 = run_once("nn", "base", seed=0, **KW)
    b2 = run_once("nn", "base", seed=1, **KW)
    assert COUNTERS.disk_hits == 2 and COUNTERS.simulated == 0
    assert a2.point.seed == 0 and b2.point.seed == 1
    assert a2.stats.to_dict() == a.stats.to_dict()
    assert b2.stats.to_dict() == b.stats.to_dict()


def test_environment_does_not_enable_the_disk_cache(tmp_path, monkeypatch):
    """Only an entry point turns the disk cache on: an ambient
    REPRO_CACHE_DIR neither serves nor receives library runs."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_once("nn", "base", **KW)
    clear_cache()  # a second session
    run_once("nn", "base", **KW)
    assert COUNTERS.simulated == 1
    assert COUNTERS.disk_hits == 0
    assert list(tmp_path.iterdir()) == []


def test_sanitize_distinguishes_records(tmp_path):
    """A sanitized run is its own point: its record carries the
    sanitizer's stats and is never served to a plain request, and a
    plain record is never served to a sanitized one."""
    configure_disk_cache(str(tmp_path))
    plain = run_once("nn", "base", **KW)
    checked = run_once("nn", "base", sanitize=True, **KW)
    assert COUNTERS.simulated == 2
    assert checked is not plain and checked.point != plain.point
    assert checked.point.sanitize and not plain.point.sanitize
    assert checked.stats["sanitizer.trace_events"] > 0
    assert checked.cycles == plain.cycles
    clear_cache()
    assert run_once("nn", "base", sanitize=True, **KW).point.sanitize
    assert not run_once("nn", "base", **KW).point.sanitize
    assert COUNTERS.disk_hits == 2 and COUNTERS.simulated == 0


def test_simulate_neither_reads_nor_fills_the_caches(tmp_path):
    """simulate is the uncached path: it reruns a point the memo and
    the disk cache already hold, and stores its record in neither."""
    cache = configure_disk_cache(str(tmp_path))
    a = run_once("nn", "base", **KW)
    files = sorted(tmp_path.iterdir())
    b, _ = simulate(Point("nn", "base", **KW))
    c, _ = simulate(Point("nn", "sf", **KW))
    assert a is not b
    # Deterministic simulation: identical outcome.
    assert a.cycles == b.cycles
    assert a.flit_hops == b.flit_hops
    assert COUNTERS.simulated == 1
    assert runner._MEMO == {a.point: a}
    assert sorted(tmp_path.iterdir()) == files
    assert cache.get(c.point) is None


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
