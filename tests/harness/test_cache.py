"""Tests for the content-addressed on-disk run cache."""

import json
import os

import pytest

from repro.energy.model import EnergyBreakdown
from repro.harness.cache import (
    CACHE_SCHEMA,
    RunCache,
    code_fingerprint,
    default_cache_dir,
    params_digest,
)
from repro.harness.runner import (
    RunRecord,
    clear_cache,
    run_once,
    run_params,
)
from repro.sim.stats import Stats

KW = dict(cols=2, rows=2, scale=64)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_cache()
    yield
    clear_cache()


def make_record(seed=0) -> RunRecord:
    stats = Stats()
    stats.add("l2.hits", 10)
    stats.add("noc.flit_hops.data", 5.5)
    return RunRecord(
        workload="nn", config="sf", core="ooo8", cols=2, rows=2,
        scale=64, link_bits=256, l3_interleave=None, seed=seed,
        cycles=1234, stats=stats,
        energy=EnergyBreakdown(l2=3.0, noc=1.5, dram=7.25),
    )


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------


def test_stats_roundtrip():
    s = Stats()
    s.add("a.b", 3)
    s.add("a.c", 0.125)
    restored = Stats.from_dict(json.loads(json.dumps(s.to_dict())))
    assert restored.to_dict() == s.to_dict()


def test_energy_roundtrip():
    bd = EnergyBreakdown(core_dynamic=1.5, l3=2.25, dram=100.0)
    restored = EnergyBreakdown.from_dict(json.loads(json.dumps(bd.to_dict())))
    assert restored == bd
    assert restored.total == bd.total


def test_energy_from_dict_ignores_total():
    # A payload carrying the derived total (or any unknown key) must
    # not choke from_dict.
    bd = EnergyBreakdown(l1=4.0)
    payload = dict(bd.to_dict(), total=bd.total, bogus=1.0)
    assert EnergyBreakdown.from_dict(payload) == bd


def test_runrecord_roundtrip():
    rec = make_record(seed=3)
    restored = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert restored.key == rec.key
    assert restored.seed == 3
    assert restored.cycles == rec.cycles
    assert restored.stats.to_dict() == rec.stats.to_dict()
    assert restored.energy == rec.energy
    assert restored.flit_hops == rec.flit_hops


def test_real_run_roundtrips_exactly():
    rec = run_once("nn", "base", **KW)
    restored = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert restored.stats.to_dict() == rec.stats.to_dict()
    assert restored.energy.total == rec.energy.total
    assert restored.cycles == rec.cycles


# ---------------------------------------------------------------------------
# digest / keying
# ---------------------------------------------------------------------------


def test_digest_includes_seed():
    fp = code_fingerprint()
    a = params_digest(run_params("nn", "base", seed=0), fp)
    b = params_digest(run_params("nn", "base", seed=1), fp)
    assert a != b


def test_digest_includes_fingerprint():
    params = run_params("nn", "base")
    assert params_digest(params, "aaa") != params_digest(params, "bbb")


def test_fingerprint_is_stable_in_process():
    assert code_fingerprint() == code_fingerprint()


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert default_cache_dir() == str(tmp_path)


# ---------------------------------------------------------------------------
# RunCache get/put semantics
# ---------------------------------------------------------------------------


def test_put_get_roundtrip(tmp_path):
    cache = RunCache(str(tmp_path))
    rec = make_record()
    cache.put(rec.params, rec)
    assert len(cache) == 1
    got = cache.get(rec.params)
    assert got is not None
    assert got.key == rec.key
    assert got.stats.to_dict() == rec.stats.to_dict()
    assert cache.counters.stores == 1
    assert cache.counters.hits == 1


def test_seed_distinguishes_disk_entries(tmp_path):
    cache = RunCache(str(tmp_path))
    a, b = make_record(seed=0), make_record(seed=1)
    cache.put(a.params, a)
    cache.put(b.params, b)
    assert len(cache) == 2
    assert cache.get(a.params).seed == 0
    assert cache.get(b.params).seed == 1


def test_missing_entry_is_a_miss(tmp_path):
    cache = RunCache(str(tmp_path))
    assert cache.get(make_record().params) is None
    assert cache.counters.misses == 1
    assert cache.counters.errors == 0


def test_corrupt_file_is_ignored_not_fatal(tmp_path):
    cache = RunCache(str(tmp_path))
    rec = make_record()
    cache.put(rec.params, rec)
    with open(cache.path_for(rec.params), "w") as fh:
        fh.write("{ not json")
    assert cache.get(rec.params) is None
    assert cache.counters.errors == 1


def test_truncated_payload_is_ignored_not_fatal(tmp_path):
    cache = RunCache(str(tmp_path))
    rec = make_record()
    path = cache.path_for(rec.params)
    os.makedirs(str(tmp_path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"schema": CACHE_SCHEMA,
                   "fingerprint": cache.fingerprint}, fh)  # no "record"
    assert cache.get(rec.params) is None
    assert cache.counters.errors == 1


def test_stale_fingerprint_is_ignored(tmp_path):
    old = RunCache(str(tmp_path), fingerprint="old-code")
    rec = make_record()
    old.put(rec.params, rec)
    # Same directory, current code: the entry is stale, not reused.
    # (Different fingerprints also produce different digests, so the
    # lookup misses; a hand-moved file with a mismatched fingerprint
    # inside is likewise rejected.)
    fresh = RunCache(str(tmp_path))
    assert fresh.get(rec.params) is None

    bad = RunCache(str(tmp_path), fingerprint="new-code")
    os.replace(old.path_for(rec.params), bad.path_for(rec.params))
    assert bad.get(rec.params) is None
    assert bad.counters.stale == 1


def test_put_to_unwritable_dir_is_swallowed():
    cache = RunCache("/proc/definitely-not-writable/cache")
    cache.put(make_record().params, make_record())  # must not raise
    assert cache.counters.stores == 0
    assert cache.get(make_record().params) is None
