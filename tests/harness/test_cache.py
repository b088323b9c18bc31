"""Tests for the content-addressed on-disk run cache."""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.model import EnergyBreakdown
from repro.harness.cache import (
    CACHE_SCHEMA,
    RunCache,
    code_fingerprint,
    default_cache_dir,
    params_digest,
)
from repro.harness.runner import (
    Point,
    RunRecord,
    clear_cache,
    run_once,
)
from repro.sim.stats import Stats

KW = dict(cols=2, rows=2, scale=64)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_cache()
    yield
    clear_cache()


def make_record(seed=0, point=None) -> RunRecord:
    stats = Stats()
    stats.add("l2.hits", 10)
    stats.add("noc.flit_hops.data", 5.5)
    return RunRecord(
        point=point or Point("nn", "sf", **KW, seed=seed),
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
    assert restored.point == rec.point
    assert restored.point.seed == 3
    assert restored.cycles == rec.cycles
    assert restored.stats.to_dict() == rec.stats.to_dict()
    assert restored.energy == rec.energy
    assert restored.flit_hops == rec.flit_hops


def test_record_dict_is_flat_and_old_payloads_load():
    """to_dict keeps the flat JSON of record.json and the disk cache;
    a payload missing a field takes the Point default."""
    payload = make_record().to_dict()
    assert list(payload)[:11] == [f.name for f in dataclasses.fields(Point)]
    for name in ("seed", "obs", "sanitize"):
        del payload[name]
    assert RunRecord.from_dict(payload).point == Point("nn", "sf", **KW)


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
    a = params_digest(dataclasses.asdict(Point("nn", "base", seed=0)), fp)
    b = params_digest(dataclasses.asdict(Point("nn", "base", seed=1)), fp)
    assert a != b


def test_digest_includes_fingerprint():
    params = dataclasses.asdict(Point("nn", "base"))
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
    cache.put(rec)
    assert len(os.listdir(tmp_path)) == 1
    got = cache.get(rec.point)
    assert got is not None
    assert got.point == rec.point
    assert got.stats.to_dict() == rec.stats.to_dict()


def test_seed_distinguishes_disk_entries(tmp_path):
    cache = RunCache(str(tmp_path))
    a, b = make_record(seed=0), make_record(seed=1)
    cache.put(a)
    cache.put(b)
    assert len(os.listdir(tmp_path)) == 2
    assert cache.get(a.point).point.seed == 0
    assert cache.get(b.point).point.seed == 1


def test_missing_entry_is_a_miss(tmp_path):
    cache = RunCache(str(tmp_path))
    assert cache.get(make_record().point) is None
    assert os.listdir(tmp_path) == []


def test_corrupt_file_is_ignored_not_fatal(tmp_path):
    cache = RunCache(str(tmp_path))
    rec = make_record()
    cache.put(rec)
    with open(cache.path_for(rec.point), "w") as fh:
        fh.write("{ not json")
    assert cache.get(rec.point) is None


def test_truncated_payload_is_ignored_not_fatal(tmp_path):
    cache = RunCache(str(tmp_path))
    rec = make_record()
    path = cache.path_for(rec.point)
    os.makedirs(str(tmp_path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"schema": CACHE_SCHEMA,
                   "fingerprint": cache.fingerprint}, fh)  # no "record"
    assert cache.get(rec.point) is None


def test_stale_fingerprint_is_ignored(tmp_path):
    old = RunCache(str(tmp_path), fingerprint="old-code")
    rec = make_record()
    old.put(rec)
    # Same directory, current code: the entry is stale, not reused.
    # (Different fingerprints also produce different digests, so the
    # lookup misses; a hand-moved file with a mismatched fingerprint
    # inside is likewise rejected.)
    fresh = RunCache(str(tmp_path))
    assert fresh.get(rec.point) is None

    bad = RunCache(str(tmp_path), fingerprint="new-code")
    os.replace(old.path_for(rec.point), bad.path_for(rec.point))
    assert os.path.exists(bad.path_for(rec.point))
    assert bad.get(rec.point) is None


def test_put_to_unwritable_dir_is_swallowed():
    cache = RunCache("/proc/definitely-not-writable/cache")
    cache.put(make_record())  # must not raise
    assert cache.get(make_record().point) is None


# ---------------------------------------------------------------------------
# Point: one identity for the memo, the disk cache and the slug
# ---------------------------------------------------------------------------

# Every Point field at its default and at non-default values.
FIELDS = {
    "workload": st.sampled_from(["nn", "mv", "stencil_tiled"]),
    "config": st.sampled_from(["base", "sf", "sf_smart"]),
    "core": st.sampled_from(["ooo8", "io4", "ooo4"]),
    "cols": st.sampled_from([4, 2, 8]),
    "rows": st.sampled_from([4, 2, 8]),
    "scale": st.sampled_from([16, 4, 64]),
    "link_bits": st.sampled_from([256, 128, 512]),
    "l3_interleave": st.sampled_from([None, 64, 4096]),
    "seed": st.sampled_from([0, 1, 3]),
    "obs": st.sampled_from([None, "attribution", "attribution,spans"]),
    "sanitize": st.booleans(),
}
POINTS = st.builds(Point, **FIELDS)


@st.composite
def point_pairs(draw):
    """Two points that differ in exactly one field."""
    point = draw(POINTS)
    name = draw(st.sampled_from(sorted(FIELDS)))
    value = draw(FIELDS[name].filter(lambda v: v != getattr(point, name)))
    return point, dataclasses.replace(point, **{name: value})


@settings(max_examples=60, deadline=None)
@given(point=POINTS)
def test_point_survives_json_and_the_disk_cache(point, tmp_path_factory):
    rec = make_record(point=point)
    restored = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert restored.point == rec.point
    cache = RunCache(str(tmp_path_factory.mktemp("cache")))
    cache.put(rec)
    assert cache.get(point).point == point


@settings(max_examples=100, deadline=None)
@given(pair=point_pairs())
def test_points_differing_in_one_field_have_distinct_slugs(pair):
    """...and distinct memo and disk-cache keys."""
    a, b = pair
    assert a.slug != b.slug
    assert a != b and len({a, b}) == 2
    assert (params_digest(dataclasses.asdict(a), "fp")
            != params_digest(dataclasses.asdict(b), "fp"))
