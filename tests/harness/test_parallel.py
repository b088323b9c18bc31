"""Tests for run_points' parallel fan-out.

Points are kept tiny (2x2 mesh, scale 64) so the multiprocessing
paths stay cheap even on a single-core CI runner.
"""

import pytest

from repro.harness.runner import (
    COUNTERS,
    Point,
    clear_cache,
    configure_disk_cache,
    resolve_jobs,
    run_once,
    run_points,
    set_progress,
)

KW = dict(cols=2, rows=2, scale=64)
POINTS = [
    Point("nn", "base", **KW),
    Point("nn", "sf", **KW),
    Point("conv3d", "base", **KW),
]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()
    configure_disk_cache(None)


def snapshot(records):
    return {
        key: (rec.cycles, tuple(sorted(rec.stats.to_dict().items())),
              rec.energy.total)
        for key, rec in records.items()
    }


# ---------------------------------------------------------------------------
# jobs resolution
# ---------------------------------------------------------------------------


def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5


def test_resolve_jobs_default_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_garbage_env_is_serial(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert resolve_jobs(None) == 1


def test_resolve_jobs_zero_means_all_cpus():
    assert resolve_jobs(0) >= 1


# ---------------------------------------------------------------------------
# run_points semantics
# ---------------------------------------------------------------------------


def test_run_points_returns_every_point_serial():
    records = run_points(POINTS, jobs=1)
    assert set(records) == set(POINTS)
    assert all(rec.point == point for point, rec in records.items())
    assert all(rec.cycles > 0 for rec in records.values())
    assert COUNTERS.simulated == len(POINTS)


def test_run_points_dedupes():
    records = run_points(POINTS + POINTS, jobs=1)
    assert len(records) == len(POINTS)
    assert COUNTERS.simulated == len(POINTS)


def test_run_points_warms_the_memo():
    run_points(POINTS, jobs=1)
    before = COUNTERS.simulated
    rec = run_once("nn", "sf", **KW)
    assert COUNTERS.simulated == before  # memo hit, no new simulation
    assert rec.point.config == "sf"


def test_cold_point_reads_the_disk_cache_once(tmp_path, monkeypatch):
    """run_points is the only lookup: a cold point costs one disk
    read, then one simulation."""
    cache = configure_disk_cache(str(tmp_path))
    reads = []
    get = cache.get
    monkeypatch.setattr(cache, "get",
                        lambda point: reads.append(point) or get(point))
    run_points([POINTS[0]], jobs=1)
    assert reads == [POINTS[0]]
    assert COUNTERS.simulated == 1 and COUNTERS.disk_hits == 0


def test_run_points_reuses_memo_hits():
    run_once("nn", "base", **KW)
    run_points(POINTS, jobs=1)
    assert COUNTERS.memo_hits >= 1
    assert COUNTERS.simulated == len(POINTS)  # only the two misses + first


def test_parallel_matches_serial():
    """--jobs N must produce identical stats to the serial run."""
    serial = snapshot(run_points(POINTS, jobs=1))
    clear_cache()
    par = snapshot(run_points(POINTS, jobs=2))
    assert par == serial


def test_parallel_populates_memo_and_disk(tmp_path):
    configure_disk_cache(str(tmp_path))
    run_points(POINTS, jobs=2)
    assert COUNTERS.simulated == len(POINTS)
    clear_cache()
    run_points(POINTS, jobs=2)
    assert COUNTERS.simulated == 0
    assert COUNTERS.disk_hits == len(POINTS)


def test_progress_lines(monkeypatch):
    lines = []
    set_progress(lines.append)
    try:
        run_points([POINTS[0]], jobs=1)
        run_points([POINTS[0]], jobs=1)
    finally:
        set_progress(None)
    assert lines[0].startswith("[sim ] nn-base-ooo8-2x2-s64 ")
    assert "[memo] nn-base-ooo8-2x2-s64" in lines
    summaries = [l for l in lines if l.startswith("[cache]")]
    assert len(summaries) == 2
    assert "1 simulated" in summaries[0]
    assert "1 memo hits" in summaries[1]
