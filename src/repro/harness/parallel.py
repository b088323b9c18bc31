"""Parallel fan-out of independent experiment points.

Every figure is assembled from dozens of independent ``(workload,
config, core, geometry, seed)`` simulation points — an embarrassingly
parallel task graph.  :func:`run_points` takes the enumerated points,
satisfies what it can from the in-process memo and the on-disk
:class:`~repro.harness.cache.RunCache`, and fans the remaining misses
out over a ``multiprocessing`` pool.  Workers ship their results back
as plain dicts (:meth:`RunRecord.to_dict` round-trips exactly), and
the parent installs them into both cache layers — so a parallel run
leaves the process in *exactly* the state a serial run would, and the
figure-assembly code downstream (pure memo hits) produces
byte-identical reports regardless of ``--jobs``.

The worker count resolves, in order: the explicit ``jobs`` argument,
the ``REPRO_JOBS`` environment variable, then 1 (serial).  ``jobs=0``
means "one worker per CPU".
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.harness import runner
from repro.harness.runner import RunRecord, params_key, run_params

ENV_JOBS = "REPRO_JOBS"

# Per-point progress sink (the CLI points this at stderr); ``None``
# keeps the library silent.
_progress: Optional[Callable[[str], None]] = None


def set_progress(sink: Optional[Callable[[str], None]]) -> None:
    global _progress
    _progress = sink


def _emit(line: str) -> None:
    if _progress is not None:
        _progress(line)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_JOBS`` env > serial."""
    if jobs is None:
        env = os.environ.get(ENV_JOBS, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _point_label(params: Dict[str, Any]) -> str:
    label = (
        f"{params['workload']}/{params['config']}/{params['core']}"
        f" {params['cols']}x{params['rows']}/s{params['scale']}"
    )
    if params["link_bits"] != 256:
        label += f" link={params['link_bits']}"
    if params["l3_interleave"] is not None:
        label += f" ilv={params['l3_interleave']}"
    if params["seed"]:
        label += f" seed={params['seed']}"
    if params.get("obs"):
        label += f" obs={params['obs']}"
    if params.get("sanitize"):
        label += " sanitize"
    return label


def _worker(
    item: Tuple[int, Dict[str, Any]],
) -> Tuple[int, Dict[str, Any], float]:
    """Pool worker: simulate one point, return its serialized record.

    Workers bypass the caches (the parent already established these
    points are misses, and centralizing stores in the parent keeps
    the disk writes single-writer per invocation).
    """
    index, params = item
    t0 = time.time()
    record, _ = runner.simulate(params)
    return index, record.to_dict(), time.time() - t0


def run_points(
    points: Iterable[Dict[str, Any]],
    jobs: Optional[int] = None,
    use_cache: bool = True,
) -> Dict[Tuple, RunRecord]:
    """Materialize every point, in parallel where possible.

    ``points`` are kwarg-dicts accepted by
    :func:`~repro.harness.runner.run_once` (partial dicts are fine —
    defaults are applied).  Returns ``{run_key: RunRecord}`` and, as a
    deliberate side effect, leaves every record in the runner's memo
    (and disk cache when enabled), so subsequent ``run_once`` calls
    are hits.
    """
    jobs = resolve_jobs(jobs)

    # Normalize and dedupe while preserving order (figures enumerate
    # overlapping point sets — e.g. every config shares its Base).
    ordered: List[Tuple[Tuple, Dict[str, Any]]] = []
    seen = set()
    for point in points:
        params = run_params(**point)
        key = params_key(params)
        if key not in seen:
            seen.add(key)
            ordered.append((key, params))

    results: Dict[Tuple, RunRecord] = {}
    pending: List[Tuple[Tuple, Dict[str, Any]]] = []
    memo_hits = disk_hits = 0
    disk = runner.disk_cache() if use_cache else None
    for key, params in ordered:
        record = runner.memo_lookup(key) if use_cache else None
        if record is not None:
            runner.COUNTERS.memo_hits += 1
            memo_hits += 1
            results[key] = record
            _emit(f"[memo] {_point_label(params)}")
            continue
        if disk is not None:
            record = disk.get(params)
            if record is not None:
                runner.COUNTERS.disk_hits += 1
                disk_hits += 1
                runner.store_record(record)
                results[key] = record
                _emit(f"[disk] {_point_label(params)}")
                continue
        pending.append((key, params))

    t0 = time.time()
    if pending and (jobs <= 1 or len(pending) == 1):
        for key, params in pending:
            t1 = time.time()
            record = runner.run_once(**params, use_cache=use_cache)
            results[key] = record
            _emit(f"[sim ] {_point_label(params)} {time.time() - t1:.1f}s")
    elif pending:
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        items = [(i, params) for i, (_, params) in enumerate(pending)]
        with ctx.Pool(min(jobs, len(pending))) as pool:
            for index, payload, elapsed in pool.imap_unordered(
                _worker, items, chunksize=1
            ):
                key, params = pending[index]
                record = RunRecord.from_dict(payload)
                runner.COUNTERS.simulated += 1
                runner.store_record(record, use_cache=use_cache)
                results[key] = record
                _emit(f"[sim ] {_point_label(params)} {elapsed:.1f}s")

    if ordered:
        _emit(
            f"[cache] {len(ordered)} points: {memo_hits} memo hits, "
            f"{disk_hits} disk hits, {len(pending)} simulated "
            f"({time.time() - t0:.1f}s)"
        )
    return results
