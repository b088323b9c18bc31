"""Experiment runner: one :class:`Point` -> one :class:`RunRecord`.

A :class:`Point` names one simulation: workload, system, core,
geometry, link width, interleave, seed, telemetry pillars and whether
the sanitizer checks the run. It is the whole identity of a run: the
in-process memo keys on the point, the on-disk
:class:`~repro.harness.cache.RunCache` on ``dataclasses.asdict`` of
it, and :attr:`Point.slug` is its name in progress lines and artifact
files. Every field matters: two seeds are two runs, and a sanitized or
telemetry-carrying point gets a record that the sanitizer checked or
the pillars counted.

:func:`run_points` is the only code that looks in the memo and the
disk cache. Figures share many points (Figure 13's SF rows are Figure
14's input), so a session simulates each point once, and with the disk
cache, which is off until an entry point (the CLI, the benchmark
suite) calls :func:`configure_disk_cache`, once ever. The misses run
serially or fan out over a ``multiprocessing`` pool; workers return
plain dicts and only the parent stores, so the records, and the
reports built from them, do not depend on ``jobs``.

The worker count resolves, in order: the explicit ``jobs`` argument,
the ``REPRO_JOBS`` environment variable, then 1 (serial). ``jobs=0``
means one worker per CPU. :func:`simulate` runs one point with no
cache at all.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.harness.cache import RunCache
from repro.noc.message import TRAFFIC_CLASSES
from repro.noc.topology import Mesh
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.sim.sanitizer import Sanitizer
from repro.sim.stats import Stats
from repro.system.chip import Chip, RunResult
from repro.system.configs import make_config
from repro.workloads.base import build_programs

ENV_JOBS = "REPRO_JOBS"


@dataclass(frozen=True)
class Point:
    """The complete parameters of one simulation run."""

    workload: str
    config: str
    core: str = "ooo8"
    cols: int = 4
    rows: int = 4
    scale: int = 16
    link_bits: int = 256
    l3_interleave: Optional[int] = None
    seed: int = 0
    # Telemetry pillars the point itself requests (comma list, e.g.
    # "attribution"): the record's ``telemetry`` counters depend on
    # which pillars ran.
    obs: Optional[str] = None
    # The record's ``sanitizer.*`` stats depend on it.
    sanitize: bool = False

    @property
    def slug(self) -> str:
        """The point's name, e.g. ``mv-sf-ooo8-2x2-s64``: it names
        every field that is not at its default beyond the geometry."""
        parts = [self.workload, self.config, self.core,
                 f"{self.cols}x{self.rows}", f"s{self.scale}"]
        if self.link_bits != 256:
            parts.append(f"link{self.link_bits}")
        if self.l3_interleave is not None:
            parts.append(f"ilv{self.l3_interleave}")
        if self.seed:
            parts.append(f"seed{self.seed}")
        if self.obs:
            parts.append(self.obs.replace(",", "+"))
        if self.sanitize:
            parts.append("sanitize")
        return "-".join(parts)


@dataclass
class RunRecord:
    """Everything the experiments extract from one simulation."""

    point: Point
    cycles: int
    stats: Stats
    energy: EnergyBreakdown
    # Deterministic telemetry summary counters (span/sample/event
    # totals) when the run simulated with telemetry attached; None
    # otherwise. Artifacts stay on the Telemetry that simulate returns.
    telemetry: Optional[Dict[str, float]] = None

    def traffic_breakdown(self) -> Dict[str, float]:
        return {
            k: self.stats.get(f"noc.flit_hops.{k}") for k in TRAFFIC_CLASSES
        }

    @property
    def flit_hops(self) -> float:
        return sum(self.traffic_breakdown().values())

    def noc_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        links = Mesh(self.point.cols, self.point.rows).num_links
        return self.flit_hops / (links * self.cycles)

    def l2_hit_rate(self) -> float:
        accesses = self.stats["l2.hits"] + self.stats["l2.misses"]
        return self.stats["l2.hits"] / accesses if accesses else 0.0

    def l3_hit_rate(self) -> float:
        accesses = self.stats["l3.hits"] + self.stats["l3.misses"]
        return self.stats["l3.hits"] / accesses if accesses else 0.0

    # Serialization: flat plain JSON (the point's fields, then the
    # results) for the disk cache, record.json and pool workers.
    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self.point)
        out["cycles"] = self.cycles
        out["stats"] = self.stats.to_dict()
        out["energy"] = self.energy.to_dict()
        if self.telemetry is not None:
            out["telemetry"] = dict(self.telemetry)
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        """A field missing from ``payload`` takes its Point default."""
        point = Point(**{f.name: payload[f.name] for f in fields(Point)
                         if f.name in payload})
        return cls(
            point=point,
            cycles=payload["cycles"],
            stats=Stats.from_dict(payload["stats"]),
            energy=EnergyBreakdown.from_dict(payload["energy"]),
            telemetry=payload.get("telemetry"),
        )


_MEMO: Dict[Point, RunRecord] = {}


@dataclass
class RunCounters:
    """How this process satisfied its points (surfaced by the CLI's
    per-figure cache line)."""

    memo_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0

    def reset(self) -> None:
        self.memo_hits = self.disk_hits = self.simulated = 0


COUNTERS = RunCounters()

# Disk cache: off until an entry point configures one.
_DISK: Optional[RunCache] = None

# Per-point progress sink (the CLI points this at stderr); ``None``
# keeps the library silent.
_progress: Optional[Callable[[str], None]] = None


def configure_disk_cache(path: Optional[str]) -> Optional[RunCache]:
    """Point the runner at an on-disk cache (``None`` disables it)."""
    global _DISK
    _DISK = RunCache(path) if path else None
    return _DISK


def set_progress(sink: Optional[Callable[[str], None]]) -> None:
    global _progress
    _progress = sink


def _emit(line: str) -> None:
    if _progress is not None:
        _progress(line)


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is untouched)."""
    _MEMO.clear()
    COUNTERS.reset()


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


def simulate(
    point: Point, telemetry: Optional[TelemetryConfig] = None,
) -> Tuple[RunRecord, Optional[Telemetry]]:
    """Run one point, bypassing every cache layer. A ``sanitize`` point
    attaches a Sanitizer to the built chip unless it has one. Telemetry
    attaches with the point's own ``obs`` pillars, else with
    ``telemetry``, and comes back with the record (None if neither)."""
    system = make_config(
        point.config, core=point.core, cols=point.cols, rows=point.rows,
        scale=point.scale, link_bits=point.link_bits,
        l3_interleave=point.l3_interleave,
    )
    chip = Chip(system)
    if point.sanitize and chip.sim.sanitizer is None:
        Sanitizer(chip.sim)
    if point.obs:
        telemetry = TelemetryConfig.parse(point.obs)
    tel = Telemetry(chip.sim, telemetry) if telemetry is not None else None
    programs = build_programs(
        point.workload, chip.num_cores, scale=point.scale, seed=point.seed,
    )
    result: RunResult = chip.run(programs)
    energy = EnergyModel().evaluate(result.stats, result.cycles, system)
    record = RunRecord(
        point=point, cycles=result.cycles, stats=result.stats,
        energy=energy,
        telemetry=tel.summary() if tel is not None else None,
    )
    return record, tel


def _worker(point: Point) -> Tuple[Point, Dict[str, Any], float]:
    """Pool worker: simulate one point, return its serialized record.
    Only the parent stores, so each invocation writes the disk cache
    from one process."""
    t0 = time.time()
    record, _ = simulate(point)
    return point, record.to_dict(), time.time() - t0


def _store(record: RunRecord, elapsed: float) -> None:
    COUNTERS.simulated += 1
    _MEMO[record.point] = record
    if _DISK is not None:
        _DISK.put(record)
    _emit(f"[sim ] {record.point.slug} {elapsed:.1f}s")


def run_points(
    points: Iterable[Point], jobs: Optional[int] = None,
) -> Dict[Point, RunRecord]:
    """The record of every point, in parallel where possible.

    Each distinct point is looked up once, in the memo and then the
    disk cache; the misses are simulated over ``jobs`` workers and
    stored in both, so a later call for the same point is a hit.
    """
    results: Dict[Point, RunRecord] = {}
    pending: List[Point] = []
    memo_hits = disk_hits = 0
    for point in dict.fromkeys(points):
        record = _MEMO.get(point)
        if record is not None:
            COUNTERS.memo_hits += 1
            memo_hits += 1
            results[point] = record
            _emit(f"[memo] {point.slug}")
            continue
        record = _DISK.get(point) if _DISK is not None else None
        if record is not None:
            COUNTERS.disk_hits += 1
            disk_hits += 1
            _MEMO[point] = results[point] = record
            _emit(f"[disk] {point.slug}")
            continue
        pending.append(point)

    t0 = time.time()
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(pending) <= 1:
        for point in pending:
            t1 = time.time()
            record, _ = simulate(point)
            _store(record, time.time() - t1)
            results[point] = record
    else:
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        with ctx.Pool(min(jobs, len(pending))) as pool:
            for point, payload, elapsed in pool.imap_unordered(
                _worker, pending, chunksize=1
            ):
                record = RunRecord.from_dict(payload)
                _store(record, elapsed)
                results[point] = record

    if results:
        _emit(
            f"[cache] {len(results)} points: {memo_hits} memo hits, "
            f"{disk_hits} disk hits, {len(pending)} simulated "
            f"({time.time() - t0:.1f}s)"
        )
    return results


def run_once(workload: str, config: str, **kw) -> RunRecord:
    """The record of one point (memo, then disk cache, then simulate)."""
    point = Point(workload, config, **kw)
    return run_points([point])[point]
