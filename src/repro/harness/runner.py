"""Experiment runner: one (workload, system) simulation -> RunRecord.

Runs are memoized in-process (the per-figure experiments share many
points — e.g. Figure 13's SF-OOO8 runs are Figure 14's input), so a
benchmark session never simulates the same point twice.  On top of the
memo sits an optional on-disk :class:`~repro.harness.cache.RunCache`
(enabled by the ``REPRO_CACHE_DIR`` environment variable or
:func:`configure_disk_cache`), so repeated sessions never re-simulate
either.  Both layers key on the *complete* run parameters — including
``seed``: two runs of the same point with different seeds are distinct
entries (this was historically a bug: the memo key omitted the seed
and silently returned the first seed's record).  While a telemetry
sink is installed (:func:`configure_telemetry`) every point simulates:
the disk cache is bypassed and the memo lasts one session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.harness.cache import ENV_CACHE_DIR, RunCache
from repro.noc.message import TRAFFIC_CLASSES
from repro.obs.export import point_artifacts, point_slug
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.sim.stats import Stats
from repro.system.chip import Chip, RunResult
from repro.system.configs import make_config
from repro.workloads.base import build_programs


@dataclass
class RunRecord:
    """Everything the experiments extract from one simulation."""

    workload: str
    config: str
    core: str
    cols: int
    rows: int
    scale: int
    link_bits: int
    l3_interleave: Optional[int]
    seed: int
    cycles: int
    stats: Stats
    energy: EnergyBreakdown
    # Deterministic telemetry summary counters (span/sample/event
    # totals) when the run simulated with telemetry attached; None
    # otherwise. Artifacts themselves go through the telemetry sink.
    telemetry: Optional[Dict[str, float]] = None
    # Telemetry pillars the point itself requests (comma list, e.g.
    # "attribution"); a run parameter — and so a cache key — because
    # the record's ``telemetry`` counters depend on which pillars ran.
    obs: Optional[str] = None

    @property
    def key(self) -> Tuple:
        return run_key(
            self.workload, self.config, self.core, self.cols, self.rows,
            self.scale, self.link_bits, self.l3_interleave, self.seed,
            self.obs,
        )

    @property
    def params(self) -> Dict[str, Any]:
        """The complete run parameters (the disk-cache key)."""
        return {
            "workload": self.workload, "config": self.config,
            "core": self.core, "cols": self.cols, "rows": self.rows,
            "scale": self.scale, "link_bits": self.link_bits,
            "l3_interleave": self.l3_interleave, "seed": self.seed,
            "obs": self.obs,
        }

    @property
    def flit_hops(self) -> float:
        return sum(
            self.stats.get(f"noc.flit_hops.{k}") for k in TRAFFIC_CLASSES
        )

    def traffic_breakdown(self) -> Dict[str, float]:
        return {
            k: self.stats.get(f"noc.flit_hops.{k}") for k in TRAFFIC_CLASSES
        }

    def noc_utilization(self) -> float:
        from repro.noc.topology import Mesh

        if self.cycles <= 0:
            return 0.0
        links = Mesh(self.cols, self.rows).num_links
        return self.flit_hops / (links * self.cycles)

    def l2_hit_rate(self) -> float:
        accesses = self.stats["l2.hits"] + self.stats["l2.misses"]
        return self.stats["l2.hits"] / accesses if accesses else 0.0

    def l3_hit_rate(self) -> float:
        accesses = self.stats["l3.hits"] + self.stats["l3.misses"]
        return self.stats["l3.hits"] / accesses if accesses else 0.0

    # Serialization: plain-JSON round-trip for the disk cache and for
    # shipping records across multiprocessing workers.
    def to_dict(self) -> Dict[str, Any]:
        out = dict(self.params)
        out["cycles"] = self.cycles
        out["stats"] = self.stats.to_dict()
        out["energy"] = self.energy.to_dict()
        if self.telemetry is not None:
            out["telemetry"] = dict(self.telemetry)
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        return cls(
            workload=payload["workload"],
            config=payload["config"],
            core=payload["core"],
            cols=payload["cols"],
            rows=payload["rows"],
            scale=payload["scale"],
            link_bits=payload["link_bits"],
            l3_interleave=payload["l3_interleave"],
            seed=payload.get("seed", 0),
            cycles=payload["cycles"],
            stats=Stats.from_dict(payload["stats"]),
            energy=EnergyBreakdown.from_dict(payload["energy"]),
            telemetry=payload.get("telemetry"),
            obs=payload.get("obs"),
        )


def run_key(
    workload: str, config: str, core: str, cols: int, rows: int,
    scale: int, link_bits: int, l3_interleave: Optional[int],
    seed: int = 0, obs: Optional[str] = None,
) -> Tuple:
    """The complete memo key of one experiment point.  ``seed`` is
    part of the key: different seeds are different runs."""
    return (workload, config, core, cols, rows, scale, link_bits,
            l3_interleave, seed, obs)


def run_params(
    workload: str,
    config: str,
    core: str = "ooo8",
    cols: int = 4,
    rows: int = 4,
    scale: int = 16,
    link_bits: int = 256,
    l3_interleave: Optional[int] = None,
    seed: int = 0,
    obs: Optional[str] = None,
) -> Dict[str, Any]:
    """Normalize one point's kwargs into the complete parameter dict
    (defaults applied) shared by the memo, disk cache and fan-out."""
    return {
        "workload": workload, "config": config, "core": core,
        "cols": cols, "rows": rows, "scale": scale,
        "link_bits": link_bits, "l3_interleave": l3_interleave,
        "seed": seed, "obs": obs,
    }


def params_key(params: Dict[str, Any]) -> Tuple:
    return run_key(**params)


_MEMO: Dict[Tuple, RunRecord] = {}


@dataclass
class RunCounters:
    """How this process satisfied its run_once calls (surfaced by the
    CLI's per-figure cache line)."""

    memo_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0

    def reset(self) -> None:
        self.memo_hits = self.disk_hits = self.simulated = 0


COUNTERS = RunCounters()

# Disk cache: explicit configuration beats the environment; by default
# the cache is enabled iff REPRO_CACHE_DIR is set (the CLI always
# configures one explicitly).
_DISK_CONFIGURED = False
_DISK: Optional[RunCache] = None
_DISK_ENV_DIR: Optional[str] = None


def configure_disk_cache(path: Optional[str]) -> Optional[RunCache]:
    """Point the runner at an on-disk cache (``None`` disables it)."""
    global _DISK_CONFIGURED, _DISK
    _DISK_CONFIGURED = True
    _DISK = RunCache(path) if path else None
    return _DISK


def reset_disk_cache() -> None:
    """Forget any explicit configuration; revert to env-driven."""
    global _DISK_CONFIGURED, _DISK, _DISK_ENV_DIR
    _DISK_CONFIGURED = False
    _DISK = None
    _DISK_ENV_DIR = None


def disk_cache() -> Optional[RunCache]:
    """The active disk cache, if any (env-driven unless configured).

    None while a telemetry sink is installed: a cached point has no
    artifacts to give the sink, and a record that carries telemetry
    must not be stored under a key that does not name it.
    """
    global _DISK, _DISK_ENV_DIR
    if _SINK is not None:
        return None
    if _DISK_CONFIGURED:
        return _DISK
    env = os.environ.get(ENV_CACHE_DIR)
    if not env:
        return None
    if _DISK is None or _DISK_ENV_DIR != env:
        _DISK_ENV_DIR = env
        _DISK = RunCache(env)
    return _DISK


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is untouched)."""
    _MEMO.clear()
    COUNTERS.reset()


_SINK = None


def configure_telemetry(sink) -> None:
    """Install a :class:`repro.obs.export.TelemetrySink` (or None), the
    one session-wide telemetry setting: each point simulated while it
    is installed attaches ``sink.config`` and gives the sink its
    artifacts. Either way the memo is dropped, so no record that
    carries telemetry outlives its session."""
    global _SINK
    _SINK = sink
    _MEMO.clear()


def telemetry_sink():
    """The installed telemetry sink, if any."""
    return _SINK


def simulate(
    params: Dict[str, Any], telemetry: Optional[TelemetryConfig] = None,
) -> Tuple[RunRecord, Optional[Telemetry]]:
    """Run one point, bypassing every cache layer. Telemetry attaches
    to the built chip with the point's own ``obs`` pillars, else with
    ``telemetry``, and comes back with the record (None if neither)."""
    system = make_config(
        params["config"], core=params["core"], cols=params["cols"],
        rows=params["rows"], scale=params["scale"],
        link_bits=params["link_bits"],
        l3_interleave=params["l3_interleave"],
    )
    chip = Chip(system)
    obs = params.get("obs")
    if obs:
        telemetry = TelemetryConfig.parse(obs)
    tel = Telemetry(chip.sim, telemetry) if telemetry is not None else None
    programs = build_programs(
        params["workload"], chip.num_cores, scale=params["scale"],
        seed=params["seed"],
    )
    result: RunResult = chip.run(programs)
    energy = EnergyModel().evaluate(result.stats, result.cycles, system)
    record = RunRecord(
        cycles=result.cycles, stats=result.stats, energy=energy,
        telemetry=tel.summary() if tel is not None else None, **params,
    )
    return record, tel


def run_once(
    workload: str,
    config: str,
    core: str = "ooo8",
    cols: int = 4,
    rows: int = 4,
    scale: int = 16,
    link_bits: int = 256,
    l3_interleave: Optional[int] = None,
    seed: int = 0,
    obs: Optional[str] = None,
    use_cache: bool = True,
) -> RunRecord:
    """Simulate one experiment point (memo + optional disk cache)."""
    params = run_params(
        workload, config, core=core, cols=cols, rows=rows, scale=scale,
        link_bits=link_bits, l3_interleave=l3_interleave, seed=seed,
        obs=obs,
    )
    key = params_key(params)
    disk = disk_cache() if use_cache else None
    if use_cache:
        if key in _MEMO:
            COUNTERS.memo_hits += 1
            return _MEMO[key]
        if disk is not None:
            record = disk.get(params)
            if record is not None:
                COUNTERS.disk_hits += 1
                _MEMO[key] = record
                return record
    sink = _SINK
    record, tel = simulate(params, None if sink is None else sink.config)
    if sink is not None:
        sink.add(point_artifacts(tel, point_slug(params)))
    COUNTERS.simulated += 1
    if use_cache:
        _MEMO[key] = record
        if disk is not None:
            disk.put(params, record)
    return record


def store_record(record: RunRecord, use_cache: bool = True) -> None:
    """Install an externally computed record (e.g. from a worker
    process) into the memo and disk cache."""
    if not use_cache:
        return
    _MEMO[record.key] = record
    disk = disk_cache()
    if disk is not None:
        disk.put(record.params, record)


def memo_lookup(key: Tuple) -> Optional[RunRecord]:
    return _MEMO.get(key)
