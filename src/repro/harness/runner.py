"""Experiment runner: one (workload, system) simulation -> RunRecord.

Runs are memoized in-process (the per-figure experiments share many
points — e.g. Figure 13's SF-OOO8 runs are Figure 14's input), so a
benchmark session never simulates the same point twice.  On top of the
memo sits an optional on-disk :class:`~repro.harness.cache.RunCache`,
off until an entry point (the CLI, the benchmark suite) calls
:func:`configure_disk_cache`, so repeated sessions never re-simulate
either.  Both layers key on the *complete* run parameters — including
``seed``: two runs of the same point with different seeds are distinct
entries (this was historically a bug: the memo key omitted the seed
and silently returned the first seed's record) — and ``sanitize``, so
only a sanitized request gets a record the sanitizer checked.  A point
that names telemetry pillars (``obs``) is cached under a key that names
them too; its artifacts stay on the
:class:`~repro.obs.telemetry.Telemetry` that :func:`simulate` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.harness.cache import RunCache
from repro.noc.message import TRAFFIC_CLASSES
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.sim.sanitizer import Sanitizer
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
    # otherwise. Artifacts stay on the Telemetry that simulate returns.
    telemetry: Optional[Dict[str, float]] = None
    # Telemetry pillars the point itself requests (comma list, e.g.
    # "attribution"); a run parameter — and so a cache key — because
    # the record's ``telemetry`` counters depend on which pillars ran.
    obs: Optional[str] = None
    # Whether the sanitizer checked the run; a run parameter because
    # the record's ``sanitizer.*`` stats depend on it.
    sanitize: bool = False

    @property
    def key(self) -> Tuple:
        return run_key(
            self.workload, self.config, self.core, self.cols, self.rows,
            self.scale, self.link_bits, self.l3_interleave, self.seed,
            self.obs, self.sanitize,
        )

    @property
    def params(self) -> Dict[str, Any]:
        """The complete run parameters (the disk-cache key)."""
        return {
            "workload": self.workload, "config": self.config,
            "core": self.core, "cols": self.cols, "rows": self.rows,
            "scale": self.scale, "link_bits": self.link_bits,
            "l3_interleave": self.l3_interleave, "seed": self.seed,
            "obs": self.obs, "sanitize": self.sanitize,
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
            sanitize=payload.get("sanitize", False),
        )


def run_key(
    workload: str, config: str, core: str, cols: int, rows: int,
    scale: int, link_bits: int, l3_interleave: Optional[int],
    seed: int = 0, obs: Optional[str] = None, sanitize: bool = False,
) -> Tuple:
    """The complete memo key of one experiment point.  ``seed`` is
    part of the key: different seeds are different runs."""
    return (workload, config, core, cols, rows, scale, link_bits,
            l3_interleave, seed, obs, sanitize)


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
    sanitize: bool = False,
) -> Dict[str, Any]:
    """Normalize one point's kwargs into the complete parameter dict
    (defaults applied) shared by the memo, disk cache and fan-out."""
    return {
        "workload": workload, "config": config, "core": core,
        "cols": cols, "rows": rows, "scale": scale,
        "link_bits": link_bits, "l3_interleave": l3_interleave,
        "seed": seed, "obs": obs, "sanitize": sanitize,
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

# Disk cache: off until an entry point configures one.
_DISK: Optional[RunCache] = None


def configure_disk_cache(path: Optional[str]) -> Optional[RunCache]:
    """Point the runner at an on-disk cache (``None`` disables it)."""
    global _DISK
    _DISK = RunCache(path) if path else None
    return _DISK


def disk_cache() -> Optional[RunCache]:
    """The configured disk cache, if any."""
    return _DISK


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is untouched)."""
    _MEMO.clear()
    COUNTERS.reset()


def simulate(
    params: Dict[str, Any], telemetry: Optional[TelemetryConfig] = None,
) -> Tuple[RunRecord, Optional[Telemetry]]:
    """Run one point, bypassing every cache layer. A ``sanitize`` point
    attaches a Sanitizer to the built chip unless it has one. Telemetry
    attaches with the point's own ``obs`` pillars, else with
    ``telemetry``, and comes back with the record (None if neither)."""
    system = make_config(
        params["config"], core=params["core"], cols=params["cols"],
        rows=params["rows"], scale=params["scale"],
        link_bits=params["link_bits"],
        l3_interleave=params["l3_interleave"],
    )
    chip = Chip(system)
    if params["sanitize"] and chip.sim.sanitizer is None:
        Sanitizer(chip.sim)
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
    sanitize: bool = False,
    use_cache: bool = True,
) -> RunRecord:
    """Simulate one experiment point (memo + optional disk cache)."""
    params = run_params(
        workload, config, core=core, cols=cols, rows=rows, scale=scale,
        link_bits=link_bits, l3_interleave=l3_interleave, seed=seed,
        obs=obs, sanitize=sanitize,
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
    record, _ = simulate(params)
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
