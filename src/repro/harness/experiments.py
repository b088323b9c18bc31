"""Per-figure experiments (DESIGN.md's experiment index).

Each function runs the simulations a paper figure/table needs and
returns a plain-data structure the report module renders. Every
figure of the paper's evaluation has a function here; the pytest
benchmarks under ``benchmarks/`` call them one-to-one.

Every figure has the same shape: it maps each cell it needs to a
:class:`~repro.harness.runner.Point` once, gets every record from one
:func:`~repro.harness.runner.run_points` call (``jobs`` argument /
``REPRO_JOBS`` env; memo + disk cache), and reads its cells from those
records. The records do not depend on ``jobs``, so neither do the
reports. Figures that share points (e.g. Figure 13's SF rows feeding
Figure 14) simulate them once per session — and, with the disk cache
enabled, once ever. ``**kw`` of every figure is further Point fields
shared by all of its points (geometry, seed, sanitize).

Defaults target the fast profile (4x4 mesh, capacity scale 16); pass
``cols/rows/scale`` for larger runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.harness.runner import Point, RunRecord, run_points
from repro.noc.message import TRAFFIC_CLASSES
from repro.workloads import ALL_WORKLOADS

FIG13_CONFIGS = ("base", "stride", "bingo", "ss", "sf")
FIG13_CORES = ("io4", "ooo4", "ooo8")

# Workload subset for the expensive sweeps (documented in
# EXPERIMENTS.md); chosen to cover affine, indirect, confluence,
# stencil and irregular behaviour.
SWEEP_WORKLOADS = ("conv3d", "bfs", "hotspot", "mv", "nn", "pathfinder")


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _records(
    points: Dict[Hashable, Point], jobs: Optional[int],
) -> Dict[Hashable, RunRecord]:
    """One ``run_points`` call for a figure's ``{cell: Point}`` map;
    returns ``{cell: RunRecord}``."""
    records = run_points(points.values(), jobs=jobs)
    return {key: records[point] for key, point in points.items()}


# ---------------------------------------------------------------------------
# Figure 2: motivation — no-reuse evictions and their traffic
# ---------------------------------------------------------------------------


@dataclass
class Fig2Row:
    workload: str
    frac_noreuse: float  # L2 evictions never reused (of all evictions)
    frac_noreuse_stream: float  # ... attributable to stream accesses
    frac_traffic_noreuse: float  # flits spent on no-reuse lines (of all)
    frac_traffic_ctrl: float  # control share of those flits


def fig2_motivation(
    workloads: Sequence[str] = ALL_WORKLOADS,
    core: str = "ooo8",
    jobs: Optional[int] = None,
    **kw,
) -> List[Fig2Row]:
    """Figure 2a/2b: run Base and classify L2 evictions/traffic."""
    recs = _records(
        {wl: Point(wl, "base", core=core, **kw) for wl in workloads}, jobs)
    rows = []
    for wl in workloads:
        s = recs[wl].stats
        evictions = s["l2.evictions"]
        noreuse = s["l2.evictions_noreuse"]
        stream = s["l2.evictions_noreuse_stream"]
        flits_total = sum(
            s.get(f"noc.flits.{k}") for k in TRAFFIC_CLASSES
        )
        nr_data = s["l2.noreuse_flits.data"]
        nr_ctrl = s["l2.noreuse_flits.ctrl"]
        rows.append(Fig2Row(
            workload=wl,
            frac_noreuse=noreuse / evictions if evictions else 0.0,
            frac_noreuse_stream=stream / evictions if evictions else 0.0,
            frac_traffic_noreuse=(
                (nr_data + nr_ctrl) / flits_total if flits_total else 0.0
            ),
            frac_traffic_ctrl=nr_ctrl / flits_total if flits_total else 0.0,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 13: overall speedup and energy efficiency
# ---------------------------------------------------------------------------


@dataclass
class Fig13Cell:
    speedup: float
    energy_eff: float  # baseline energy / this energy


def fig13_speedup(
    workloads: Sequence[str] = ALL_WORKLOADS,
    cores: Sequence[str] = FIG13_CORES,
    configs: Sequence[str] = FIG13_CONFIGS,
    jobs: Optional[int] = None,
    **kw,
) -> Dict[str, Dict[str, Dict[str, Fig13Cell]]]:
    """{core: {workload: {config: Fig13Cell}}} vs the same-core Base."""
    recs = _records(
        {(core, wl, cfg): Point(wl, cfg, core=core, **kw)
         for core in cores
         for wl in workloads
         for cfg in ("base",) + tuple(configs)},
        jobs,
    )
    out: Dict[str, Dict[str, Dict[str, Fig13Cell]]] = {}
    for core in cores:
        out[core] = {}
        for wl in workloads:
            base = recs[core, wl, "base"]
            cells = {}
            for cfg in configs:
                rec = recs[core, wl, cfg]
                cells[cfg] = Fig13Cell(
                    speedup=base.cycles / rec.cycles if rec.cycles else 0.0,
                    energy_eff=(
                        base.energy.total / rec.energy.total
                        if rec.energy.total else 0.0
                    ),
                )
            out[core][wl] = cells
    return out


# ---------------------------------------------------------------------------
# Figure 14: L3 request breakdown under SF
# ---------------------------------------------------------------------------

FIG14_SOURCES = ("core", "core_stream", "float_affine", "float_ind", "float_conf")


def fig14_requests(
    workloads: Sequence[str] = ALL_WORKLOADS,
    core: str = "ooo8",
    jobs: Optional[int] = None,
    **kw,
) -> Dict[str, Dict[str, float]]:
    """{workload: {source: fraction of all L3 requests}} for SF."""
    recs = _records(
        {wl: Point(wl, "sf", core=core, **kw) for wl in workloads}, jobs)
    out = {}
    for wl in workloads:
        rec = recs[wl]
        counts = {
            src: rec.stats.get(f"l3.requests_by_source.{src}")
            for src in FIG14_SOURCES
        }
        total = sum(counts.values())
        out[wl] = {
            src: (counts[src] / total if total else 0.0)
            for src in FIG14_SOURCES
        }
    return out


# ---------------------------------------------------------------------------
# Figure 15: NoC traffic breakdown and utilization
# ---------------------------------------------------------------------------

FIG15_CONFIGS = ("stride", "bulk", "bingo", "ss", "sf_aff", "sf_ind", "sf")


@dataclass
class Fig15Row:
    workload: str
    config: str
    ctrl: float  # flit-hops normalized to the workload's Base total
    data: float
    stream: float
    utilization: float

    @property
    def total(self) -> float:
        return self.ctrl + self.data + self.stream


def fig15_traffic(
    workloads: Sequence[str] = ALL_WORKLOADS,
    configs: Sequence[str] = FIG15_CONFIGS,
    core: str = "ooo8",
    jobs: Optional[int] = None,
    **kw,
) -> List[Fig15Row]:
    recs = _records(
        {(wl, cfg): Point(wl, cfg, core=core, **kw)
         for wl in workloads
         for cfg in ("base",) + tuple(configs)},
        jobs,
    )
    rows = []
    for wl in workloads:
        base_total = recs[wl, "base"].flit_hops or 1.0
        for cfg in ("base",) + tuple(configs):
            rec = recs[wl, cfg]
            td = rec.traffic_breakdown()
            rows.append(Fig15Row(
                workload=wl, config=cfg,
                ctrl=td["ctrl"] / base_total,
                data=td["data"] / base_total,
                stream=td["stream"] / base_total,
                utilization=rec.noc_utilization(),
            ))
    return rows


def _sweep(
    swept: str, values: Sequence[int], base: int,
    workloads: Sequence[str], core: str, jobs: Optional[int], kw,
) -> Dict[str, Dict[Tuple[str, int], float]]:
    """{workload: {(config, value): speedup vs bingo at ``base``}}, with
    the :class:`Point` field named ``swept`` set to each of ``values``
    for Bingo and SF (Figures 16 and 17)."""
    grid = [(cfg, value) for cfg in ("bingo", "sf") for value in values]
    recs = _records(
        {(wl, cfg, value): Point(wl, cfg, core=core, **{swept: value}, **kw)
         for wl in workloads
         for cfg, value in [("bingo", base)] + grid},
        jobs,
    )
    out = {}
    for wl in workloads:
        ref = recs[wl, "bingo", base]
        cells = {}
        for cfg, value in grid:
            rec = recs[wl, cfg, value]
            cells[(cfg, value)] = ref.cycles / rec.cycles if rec.cycles else 0.0
        out[wl] = cells
    return out


# ---------------------------------------------------------------------------
# Figure 16: sensitivity to NoC link width
# ---------------------------------------------------------------------------

FIG16_WIDTHS = (128, 256, 512)


def fig16_linkwidth(
    workloads: Sequence[str] = SWEEP_WORKLOADS,
    core: str = "ooo8",
    widths: Sequence[int] = FIG16_WIDTHS,
    jobs: Optional[int] = None,
    **kw,
) -> Dict[str, Dict[Tuple[str, int], float]]:
    """{workload: {(config, width): speedup vs bingo at 128-bit}}."""
    return _sweep("link_bits", widths, 128, workloads, core, jobs, kw)


# ---------------------------------------------------------------------------
# Figure 17: sensitivity to NUCA interleaving granularity
# ---------------------------------------------------------------------------

FIG17_GRANULARITIES = (64, 256, 1024, 4096)


def fig17_interleave(
    workloads: Sequence[str] = SWEEP_WORKLOADS,
    core: str = "ooo8",
    granularities: Sequence[int] = FIG17_GRANULARITIES,
    jobs: Optional[int] = None,
    **kw,
) -> Dict[str, Dict[Tuple[str, int], float]]:
    """{workload: {(config, interleave): speedup vs bingo at 64B}}."""
    return _sweep("l3_interleave", granularities, 64, workloads, core, jobs, kw)


# ---------------------------------------------------------------------------
# Figure 18: core scaling
# ---------------------------------------------------------------------------


@dataclass
class Fig18Cell:
    sf_over_ss: float
    l2_hit_rate: float  # in SS, as the paper annotates
    l3_hit_rate: float


def fig18_scaling(
    workloads: Sequence[str] = SWEEP_WORKLOADS,
    core: str = "ooo8",
    meshes: Sequence[Tuple[int, int]] = ((2, 2), (4, 4), (4, 8)),
    scale: int = 16,
    jobs: Optional[int] = None,
    **kw,
) -> Dict[str, Dict[Tuple[int, int], Fig18Cell]]:
    """SF speedup over SS across mesh sizes (weak scaling: the
    workload scale shrinks as cores grow, keeping per-core work
    comparable, as in the paper's fixed-size strong-scaling spirit)."""
    recs = _records(
        {(wl, (cols, rows), cfg): Point(wl, cfg, core=core, cols=cols,
                                        rows=rows, scale=scale, **kw)
         for wl in workloads
         for cols, rows in meshes
         for cfg in ("ss", "sf")},
        jobs,
    )
    out = {}
    for wl in workloads:
        cells = {}
        for mesh in meshes:
            ss, sf = recs[wl, mesh, "ss"], recs[wl, mesh, "sf"]
            cells[mesh] = Fig18Cell(
                sf_over_ss=ss.cycles / sf.cycles if sf.cycles else 0.0,
                l2_hit_rate=ss.l2_hit_rate(),
                l3_hit_rate=ss.l3_hit_rate(),
            )
        out[wl] = cells
    return out


# ---------------------------------------------------------------------------
# Policy ablation: static Table II vs smart vs smart+plan (new figure)
# ---------------------------------------------------------------------------

ABLATION_CONFIGS = ("sf", "sf_smart", "sf_plan")
# The 12 Table IV benchmarks plus the tiled stencil, whose cache-
# resident re-sweeps are the revocation case the static policy only
# handles through the coarse consecutive-hit sink.
ABLATION_WORKLOADS = ALL_WORKLOADS + ("stencil_tiled",)


@dataclass
class PolicyRow:
    workload: str
    config: str
    speedup: float  # vs the same-core SS (no floating)
    floats: int
    sinks: int
    revokes: int
    deferred_configs: int  # plan configs held back past l3_start
    plan_l2_ranges: int  # pure-L2 / probation prefix ranges pumped


def fig_policy_ablation(
    workloads: Sequence[str] = ABLATION_WORKLOADS,
    configs: Sequence[str] = ABLATION_CONFIGS,
    core: str = "ooo8",
    jobs: Optional[int] = None,
    **kw,
) -> List[PolicyRow]:
    """Float-policy ablation: each config's speedup over SS plus the
    policy activity counters (floats / sinks / revocations / plan
    machinery) that explain it."""
    recs = _records(
        {(wl, cfg): Point(wl, cfg, core=core, **kw)
         for wl in workloads
         for cfg in ("ss",) + tuple(configs)},
        jobs,
    )
    rows = []
    for wl in workloads:
        base = recs[wl, "ss"]
        for cfg in configs:
            rec = recs[wl, cfg]
            s = rec.stats
            rows.append(PolicyRow(
                workload=wl, config=cfg,
                speedup=base.cycles / rec.cycles if rec.cycles else 0.0,
                floats=int(s.get("se_core.floats")),
                sinks=int(s.get("se_core.sinks")),
                revokes=int(s.get("se_core.revokes")),
                deferred_configs=int(s.get("se_l2.deferred_configs")),
                plan_l2_ranges=int(s.get("se_l2.plan_l2_ranges")),
            ))
    return rows


# ---------------------------------------------------------------------------
# Latency attribution: where floating buys its cycles (new figure)
# ---------------------------------------------------------------------------

ATTRIBUTION_CONFIGS = ("base", "ss", "sf", "sf_smart")


@dataclass
class AttributionRow:
    workload: str
    config: str
    cycles: int
    speedup: float  # vs the same-core Base
    cpi: Dict[str, float] = field(default_factory=dict)  # bucket -> cycles


def fig_latency_attribution(
    workloads: Sequence[str] = ALL_WORKLOADS,
    configs: Sequence[str] = ATTRIBUTION_CONFIGS,
    core: str = "ooo8",
    jobs: Optional[int] = None,
    **kw,
) -> List[AttributionRow]:
    """Cycle-accounting ablation: the per-bucket CPI stack (from the
    attribution telemetry pillar) for each config, so the speedup
    column can be read against *which wait buckets emptied* — floated
    configs should move cycles out of the NoC/DRAM-wait buckets on
    the stream-heavy workloads."""
    recs = _records(
        {(wl, cfg): Point(wl, cfg, core=core, obs="attribution", **kw)
         for wl in workloads
         for cfg in configs},
        jobs,
    )
    rows = []
    for wl in workloads:
        base = recs[wl, configs[0]]
        for cfg in configs:
            rec = recs[wl, cfg]
            tel = rec.telemetry or {}
            rows.append(AttributionRow(
                workload=wl, config=cfg, cycles=rec.cycles,
                speedup=base.cycles / rec.cycles if rec.cycles else 0.0,
                cpi={
                    name[len("cpi."):]: value
                    for name, value in sorted(tel.items())
                    if name.startswith("cpi.")
                    and name not in ("cpi.total_cycles",
                                     "cpi.journeys_dropped")
                },
            ))
    return rows


# ---------------------------------------------------------------------------
# Figure 19: energy vs speedup scatter
# ---------------------------------------------------------------------------


@dataclass
class Fig19Point:
    core: str
    config: str
    speedup: float  # geomean speedup vs IO4 Base
    energy: float  # geomean energy vs IO4 Base (lower is better)


def fig19_energy_scatter(
    workloads: Sequence[str] = ALL_WORKLOADS,
    cores: Sequence[str] = FIG13_CORES,
    configs: Sequence[str] = ("base", "bingo", "ss", "sf"),
    jobs: Optional[int] = None,
    **kw,
) -> List[Fig19Point]:
    # Every cell is normalized to the IO4 Base run of its workload.
    systems = [("io4", "base")] + [
        (core, cfg) for core in cores for cfg in configs]
    recs = _records(
        {(core, cfg, wl): Point(wl, cfg, core=core, **kw)
         for core, cfg in systems
         for wl in workloads},
        jobs,
    )
    points = []
    for core in cores:
        for cfg in configs:
            speedups, energies = [], []
            for wl in workloads:
                rec = recs[core, cfg, wl]
                ref = recs["io4", "base", wl]
                if rec.cycles and ref.cycles:
                    speedups.append(ref.cycles / rec.cycles)
                if rec.energy.total and ref.energy.total:
                    energies.append(rec.energy.total / ref.energy.total)
            points.append(Fig19Point(
                core=core, config=cfg,
                speedup=geomean(speedups), energy=geomean(energies),
            ))
    return points
