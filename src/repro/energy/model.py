"""Event-energy model (the paper's McPAT/CACTI-at-22nm substitute).

Energy is accumulated from the event counts the simulator already
collects: core ops (with out-of-order cores paying a per-op premium
for rename/IQ/ROB), cache accesses, NoC flit-hops, DRAM accesses,
stream-engine operations (the SE_L3's TLB lookups among them, at
``se_op``), and per-core static leakage integrated over the run.

The constants are McPAT-class 22 nm ballparks (pJ); the experiments
only use energy *ratios* between configurations, which depend on the
relative event counts rather than the absolute picojoules — see
DESIGN.md's substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping

from repro.noc.message import TRAFFIC_CLASSES
from repro.sim.stats import Stats
from repro.system.params import SystemParams


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies in picojoules, plus static power."""

    # Core dynamic energy per committed op.
    op_inorder: float = 8.0
    op_ooo4: float = 20.0
    op_ooo8: float = 28.0
    # Cache access energies.
    l1_access: float = 15.0
    l2_access: float = 45.0
    l3_access: float = 90.0
    # Interconnect and memory.
    noc_flit_hop: float = 12.0
    dram_access: float = 2200.0
    # Stream engines (small SRAM/CAM structures).
    se_op: float = 4.0
    # Static power per core-cycle (pW-scale folded to pJ/cycle),
    # including the tile's share of caches and NoC.
    static_inorder: float = 25.0
    static_ooo4: float = 60.0
    static_ooo8: float = 95.0


DEFAULT_ENERGY = EnergyParams()


@dataclass
class EnergyBreakdown:
    """Per-component energy (picojoules)."""

    core_dynamic: float = 0.0
    core_static: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    l3: float = 0.0
    noc: float = 0.0
    dram: float = 0.0
    stream_engines: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.core_dynamic + self.core_static + self.l1 + self.l2
            + self.l3 + self.noc + self.dram + self.stream_engines
        )

    # Serialization (the disk run-cache stores breakdowns as JSON).
    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: Mapping[str, float]) -> "EnergyBreakdown":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in values.items() if k in names})


class EnergyModel:
    """Turns a run's stats into an :class:`EnergyBreakdown`."""

    def __init__(self, params: EnergyParams = DEFAULT_ENERGY) -> None:
        self.params = params

    def _core_constants(self, system: SystemParams) -> tuple:
        name = system.core.name
        if name == "io4":
            return self.params.op_inorder, self.params.static_inorder
        if name == "ooo4":
            return self.params.op_ooo4, self.params.static_ooo4
        return self.params.op_ooo8, self.params.static_ooo8

    def evaluate(
        self, stats: Stats, cycles: int, system: SystemParams,
    ) -> EnergyBreakdown:
        p = self.params
        op_energy, static = self._core_constants(system)
        bd = EnergyBreakdown()
        bd.core_dynamic = stats["core.ops"] * op_energy
        bd.core_static = cycles * static * system.num_tiles
        l1_accesses = stats["l1.hits"] + stats["l1.misses"]
        bd.l1 = l1_accesses * p.l1_access
        l2_accesses = stats["l2.hits"] + stats["l2.misses"]
        bd.l2 = l2_accesses * p.l2_access
        l3_accesses = (
            stats["l3.hits"] + stats["l3.misses"]
            + stats["l3.requests.stream_float"]
        )
        bd.l3 = l3_accesses * p.l3_access
        flit_hops = sum(
            stats.get(f"noc.flit_hops.{kind}") for kind in TRAFFIC_CLASSES
        )
        # Local (0-hop) deliveries still traverse one router.
        flits = sum(
            stats.get(f"noc.flits.{kind}") for kind in TRAFFIC_CLASSES
        )
        bd.noc = (flit_hops + flits) * p.noc_flit_hop
        bd.dram = (stats["dram.reads"] + stats["dram.writes"]) * p.dram_access
        se_events = (
            stats["se_core.requests"] + stats["se_l2.data_arrivals"]
            + stats["se_l3.elements_issued"] + stats["se_l3.tlb_lookups"]
        )
        bd.stream_engines = se_events * p.se_op
        return bd

    def efficiency(
        self, stats: Stats, cycles: int, system: SystemParams,
    ) -> float:
        """Inverse energy (1/pJ) — higher is better; used for the
        paper's "energy efficiency" ratios (Figures 13 and 19)."""
        total = self.evaluate(stats, cycles, system).total
        return 1.0 / total if total > 0 else 0.0
