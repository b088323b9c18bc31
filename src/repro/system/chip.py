"""Full-chip assembly and the run loop.

:class:`Chip` builds the mesh, network, DRAM corners and one
:class:`~repro.system.tile.Tile` per mesh coordinate, then executes
per-core :class:`~repro.workloads.kernel.CoreProgram` lists phase by
phase with a global barrier between phases (OpenMP semantics).

:meth:`Chip.run` returns a :class:`RunResult` with the cycle count
(the slowest core's finish across all phases), the merged stats tree,
and derived metrics (NoC utilization, traffic breakdowns) used by the
experiment harness.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List

from repro.mem.addr import NucaMap
from repro.mem.dram import DramSystem
from repro.noc.message import TRAFFIC_CLASSES
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.system.params import SystemParams
from repro.system.tile import Tile
from repro.workloads.kernel import CoreProgram


@dataclass
class RunResult:
    """Outcome of one full workload run."""

    cycles: int
    stats: Stats
    params: SystemParams
    per_core_finish: List[int] = field(default_factory=list)

    @property
    def noc_flit_hops(self) -> float:
        return sum(
            self.stats.get(f"noc.flit_hops.{k}") for k in TRAFFIC_CLASSES
        )

    def noc_utilization(self) -> float:
        mesh = Mesh(self.params.cols, self.params.rows)
        if self.cycles <= 0:
            return 0.0
        return self.noc_flit_hops / (mesh.num_links * self.cycles)


class Chip:
    """A tiled multicore built from :class:`SystemParams`."""

    MAX_EVENTS = 500_000_000  # livelock guard for runaway simulations

    def __init__(self, params: SystemParams) -> None:
        self.params = params
        self.sim = Simulator()
        self.stats = Stats()
        self.mesh = Mesh(params.cols, params.rows)
        self.net = Network(
            self.sim, self.mesh, self.stats,
            link_bits=params.link_bits, router_stages=params.router_stages,
        )
        self.nuca = NucaMap(self.mesh.num_tiles, params.l3_interleave)
        self.dram = DramSystem(
            self.sim, self.net, self.stats,
            access_latency=params.dram_latency,
            cycles_per_line=params.dram_cycles_per_line_effective,
        )
        self.tiles: List[Tile] = [
            Tile(t, params, self.sim, self.net, self.stats,
                 self.nuca, self.mesh, self.dram)
            for t in range(self.mesh.num_tiles)
        ]
        self.sim.probes.bind("chip", self)

    @property
    def num_cores(self) -> int:
        return self.mesh.num_tiles

    # ------------------------------------------------------------------
    def run(self, programs: Dict[int, CoreProgram]) -> RunResult:
        """Run per-core programs to completion with phase barriers.

        The event loop runs with the cyclic garbage collector paused
        (restored on exit). A run makes no cyclic garbage, yet every
        full collection walks every long-lived object: after mv/sf at
        8x8 the process tracks ~38k objects (~118k while every filled
        cache way held a line object). On that point, with lines as
        slots (Python 3.11, one vCPU of a shared 2-vCPU host), the
        collector left on made the run slower in 8 of 10 alternating
        rounds, 0.98-1.26x (median 14.95 s of CPU time against 13.10 s).
        """
        for core_id in programs:
            if not (0 <= core_id < self.num_cores):
                raise ValueError(f"program for nonexistent core {core_id}")
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return self._run_phases(programs)
        finally:
            if was_enabled:
                gc.enable()

    def _run_phases(self, programs: Dict[int, CoreProgram]) -> RunResult:
        num_phases = max((len(p) for p in programs.values()), default=0)
        finish_time = 0
        per_core_finish = [0] * self.num_cores

        for phase_idx in range(num_phases):
            participants = {
                core_id: program.phases[phase_idx]
                for core_id, program in programs.items()
                if phase_idx < len(program)
            }
            pending = {"count": len(participants)}

            def one_done(pending=pending) -> None:
                pending["count"] -= 1

            for core_id, phase in participants.items():
                self.tiles[core_id].core.run_phase(phase, one_done)
            self.sim.run(max_events=self.MAX_EVENTS)
            if pending["count"] != 0:
                raise RuntimeError(
                    f"phase {phase_idx} deadlocked: {pending['count']} cores "
                    f"never finished (event queue drained at {self.sim.now})"
                )
            for core_id in participants:
                core = self.tiles[core_id].core
                per_core_finish[core_id] = core.finish_time
                finish_time = max(finish_time, core.finish_time)

        # Drain stragglers (writebacks, in-flight prefetches).
        self.sim.run(max_events=self.MAX_EVENTS)
        san = self.sim.sanitizer
        if san is not None:
            san.final_check()
            self.stats.set("sanitizer.trace_hash", san.trace_hash)
            self.stats.set("sanitizer.trace_events", san.trace_events)
            self.stats.set("sanitizer.violations", san.violations)
        tel = self.sim.telemetry
        if tel is not None:
            tel.finalize(self.stats)
        self.stats.set("chip.cycles", finish_time)
        return RunResult(
            cycles=finish_time,
            stats=self.stats,
            params=self.params,
            per_core_finish=per_core_finish,
        )
