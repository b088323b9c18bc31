"""CFD Euler solver (Table IV: fvcorr.domn.193K).

Unstructured-mesh flux computation: per cell, read the cell's own
state (affine), its four neighbour indices (the affine index stream),
and the neighbours' states (indirect, gathered through the mesh
connectivity) — the second of the paper's two indirect-stream
workloads. Compute per cell is heavy (flux evaluation), so cfd is
less bandwidth-bound than bfs; a small fraction of its indirect data
is already cached, which is why indirect floating costs it a little
traffic in Figure 15.
"""

from __future__ import annotations

from typing import Dict

from repro.streams.isa import StreamSpec
from repro.streams.pattern import AffinePattern, IndirectPattern
from repro.workloads.base import Workload, WorkloadMeta, register
from repro.workloads.kernel import CoreProgram, Iteration, KernelPhase, chunk_range

NEIGHBORS = 4


@register
class Cfd(Workload):
    META = WorkloadMeta(
        name="cfd",
        table_iv="fvcorr.domn.193K",
        has_indirect=True,
    )

    def _cells(self) -> int:
        return max(2048, 193536 // (self.scale * 2))

    def _build(self) -> Dict[int, CoreProgram]:
        import numpy as np

        cells = self._cells()
        # Mesh connectivity is mostly local: neighbours near the cell.
        base_ids = np.repeat(np.arange(cells, dtype=np.int64), NEIGHBORS)
        jitter = self.rng.integers(-32, 33, cells * NEIGHBORS)
        nb = np.clip(base_ids + jitter, 0, cells - 1)
        density_base = self.layout.alloc("density", cells * 4)
        nb_base = self.layout.alloc("nb_idx", cells * NEIGHBORS * 4)
        flux_base = self.layout.alloc("flux", cells * 4)

        programs = {}
        for core in range(self.num_cores):
            my = chunk_range(cells, self.num_cores, core)
            count = max(1, len(my))
            nb_start = my.start * NEIGHBORS
            index_pattern = AffinePattern(
                base=nb_base + nb_start * 4, strides=(4,),
                lengths=(count * NEIGHBORS,), elem_size=4,
            )
            nb_spec = StreamSpec(sid=0, pattern=index_pattern)
            ind_spec = StreamSpec(sid=1, parent_sid=0, pattern=IndirectPattern(
                base=density_base, index_pattern=index_pattern,
                index_array=nb[nb_start:nb_start + count * NEIGHBORS],
                scale=4, elem_size=4,
            ))
            dens_spec = StreamSpec(sid=2, pattern=AffinePattern(
                base=density_base + my.start * 4, strides=(4,),
                lengths=(count,), elem_size=4,
            ))
            flux_spec = StreamSpec(sid=3, kind="store", pattern=AffinePattern(
                base=flux_base + my.start * 4, strides=(4,),
                lengths=(count,), elem_size=4,
            ))

            def iterations(count=count):
                gather = (("sload", 0), ("sload", 1)) * NEIGHBORS
                for _ in range(count):
                    yield Iteration(compute_ops=24, ops=(
                        ("sload", 2), *gather, ("sstore", 3),
                    ))

            programs[core] = CoreProgram(phases=[KernelPhase(
                name="flux",
                stream_specs=[nb_spec, ind_spec, dens_spec, flux_spec],
                iterations=iterations,
            )])
        return programs
