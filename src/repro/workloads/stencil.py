"""Shared machinery for the stencil workloads (hotspot, hotspot3D,
srad).

A stencil phase reads three row-shifted streams of the input grid
(south = row+1, centre, north = row-1), plus an auxiliary array
(power / coefficients), and stores one output row stream. The
*south* stream — the one furthest ahead in memory — is configured
first so the SE_L2 registers centre and north as constant-offset
followers (SS IV-B): only one copy of the grid crosses the NoC when
the streams float.

Grids ping-pong between two buffers with a barrier per time step.
A one-row halo above and below keeps boundary cores' shifted streams
inside the allocation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.streams.isa import StreamSpec
from repro.streams.pattern import AffinePattern
from repro.workloads.base import Workload
from repro.workloads.kernel import CoreProgram, Iteration, KernelPhase, chunk_range

SOUTH, CENTER, NORTH, AUX = 0, 1, 2, 3
OUT = 4


def row_stream(sid: int, base: int, row0: int, n_rows: int, row_bytes: int,
               kind: str = "load") -> StreamSpec:
    """A 2-level stream over rows [row0, row0 + n_rows)."""
    return StreamSpec(sid=sid, kind=kind, pattern=AffinePattern(
        base=base + row0 * row_bytes,
        strides=(64, row_bytes),
        lengths=(row_bytes // 64, n_rows),
        elem_size=64,
    ))


class StencilWorkload(Workload):
    """Base for row-wise stencils; subclasses define ``_dims()``
    returning (grid rows, row bytes, time steps) and set compute."""

    #: arithmetic ops per line iteration
    COMPUTE_OPS = 10
    #: phases per time step (srad runs two kernels per iteration)
    KERNELS_PER_STEP = 1

    def _build(self) -> Dict[int, CoreProgram]:
        rows, row_bytes, steps = self._dims()
        grid_bytes = (rows + 2) * row_bytes  # one halo row each side
        grids = [self.layout.alloc("grid0", grid_bytes),
                 self.layout.alloc("grid1", grid_bytes)]
        aux_base = self.layout.alloc("aux", grid_bytes)
        row_lines = row_bytes // 64

        programs = {}
        for core in range(self.num_cores):
            my = chunk_range(rows, self.num_cores, core)
            n_rows = max(1, len(my))
            phases: List[KernelPhase] = []
            for step in range(steps):
                for kern in range(self.KERNELS_PER_STEP):
                    src = grids[step % 2]
                    dst = grids[(step + 1) % 2]
                    # +1 for the halo row at the top of the grid.
                    r0 = my.start + 1
                    specs = [
                        row_stream(SOUTH, src, r0 + 1, n_rows, row_bytes),
                        row_stream(CENTER, src, r0, n_rows, row_bytes),
                        row_stream(NORTH, src, r0 - 1, n_rows, row_bytes),
                        row_stream(AUX, aux_base, r0, n_rows, row_bytes),
                        row_stream(OUT, dst, r0, n_rows, row_bytes,
                                   kind="store"),
                    ]

                    def iterations(n=n_rows * row_lines,
                                   compute=self.COMPUTE_OPS):
                        for _ in range(n):
                            yield Iteration(compute_ops=compute, ops=(
                                ("sload", SOUTH), ("sload", CENTER),
                                ("sload", NORTH), ("sload", AUX),
                                ("sstore", OUT),
                            ))

                    phases.append(KernelPhase(
                        name=f"step{step}.{kern}", stream_specs=specs,
                        iterations=iterations,
                    ))
            programs[core] = CoreProgram(phases=phases)
        return programs
