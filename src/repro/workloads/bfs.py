"""BFS (Table IV: 1M nodes, 599970 edges).

Level-synchronous breadth-first search. Per level, cores scan their
slice of the frontier's edge list (an affine index stream) and check
each destination's visited flag — the indirect stream ``B[A[i]]``
that indirect floating accelerates, with 4-byte subline responses
(the paper: bfs is one of only two workloads with indirect streams,
and the one where subline transfer pays off, Figure 15).

Baseline prefetchers get no traction on the visited accesses — the
paper's evaluated prefetchers do not support indirection, which is
why bfs is an outlier in Figure 13.
"""

from __future__ import annotations

from typing import Dict

from repro.streams.isa import StreamSpec
from repro.streams.pattern import AffinePattern, IndirectPattern
from repro.workloads.base import Workload, WorkloadMeta, register
from repro.workloads.kernel import CoreProgram, Iteration, KernelPhase, chunk_range


@register
class Bfs(Workload):
    META = WorkloadMeta(
        name="bfs",
        table_iv="1m nodes, 599970 edges",
        has_indirect=True,
    )

    LEVELS = 3

    def _dims(self):
        # Paper ratio: 1M nodes to 600k edges — most visited-flag
        # lookups touch cold lines, which is what makes the 4-byte
        # subline transfers profitable.
        nodes = max(8192, (1 << 20) // self.scale)
        edges = max(2048, int(nodes * 0.6))
        return nodes, edges

    def _build(self) -> Dict[int, CoreProgram]:
        import numpy as np

        nodes, edges = self._dims()
        edge_dst = self.rng.integers(0, nodes, edges, dtype=np.int64)
        edge_base = self.layout.alloc("edge_dst", edges * 4)
        visited_base = self.layout.alloc("visited", nodes * 4)
        dist_base = self.layout.alloc("dist", nodes * 4)

        programs = {}
        for core in range(self.num_cores):
            phases = []
            for level in range(self.LEVELS):
                lo = level * edges // self.LEVELS
                hi = (level + 1) * edges // self.LEVELS
                my = chunk_range(hi - lo, self.num_cores, core)
                start = lo + my.start
                count = max(1, len(my))
                index_pattern = AffinePattern(
                    base=edge_base + start * 4, strides=(4,),
                    lengths=(count,), elem_size=4,
                )
                edge_spec = StreamSpec(sid=0, pattern=index_pattern)
                visited_spec = StreamSpec(sid=1, parent_sid=0, pattern=IndirectPattern(
                    base=visited_base, index_pattern=index_pattern,
                    index_array=edge_dst[start:start + count],
                    scale=4, elem_size=4,
                ))
                my_dsts = edge_dst[start:start + count]

                def iterations(count=count, my_dsts=my_dsts):
                    for i in range(count):
                        ops = [("sload", 0), ("sload", 1)]
                        if i % 8 == 0:
                            # A fraction of edges discover new nodes.
                            dst = int(my_dsts[i])
                            ops.append(("store", dist_base + dst * 4, 70))
                        yield Iteration(compute_ops=3, ops=tuple(ops))

                phases.append(KernelPhase(
                    name=f"level{level}",
                    stream_specs=[edge_spec, visited_spec],
                    iterations=iterations,
                ))
            programs[core] = CoreProgram(phases=phases)
        return programs
