"""B+ tree (Table IV: 1M leaves, 10k lookups, 6k range queries).

Two phases:

1. **lookups** — pointer chasing down three levels of the tree at
   random positions. Nothing here streams; the accesses defeat both
   stride prefetchers and streams (the paper's b+tree shows the most
   modest gains of the suite).
2. **range queries** — each query scans a run of consecutive leaf
   lines. Sorted queries become a 2-level affine stream (scan length
   x query count with a stride between query starts), with the
   interior descents as plain loads.
"""

from __future__ import annotations

from typing import Dict

from repro.streams.isa import StreamSpec
from repro.streams.pattern import AffinePattern
from repro.workloads.base import Workload, WorkloadMeta, register
from repro.workloads.kernel import CoreProgram, Iteration, KernelPhase, chunk_range

LEAF_ENTRY_BYTES = 16
SCAN_LINES = 16  # lines touched per range query


@register
class BPlusTree(Workload):
    META = WorkloadMeta(
        name="b+tree",
        table_iv="1m leaves, 10k lookups, 6k range queries",
    )

    def _dims(self):
        leaves = max(16384, (1 << 19) // self.scale)
        lookups = max(256, 40000 // self.scale)
        queries = max(128, 24000 // self.scale)
        return leaves, lookups, queries

    def _build(self) -> Dict[int, CoreProgram]:
        import numpy as np

        leaves, lookups, queries = self._dims()
        leaf_bytes = leaves * LEAF_ENTRY_BYTES
        leaf_base = self.layout.alloc("leaves", leaf_bytes)
        inner_base = self.layout.alloc("inner", leaf_bytes // 32)
        root_base = self.layout.alloc("root", 4096)

        programs = {}
        for core in range(self.num_cores):
            my_lookups = len(chunk_range(lookups, self.num_cores, core))
            rng = np.random.default_rng(1000 + core)
            leaf_targets = rng.integers(0, leaf_bytes // 64, my_lookups)
            inner_targets = rng.integers(0, leaf_bytes // 32 // 64, my_lookups)

            def lookup_iters(n=my_lookups, leaf_t=leaf_targets,
                             inner_t=inner_targets):
                for i in range(n):
                    yield Iteration(compute_ops=6, ops=(
                        ("load", root_base + (i % 64) * 64, 10),
                        ("load", inner_base + int(inner_t[i]) * 64, 11),
                        ("load", leaf_base + int(leaf_t[i]) * 64, 12),
                    ))

            # Range scans: this core's queries land in its leaf chunk,
            # evenly spaced (sorted), forming one strided 2-D stream.
            my_leaf_lines = chunk_range(leaf_bytes // 64, self.num_cores, core)
            my_queries = max(1, len(chunk_range(queries, self.num_cores, core)))
            gap_lines = max(SCAN_LINES, len(my_leaf_lines) // my_queries)
            n_queries = max(1, len(my_leaf_lines) // gap_lines)
            scan_spec = StreamSpec(sid=0, pattern=AffinePattern(
                base=leaf_base + my_leaf_lines.start * 64,
                strides=(64, gap_lines * 64),
                lengths=(SCAN_LINES, n_queries),
                elem_size=64,
            ))
            inner_rng = np.random.default_rng(2000 + core)
            descents = inner_rng.integers(0, leaf_bytes // 32 // 64, n_queries)

            def scan_iters(nq=n_queries, descents=descents):
                for q in range(nq):
                    yield Iteration(compute_ops=6, ops=(
                        ("load", root_base + (q % 64) * 64, 20),
                        ("load", inner_base + int(descents[q]) * 64, 21),
                        ("sload", 0),
                    ))
                    for _ in range(SCAN_LINES - 1):
                        yield Iteration(compute_ops=4, ops=(("sload", 0),))

            programs[core] = CoreProgram(phases=[
                KernelPhase(name="lookups", iterations=lookup_iters),
                KernelPhase(name="scans", stream_specs=[scan_spec],
                            iterations=scan_iters),
            ])
        return programs
