"""Tests for the workload layer: every benchmark builds coherent
stream programs whose addresses stay within their allocations."""

import os
import subprocess
import sys

import pytest

from repro.workloads import ALL_WORKLOADS, build_programs, get_workload
from repro.workloads.base import Layout
from repro.workloads.kernel import chunk_range


class TestChunkRange:
    def test_covers_everything_once(self):
        total, workers = 103, 7
        seen = []
        for w in range(workers):
            seen.extend(chunk_range(total, workers, w))
        assert sorted(seen) == list(range(total))

    def test_balanced(self):
        sizes = [len(chunk_range(100, 8, w)) for w in range(8)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_items(self):
        sizes = [len(chunk_range(3, 8, w)) for w in range(8)]
        assert sum(sizes) == 3


class TestLayout:
    def test_alloc_is_page_aligned_and_disjoint(self):
        layout = Layout()
        a = layout.alloc("a", 100)
        b = layout.alloc("b", 5000)
        c = layout.alloc("c", 64)
        assert a % 4096 == 0
        assert b % 4096 == 0
        assert b >= a + 100
        assert c >= b + 5000
        assert layout.footprint() == 100 + 5000 + 64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Layout().alloc("x", 0)


def in_range(addr, layout):
    return any(
        base <= addr < base + size
        for base, size in layout.arrays.values()
    )


# Every registered workload — Table IV's 12 plus the extras (the tiled
# stencil revocation case study) — passes the generic battery.
@pytest.mark.parametrize("name", ALL_WORKLOADS + ("stencil_tiled",))
class TestEveryWorkload:
    def test_builds_with_equal_phase_counts(self, name):
        wl = get_workload(name)(num_cores=8, scale=32)
        programs = wl.build()
        assert set(programs) == set(range(8))
        counts = {len(p) for p in programs.values()}
        assert len(counts) == 1

    def test_stream_addresses_within_allocations(self, name):
        wl = get_workload(name)(num_cores=4, scale=32)
        programs = wl.build()
        for program in programs.values():
            for phase in program:
                for spec in phase.stream_specs:
                    pat = spec.pattern
                    probe = [0, len(pat) // 2, len(pat) - 1]
                    for idx in probe:
                        addr = pat.address(idx)
                        assert in_range(addr, wl.layout), (
                            name, phase.name, spec.sid, hex(addr)
                        )

    def test_iterations_are_regeneratable(self, name):
        wl = get_workload(name)(num_cores=4, scale=32)
        programs = wl.build()
        phase = programs[0].phases[0]
        first = sum(1 for _ in phase.iterations())
        second = sum(1 for _ in phase.iterations())
        assert first == second

    def test_ops_reference_configured_streams(self, name):
        wl = get_workload(name)(num_cores=4, scale=32)
        programs = wl.build()
        for program in programs.values():
            for phase in program:
                sids = {s.sid for s in phase.stream_specs}
                kinds = {s.sid: s.kind for s in phase.stream_specs}
                for it in phase.iterations():
                    for op in it.ops:
                        if op[0] == "sload":
                            assert op[1] in sids
                            assert kinds[op[1]] == "load"
                        elif op[0] == "sstore":
                            assert op[1] in sids
                            assert kinds[op[1]] == "store"

    def test_stream_consumption_matches_length(self, name):
        """No phase consumes more elements than a stream has."""
        wl = get_workload(name)(num_cores=4, scale=32)
        programs = wl.build()
        for program in programs.values():
            for phase in program:
                lengths = {s.sid: s.length for s in phase.stream_specs}
                used = {sid: 0 for sid in lengths}
                for it in phase.iterations():
                    for op in it.ops:
                        if op[0] in ("sload", "sstore"):
                            used[op[1]] += 1
                for sid, count in used.items():
                    assert count <= lengths[sid], (name, phase.name, sid)

    def test_deterministic_given_seed(self, name):
        a = get_workload(name)(num_cores=4, scale=32, seed=3)
        b = get_workload(name)(num_cores=4, scale=32, seed=3)
        pa = a.build()[0].phases[0]
        pb = b.build()[0].phases[0]
        ops_a = [it.ops for it in pa.iterations()]
        ops_b = [it.ops for it in pb.iterations()]
        assert ops_a == ops_b


class TestMeta:
    def test_registry_has_all_twelve(self):
        assert len(ALL_WORKLOADS) == 12
        expected = {
            "b+tree", "bfs", "cfd", "conv3d", "hotspot", "hotspot3D",
            "mv", "nn", "nw", "particlefilter", "pathfinder", "srad",
        }
        assert set(ALL_WORKLOADS) == expected

    def test_extras_registered_but_not_in_table_iv_set(self):
        assert get_workload("stencil_tiled").META.stencil
        assert "stencil_tiled" not in ALL_WORKLOADS

    def test_indirect_flags(self):
        assert get_workload("bfs").META.has_indirect
        assert get_workload("cfd").META.has_indirect
        assert not get_workload("mv").META.has_indirect

    def test_confluence_flags(self):
        assert get_workload("conv3d").META.has_confluence
        assert get_workload("particlefilter").META.has_confluence

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_build_programs_convenience(self):
        programs = build_programs("nn", 4, scale=64)
        assert len(programs) == 4


class TestIndirectWorkloads:
    def test_bfs_indirect_addresses_follow_edges(self):
        wl = get_workload("bfs")(num_cores=2, scale=64)
        programs = wl.build()
        phase = programs[0].phases[0]
        ind = [s for s in phase.stream_specs if s.is_indirect][0]
        visited_base, visited_size = wl.layout.arrays["visited"]
        for idx in range(0, min(16, len(ind.pattern))):
            addr = ind.pattern.address(idx)
            assert visited_base <= addr < visited_base + visited_size

    def test_cfd_four_neighbors_per_cell(self):
        wl = get_workload("cfd")(num_cores=2, scale=64)
        programs = wl.build()
        phase = programs[0].phases[0]
        it = next(phase.iterations())
        gathers = [op for op in it.ops if op[0] == "sload" and op[1] == 1]
        assert len(gathers) == 4


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

NUMPY_PROBE = """
import sys
from repro.system import Chip, make_config
from repro.workloads import build_programs
chip = Chip(make_config("sf", core="ooo8", cols=2, rows=2, scale=64))
chip.run(build_programs("mv", chip.num_cores, scale=64, seed=0))
if "numpy" in sys.modules:
    sys.exit("building and running mv loaded numpy")
build_programs("bfs", chip.num_cores, scale=64, seed=0)
if "numpy" not in sys.modules:
    sys.exit("bfs built its edge list without numpy")
"""


def test_numpy_loads_only_for_workloads_that_draw_from_it():
    # A fresh interpreter: this one has numpy loaded by other tests.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
