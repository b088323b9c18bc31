"""Tests for chip assembly and the phase-barrier run loop."""

import tracemalloc

import pytest

from repro.system import Chip, make_config
from repro.workloads.kernel import CoreProgram, Iteration, KernelPhase


def make_chip(config="base", **kw):
    kw.setdefault("cols", 2)
    kw.setdefault("rows", 2)
    kw.setdefault("scale", 32)
    return Chip(make_config(config, core="ooo4", **kw))


def compute_phase(iters, ops_per_iter=4):
    return KernelPhase(name="c", iterations=lambda: iter([
        Iteration(compute_ops=ops_per_iter, ops=()) for _ in range(iters)
    ]))


class TestAssembly:
    def test_every_tile_fully_built(self):
        chip = make_chip("sf")
        assert len(chip.tiles) == 4
        for tile in chip.tiles:
            assert tile.l1 is not None and tile.l2 is not None
            assert tile.l3 is not None
            assert tile.se_core is not None
            assert tile.se_l2 is not None and tile.se_l3 is not None

    def test_base_has_no_stream_engines(self):
        chip = make_chip("base")
        for tile in chip.tiles:
            assert tile.se_core is None
            assert tile.se_l2 is None and tile.se_l3 is None

    def test_ss_has_core_engine_only(self):
        chip = make_chip("ss")
        for tile in chip.tiles:
            assert tile.se_core is not None
            assert tile.se_l2 is None and tile.se_l3 is None

    def test_prefetchers_wired(self):
        chip = make_chip("bingo")
        from repro.prefetch import BingoPrefetcher, StridePrefetcher
        for tile in chip.tiles:
            assert isinstance(tile.l1.prefetcher, BingoPrefetcher)
            assert isinstance(tile.l2.prefetcher, StridePrefetcher)

    def test_bulk_with_fine_interleave_rejected(self):
        with pytest.raises(ValueError):
            Chip(make_config("bulk", cols=2, rows=2, scale=32,
                             l3_interleave=64))

    def test_paper_geometry_build_stays_small(self):
        # Cache lines are built at their way's first fill and BRRIP
        # sets of one seed share a generator: the 8x8 build traces
        # ~11 MiB, against ~95 MiB when every slot held a line and
        # every set owned a generator.
        tracemalloc.start()
        try:
            Chip(make_config("sf", core="ooo8", cols=8, rows=8, scale=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20


class TestBarriers:
    def test_phase2_starts_after_slowest_core(self):
        chip = make_chip()
        marks = {}

        def marked_phase(core_id, label, iters):
            def iterations():
                marks.setdefault(label, []).append((core_id, chip.sim.now))
                for _ in range(iters):
                    yield Iteration(compute_ops=4, ops=())
            return KernelPhase(name=label, iterations=iterations)

        programs = {
            0: CoreProgram(phases=[marked_phase(0, "p1", 1000),
                                   marked_phase(0, "p2", 1)]),
            1: CoreProgram(phases=[marked_phase(1, "p1", 1),
                                   marked_phase(1, "p2", 1)]),
        }
        chip.run(programs)
        p2_starts = [t for _c, t in marks["p2"]]
        # Core 1 finished p1 almost immediately, yet its p2 begins
        # only after core 0's long p1 completes.
        assert min(p2_starts) >= 1000 / 4  # core 0's p1 takes ~250 cyc

    def test_cores_with_fewer_phases_idle(self):
        chip = make_chip()
        programs = {
            0: CoreProgram(phases=[compute_phase(10), compute_phase(10)]),
            1: CoreProgram(phases=[compute_phase(10)]),
        }
        result = chip.run(programs)
        assert result.cycles > 0

    def test_unmapped_cores_are_fine(self):
        chip = make_chip()
        result = chip.run({2: CoreProgram(phases=[compute_phase(5)])})
        assert result.per_core_finish[2] > 0
        assert result.per_core_finish[0] == 0

    def test_invalid_core_id_rejected(self):
        chip = make_chip()
        with pytest.raises(ValueError):
            chip.run({99: CoreProgram(phases=[compute_phase(1)])})

    def test_empty_program_map(self):
        chip = make_chip()
        result = chip.run({})
        assert result.cycles == 0


class TestRunResult:
    def test_cycles_is_max_finish(self):
        chip = make_chip()
        programs = {
            0: CoreProgram(phases=[compute_phase(100)]),
            1: CoreProgram(phases=[compute_phase(10)]),
        }
        result = chip.run(programs)
        assert result.cycles == max(result.per_core_finish)

    def test_stats_record_chip_cycles(self):
        chip = make_chip()
        result = chip.run({0: CoreProgram(phases=[compute_phase(10)])})
        assert result.stats["chip.cycles"] == result.cycles
