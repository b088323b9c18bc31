"""Unit tests for the core timing models."""

import pytest

from repro.mem.addr import NucaMap
from repro.mem.dram import DramSystem
from repro.mem.l1 import L1Cache
from repro.mem.l2 import L2Cache
from repro.mem.l3 import L3Bank
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.cpu.core import Core
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.streams.isa import StreamSpec
from repro.streams.pattern import AffinePattern
from repro.system.params import IO4, OOO8
from repro.workloads.kernel import CoreProgram, Iteration, KernelPhase


class CoreRig:
    def __init__(self, params=OOO8):
        self.sim = Simulator()
        self.stats = Stats()
        mesh = Mesh(2, 2)
        self.net = Network(self.sim, mesh, self.stats)
        nuca = NucaMap(4, 64)
        dram = DramSystem(self.sim, self.net, self.stats)
        self.banks = [
            L3Bank(self.sim, self.net, self.stats, t, size_bytes=16 * 1024,
                   ways=4, dram=dram, replacement="lru", nuca=nuca)
            for t in range(4)
        ]
        self.l2 = L2Cache(self.sim, self.net, self.stats, 0,
                          size_bytes=4096, ways=4, nuca=nuca,
                          replacement="lru")
        self.l1 = L1Cache(self.sim, self.stats, 0, self.l2,
                          size_bytes=1024, ways=2)
        self.core = Core(self.sim, self.stats, 0, self.l1, params)

    def run_program(self, program):
        finished = []
        # Run each phase with an inline barrier.
        for phase in program:
            self.core.run_phase(phase, lambda: finished.append(self.sim.now))
            self.sim.run(max_events=1_000_000)
        return finished


def phase_of(iters, specs=()):
    return KernelPhase(name="p", stream_specs=list(specs),
                       iterations=lambda: iter(iters))


def test_compute_only_phase_finishes():
    rig = CoreRig()
    iters = [Iteration(compute_ops=8, ops=()) for _ in range(10)]
    finished = rig.run_program(CoreProgram(phases=[phase_of(iters)]))
    assert len(finished) == 1
    assert rig.stats["core.iterations"] == 10


def test_empty_phase_finishes_immediately():
    rig = CoreRig()
    finished = rig.run_program(CoreProgram(phases=[phase_of([])]))
    assert len(finished) == 1


def test_loads_execute_and_count():
    rig = CoreRig()
    iters = [Iteration(compute_ops=1, ops=(("load", i * 64, 1),))
             for i in range(8)]
    rig.run_program(CoreProgram(phases=[phase_of(iters)]))
    assert rig.stats["core.loads"] == 8
    assert rig.stats["l1.misses"] == 8


def test_stores_drain_through_store_buffer():
    rig = CoreRig()
    iters = [Iteration(compute_ops=1, ops=(("store", i * 64, 2),))
             for i in range(80)]  # more than the 56-entry SQ
    finished = rig.run_program(CoreProgram(phases=[phase_of(iters)]))
    assert len(finished) == 1
    assert rig.stats["core.stores"] == 80


def test_ooo_overlaps_inorder_does_not():
    def run(params):
        rig = CoreRig(params)
        iters = [Iteration(compute_ops=2, ops=(("load", i * 4096, 3),))
                 for i in range(32)]
        rig.run_program(CoreProgram(phases=[phase_of(iters)]))
        return rig.sim.now

    assert run(OOO8) < run(IO4)


def test_multiple_phases_run_in_sequence():
    rig = CoreRig()
    p1 = phase_of([Iteration(compute_ops=4, ops=()) for _ in range(4)])
    p2 = phase_of([Iteration(compute_ops=4, ops=()) for _ in range(4)])
    finished = rig.run_program(CoreProgram(phases=[p1, p2]))
    assert len(finished) == 2
    assert finished[0] <= finished[1]


def test_fallback_lowering_of_stream_ops():
    """Without an SE, sload/sstore lower to plain accesses."""
    rig = CoreRig()
    spec = StreamSpec(sid=0, pattern=AffinePattern(
        base=0x8000, strides=(64,), lengths=(8,), elem_size=64,
    ))
    store = StreamSpec(sid=1, kind="store", pattern=AffinePattern(
        base=0x20000, strides=(64,), lengths=(8,), elem_size=64,
    ))
    iters = [Iteration(compute_ops=2, ops=(("sload", 0), ("sstore", 1)))
             for _ in range(8)]
    finished = rig.run_program(CoreProgram(
        phases=[phase_of(iters, specs=[spec, store])]
    ))
    assert len(finished) == 1
    assert rig.stats["core.loads"] == 8
    assert rig.stats["core.stores"] == 8
    # The lowered loads walked the pattern: 8 distinct lines fetched.
    assert rig.stats["l1.misses"] >= 8


def test_unknown_op_rejected():
    rig = CoreRig()
    iters = [Iteration(compute_ops=1, ops=(("bogus",),))]
    with pytest.raises(ValueError):
        rig.run_program(CoreProgram(phases=[phase_of(iters)]))


def test_iteration_window_respects_lq():
    """A burst of load-heavy iterations can't exceed the LQ much."""
    rig = CoreRig(IO4)  # lq = 4
    iters = [Iteration(compute_ops=1, ops=(("load", i * 64, 5),))
             for i in range(16)]
    max_seen = []

    orig = rig.core._plain_load

    def spy(state, addr, op_id, stream_id=None):
        orig(state, addr, op_id, stream_id=stream_id)
        max_seen.append(rig.core._outstanding_loads)

    rig.core._plain_load = spy
    rig.run_program(CoreProgram(phases=[phase_of(iters)]))
    # Bounded by the instruction window (10 // 2 ops = 5 iterations);
    # the LQ check throttles dispatch once loads are outstanding.
    assert max(max_seen) <= 6
