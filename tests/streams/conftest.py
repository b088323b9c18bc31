"""A single-tile-plus-mesh rig for stream engine tests.

Builds a small chip (2x2) directly from components so tests can poke
at individual stream engines while a real network, L3 banks and DRAM
respond underneath.
"""

import pytest

from repro.mem.addr import NucaMap
from repro.mem.dram import DramSystem
from repro.mem.l1 import L1Cache
from repro.mem.l2 import L2Cache
from repro.mem.l3 import L3Bank
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.streams.isa import StreamSpec
from repro.streams.pattern import AffinePattern
from repro.streams.se_core import SECore
from repro.streams.se_l2 import SEL2
from repro.streams.se_l3 import SEL3


class StreamRig:
    def __init__(self, cols=2, rows=2, interleave=256, l2_size=4096,
                 fifo_bytes=512, buffer_bytes=2048, float_enabled=True,
                 float_policy="static", plan_enabled=False):
        self.sim = Simulator()
        self.stats = Stats()
        self.mesh = Mesh(cols, rows)
        self.net = Network(self.sim, self.mesh, self.stats)
        self.nuca = NucaMap(self.mesh.num_tiles, interleave)
        self.dram = DramSystem(self.sim, self.net, self.stats)
        self.banks, self.l2s, self.l1s = [], [], []
        self.se_l2s, self.se_l3s, self.se_cores = [], [], []
        for tile in range(self.mesh.num_tiles):
            bank = L3Bank(self.sim, self.net, self.stats, tile,
                          size_bytes=32 * 1024, ways=4, dram=self.dram,
                          replacement="lru", nuca=self.nuca)
            l2 = L2Cache(self.sim, self.net, self.stats, tile,
                         size_bytes=l2_size, ways=4, nuca=self.nuca,
                         replacement="lru")
            l1 = L1Cache(self.sim, self.stats, tile, l2,
                         size_bytes=1024, ways=2)
            se_l2 = SEL2(self.sim, self.net, self.stats, tile, l2,
                         self.nuca, buffer_bytes=buffer_bytes)
            se_l3 = SEL3(self.sim, self.net, self.stats, tile, bank,
                         self.nuca, self.mesh)
            se_core = SECore(self.sim, self.stats, tile, l1, se_l2=se_l2,
                             fifo_bytes=fifo_bytes, l2_capacity=l2_size,
                             float_enabled=float_enabled,
                             float_policy=float_policy,
                             plan_enabled=plan_enabled)
            l2.on_stream_reuse = se_core.on_stream_reuse
            self.banks.append(bank)
            self.l2s.append(l2)
            self.l1s.append(l1)
            self.se_l2s.append(se_l2)
            self.se_l3s.append(se_l3)
            self.se_cores.append(se_core)

    def run(self, max_events=3_000_000):
        self.sim.run(max_events=max_events)
        return self.sim.now

    def consume_all(self, tile, sid, count, times=None):
        """Drive ``count`` sequential stream_loads on a stream."""
        se = self.se_cores[tile]
        done = []

        def consume_next():
            if len(done) >= count:
                return
            se.consume(sid, on_ready)

        def on_ready():
            done.append(self.sim.now)
            if times is not None:
                times.append(self.sim.now)
            consume_next()

        consume_next()
        return done


def dense_spec(sid, base, lines, elem=64):
    return StreamSpec(sid=sid, pattern=AffinePattern(
        base=base, strides=(elem,), lengths=(lines,), elem_size=elem,
    ))


@pytest.fixture
def rig():
    return StreamRig()
