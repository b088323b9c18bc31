"""A miniature multi-tile memory hierarchy for protocol tests.

Builds a 2x2 mesh with four tiles, each with an L1 + L2, four L3 banks
(one per tile) and DRAM controllers at the corners — enough to
exercise every protocol path without the full chip assembly.
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


class MiniHierarchy:
    def __init__(self, cols=2, rows=2, interleave=64, l2_size=4096,
                 l3_size=16 * 1024, l1_size=1024,
                 l1_mshrs=8, l2_mshrs=16, l3_mshrs=16):
        self.sim = Simulator()
        self.stats = Stats()
        self.mesh = Mesh(cols, rows)
        self.net = Network(self.sim, self.mesh, self.stats)
        self.nuca = NucaMap(self.mesh.num_tiles, interleave)
        self.dram = DramSystem(self.sim, self.net, self.stats)
        self.banks = []
        self.l2s = []
        self.l1s = []
        for tile in range(self.mesh.num_tiles):
            bank = L3Bank(
                self.sim, self.net, self.stats, tile,
                size_bytes=l3_size, ways=4, dram=self.dram,
                replacement="lru", nuca=self.nuca, mshrs=l3_mshrs,
            )
            self.banks.append(bank)
            l2 = L2Cache(
                self.sim, self.net, self.stats, tile,
                size_bytes=l2_size, ways=4, nuca=self.nuca,
                replacement="lru", mshrs=l2_mshrs,
            )
            self.l2s.append(l2)
            self.l1s.append(L1Cache(
                self.sim, self.stats, tile, l2,
                size_bytes=l1_size, ways=2, mshrs=l1_mshrs,
            ))

    def read(self, tile, addr, results=None):
        """Issue a demand read from ``tile``; appends completion time
        to ``results`` (if given) when done."""
        from repro.mem.l1 import L1Request

        def done():
            if results is not None:
                results.append(self.sim.now)

        self.l1s[tile].access(L1Request(addr=addr, on_done=done))

    def write(self, tile, addr, results=None):
        from repro.mem.l1 import L1Request

        def done():
            if results is not None:
                results.append(self.sim.now)

        self.l1s[tile].access(L1Request(addr=addr, is_write=True, on_done=done))

    def run(self):
        self.sim.run(max_events=2_000_000)
        return self.sim.now


@pytest.fixture
def hier():
    return MiniHierarchy()
