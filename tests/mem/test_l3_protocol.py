"""L3 bank protocol edge cases over the mini hierarchy."""

import pytest

from repro.mem.coherence import CohMsg
from repro.noc.message import CTRL, Packet
from tests.mem.conftest import MiniHierarchy


@pytest.fixture
def hier():
    return MiniHierarchy()


class TestFwdMiss:
    def test_stale_owner_recovers_via_fwdmiss(self, hier):
        # Make tile 1 owner, then evict the line from its L2 so the
        # directory's owner entry goes stale, then read from tile 2.
        hier.write(1, 0x0)
        hier.run()
        hier.l2s[1].array.invalidate(0x0)  # silently lose the line
        hier.l1s[1].invalidate(0x0)
        hier.read(2, 0x0)
        hier.run()
        assert hier.stats["l3.fwd_misses"] >= 1
        assert hier.l2s[2].array.contains(0x0)

    def test_queued_requests_replay_after_fwdmiss(self, hier):
        hier.write(1, 0x0)
        hier.run()
        hier.l2s[1].array.invalidate(0x0)
        hier.l1s[1].invalidate(0x0)
        results = []
        hier.read(2, 0x0, results)
        hier.read(3, 0x0, results)
        hier.run()
        assert len(results) == 2


class TestBackInvalidation:
    def fill_bank_set(self, hier, tile=0):
        """Evict an L3 line that tile 0 shares (tiny 16kB 4-way bank:
        64 sets after bank-local indexing)."""
        hier.read(tile, 0x0)
        hier.run()
        # Lines mapping to the same bank (4 banks, 64B interleave) and
        # same bank-local set: stride = 4 banks * 64 sets * 64B.
        stride = 4 * (16 * 1024 // (4 * 64)) * 64
        for i in range(1, 6):
            hier.read(tile, i * stride)
            hier.run()

    def test_llc_eviction_back_invalidates_sharers(self, hier):
        self.fill_bank_set(hier)
        assert hier.stats["l3.back_invalidations"] >= 1
        assert hier.stats["l3.evictions"] >= 1

    def test_dirty_llc_victim_written_to_dram(self, hier):
        hier.write(0, 0x0)
        hier.run()
        hier.read(1, 0x0)  # downgrade: bank copy becomes dirty
        hier.run()
        self.fill_bank_set(hier, tile=2)
        if hier.stats["l3.evictions"] >= 1 and not hier.banks[0].array.contains(0x0):
            assert hier.stats["dram.writes"] >= 1


class TestBulkAtBank:
    def test_bulk_unpacks_to_individual_requests(self, hier):
        # Absorb the data responses (raw protocol injection, no L2
        # transaction state behind it).
        hier.net._handlers[(1, "l2")] = lambda pkt: None
        msgs = [
            CohMsg(op="GetS", addr=i * 64 * 4, requester=1)  # bank 0 lines
            for i in range(0, 16, 4)
        ]
        bulk = CohMsg(op="GetSBulk", addr=msgs[0].addr, requester=1,
                      se_info=msgs)
        hier.net.send(Packet(
            src=1, dst=0, kind=CTRL, payload_bits=192, dst_port="l3",
            body=bulk,
        ))
        hier.run()
        assert hier.stats["l3.requests.gets"] == len(msgs)
        assert hier.stats["l3.misses"] == len(msgs)


class TestWaitQueue:
    def test_mshr_pressure_parks_and_drains(self, hier):
        # Inject more concurrent distinct-line reads at one bank than
        # it has MSHRs (raw injection bypasses the L1/L2 throttles).
        hier.net._handlers[(1, "l2")] = lambda pkt: None
        mshrs = hier.banks[0].mshr.capacity
        n = mshrs * 3
        for i in range(n):
            hier.net.send(Packet(
                src=1, dst=0, kind=CTRL, payload_bits=0, dst_port="l3",
                body=CohMsg(op="GetS", addr=i * 4 * 64, requester=1),
            ))
        hier.run()
        assert hier.stats["l3.mshr_full_waits"] > 0
        assert hier.stats["l3.misses"] == n
        assert not hier.banks[0]._waitq
        assert len(hier.banks[0].mshr) == 0


class TestGetUMisc:
    def test_remote_getu_without_se_answers_directly(self, hier):
        got = []
        # Keep the body: the network recycles a delivered packet's shell.
        hier.net.register(2, "se_l2", lambda pkt: got.append(pkt.body))
        hier.net.send(Packet(
            src=2, dst=0, kind=CTRL, payload_bits=0, dst_port="l3",
            body=CohMsg(op="GetU", addr=0x0, requester=2, data_bytes=8),
        ))
        hier.run()
        assert len(got) == 1
        assert got[0].op == "DataU"
        assert got[0].data_bytes == 8

    def test_getu_after_llc_hit_no_dram(self, hier):
        hier.read(3, 0x0)
        hier.read(1, 0x0)  # bank now holds the line (downgrade)
        hier.run()
        before = hier.stats["dram.reads"]
        got = []
        hier.net.register(2, "se_l2", lambda pkt: got.append(pkt))
        hier.net.send(Packet(
            src=2, dst=0, kind=CTRL, payload_bits=0, dst_port="l3",
            body=CohMsg(op="GetU", addr=0x0, requester=2),
        ))
        hier.run()
        assert got
        assert hier.stats["dram.reads"] == before
