"""Tests for the bulk prefetch request grouper."""

from repro.mem.coherence import CohMsg
from repro.mem.mshr import MshrEntry
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.prefetch.bulk import BulkGrouper
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats


class BankStub:
    """Records the body of every delivered request."""

    def __init__(self):
        self.received = []

    def handle(self, pkt):
        self.received.append(pkt.body)


def make_env():
    sim = Simulator()
    stats = Stats()
    net = Network(sim, Mesh(2, 2), stats)
    bank = BankStub()
    net.register(1, "l3", bank.handle)
    grouper = BulkGrouper(sim, net, stats, tile=0)
    return sim, stats, net, bank, grouper


def entry_for(addr):
    return MshrEntry(addr=addr, issued_cycle=0)


def test_four_requests_become_one_packet():
    sim, stats, net, bank, grouper = make_env()
    entries = []
    for i in range(4):
        e = entry_for(i * 64)
        entries.append(e)
        grouper.enqueue(1, CohMsg(op="GetS", addr=i * 64, requester=0), e)
    sim.run()
    assert len(bank.received) == 1
    body = bank.received[0]
    assert body.op == "GetSBulk"
    assert len(body.se_info) == 4
    assert stats["l2.bulk_groups"] == 1
    assert stats["noc.packets.ctrl"] == 1
    # Request flit cost split across the group in whole flits: the
    # earliest-queued requests take the remainder.
    shares = [e.meta["req_flits"] for e in entries]
    assert shares == [1, 0, 0, 0]
    assert all(type(share) is int for share in shares)
    assert sum(shares) == stats["noc.flits.ctrl"]


def test_timeout_flushes_partial_group():
    sim, _, _, bank, grouper = make_env()
    grouper.enqueue(1, CohMsg(op="GetS", addr=0, requester=0), entry_for(0))
    grouper.enqueue(1, CohMsg(op="GetS", addr=64, requester=0), entry_for(64))
    sim.run()
    assert len(bank.received) == 1
    assert bank.received[0].op == "GetSBulk"
    assert len(bank.received[0].se_info) == 2


def test_single_request_sent_plain():
    sim, _, _, bank, grouper = make_env()
    grouper.enqueue(1, CohMsg(op="GetS", addr=0, requester=0), entry_for(0))
    sim.run()
    assert bank.received[0].op == "GetS"


def test_groups_separated_by_bank():
    sim, _, net, bank, grouper = make_env()
    other = BankStub()
    net.register(2, "l3", other.handle)
    for i in range(4):
        home = 1 if i % 2 == 0 else 2
        grouper.enqueue(home, CohMsg(op="GetS", addr=i * 64, requester=0),
                        entry_for(i * 64))
    sim.run()
    # Two banks, two timeout-flushed groups of 2.
    assert len(bank.received) == 1
    assert len(other.received) == 1
