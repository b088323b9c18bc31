"""Regression tests: a full MSHR file stalls/parks requests instead of
crashing the run (ISSUE 4 satellite — every ``MshrFile.allocate`` call
site must be guarded by a full check).

Each test shrinks one level's MSHR file far below the number of
outstanding misses the workload generates, then checks that every
request still completes and the files drain.
"""

from repro.mem.addr import line_addr
from tests.mem.conftest import MiniHierarchy

BASE = 0x10_0000
LINE = 64


def distinct_lines(n, stride_lines=1):
    return [BASE + i * stride_lines * LINE for i in range(n)]


def test_l1_mshr_full_parks_demand_reads():
    hier = MiniHierarchy(l1_mshrs=2)
    results = []
    for addr in distinct_lines(12):
        hier.read(0, addr, results)
    hier.run()
    assert len(results) == 12
    assert len(hier.l1s[0].mshr) == 0
    assert not hier.l1s[0]._overflow


def test_l1_mshr_full_parks_demand_writes():
    hier = MiniHierarchy(l1_mshrs=2)
    results = []
    for addr in distinct_lines(10):
        hier.write(0, addr, results)
    hier.run()
    assert len(results) == 10
    # Every parked store eventually got write permission.
    l1 = hier.l1s[0]
    for addr in distinct_lines(10):
        slot = l1.array.lookup(line_addr(addr))
        if slot is not None:
            assert l1.writable[slot]


def test_l1_parked_request_served_from_array_after_fill():
    # Two requests to the SAME line while the file is full: the second
    # parks in the overflow list and must be served from the array once
    # the first fill lands (not re-missed into a duplicate allocate).
    hier = MiniHierarchy(l1_mshrs=1)
    results = []
    hier.read(0, BASE, results)          # occupies the only MSHR
    hier.read(0, BASE + LINE, results)   # parks (file full)
    hier.read(0, BASE + LINE, results)   # parks behind it, same line
    hier.run()
    assert len(results) == 3
    assert len(hier.l1s[0].mshr) == 0


def test_l2_mshr_full_parks_demand_misses():
    hier = MiniHierarchy(l1_mshrs=8, l2_mshrs=2)
    results = []
    for addr in distinct_lines(12):
        hier.read(0, addr, results)
    hier.run()
    assert len(results) == 12
    assert len(hier.l2s[0].mshr) == 0
    assert not hier.l2s[0]._overflow


def test_l3_mshr_full_queues_requests():
    # All addresses map to bank 0 (64B interleave, 4 banks: stride by
    # 4 lines); four tiles each fire several misses at it while the
    # bank has a single MSHR.
    hier = MiniHierarchy(l3_mshrs=1)
    results = []
    n = 0
    for tile in range(4):
        for k in range(4):
            hier.read(tile, BASE + (tile * 4 + k) * 4 * LINE, results)
            n += 1
    hier.run()
    assert len(results) == n
    assert hier.stats["l3.mshr_full_waits"] > 0
    for bank in hier.banks:
        assert len(bank.mshr) == 0
        assert not bank._waitq


def test_l3_mshr_full_queues_owner_forwards():
    # Forwarding to an M/E owner also allocates an MSHR: make tile 0
    # own several lines of bank 0, then have other tiles read them
    # through the single-entry bank MSHR.
    hier = MiniHierarchy(l3_mshrs=1)
    warm = []
    addrs = [BASE + k * 4 * LINE for k in range(4)]
    for addr in addrs:
        hier.write(0, addr, warm)
    hier.run()
    assert len(warm) == len(addrs)
    results = []
    for tile in (1, 2, 3):
        for addr in addrs:
            hier.read(tile, addr, results)
    hier.run()
    assert len(results) == 3 * len(addrs)
    for bank in hier.banks:
        assert len(bank.mshr) == 0
        assert not bank._waitq
