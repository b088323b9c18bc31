"""Tests for the DRAM controllers."""

import pytest

from repro.mem.coherence import CohMsg
from repro.mem.dram import DramSystem
from repro.noc.message import CTRL, Packet
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.sim import Simulator, Stats


def make_system(cols=4, rows=4, latency=100, cycles_per_line=40):
    sim = Simulator()
    stats = Stats()
    net = Network(sim, Mesh(cols, rows), stats)
    dram = DramSystem(sim, net, stats, access_latency=latency,
                      cycles_per_line=cycles_per_line)
    return sim, stats, net, dram


def read(sim, net, dram, addr, src=5, replies=None):
    net.send(Packet(
        src=src, dst=dram.controller_tile(addr), kind=CTRL,
        payload_bits=0, dst_port="dram",
        body=CohMsg(op="MemRead", addr=addr, requester=src),
    ))


def test_four_corner_controllers():
    _, _, _, dram = make_system()
    tiles = {c.tile for c in dram.controllers}
    assert tiles == {0, 3, 12, 15}


def test_page_interleaved_mapping():
    _, _, _, dram = make_system()
    # Lines within a page share a controller; consecutive pages rotate.
    assert dram.controller_tile(0x0) == dram.controller_tile(0xFC0)
    pages = {dram.controller_tile(p << 12) for p in range(4)}
    assert len(pages) == 4


def test_read_latency_and_response():
    sim, stats, net, dram = make_system()
    got = []
    # Keep the body: the network recycles a delivered packet's shell.
    net.register(5, "l3", lambda pkt: got.append((sim.now, pkt.body)))
    read(sim, net, dram, 0x0)
    sim.run()
    assert stats["dram.reads"] == 1
    assert len(got) == 1
    when, body = got[0]
    assert body.op == "MemData"
    assert when >= 100  # at least the access latency


def test_bandwidth_serializes_back_to_back_reads():
    sim, stats, net, dram = make_system(latency=100, cycles_per_line=40)
    got = []
    net.register(5, "l3", lambda pkt: got.append(sim.now))
    for i in range(4):
        read(sim, net, dram, i * 64)  # same page -> same controller
    sim.run()
    assert len(got) == 4
    # Responses spaced by the 40-cycle line service time.
    deltas = [b - a for a, b in zip(got, got[1:])]
    assert all(d >= 40 for d in deltas)


def test_different_controllers_run_in_parallel():
    sim, stats, net, dram = make_system()
    got = []
    net.register(5, "l3", lambda pkt: got.append(sim.now))
    for p in range(4):  # four pages -> four controllers
        read(sim, net, dram, p << 12)
    sim.run()
    # All four complete within a controller's single-read window of
    # each other (no serialization across controllers; NoC distances
    # differ per corner).
    assert max(got) - min(got) < 40 + 60


def test_write_absorbed_no_response():
    sim, stats, net, dram = make_system()
    net.register(5, "l3", lambda pkt: (_ for _ in ()).throw(AssertionError))
    net.send(Packet(
        src=5, dst=dram.controller_tile(0), kind=CTRL, payload_bits=512,
        dst_port="dram",
        body=CohMsg(op="MemWrite", addr=0, requester=5),
    ))
    sim.run()
    assert stats["dram.writes"] == 1


def test_unknown_op_rejected():
    sim, stats, net, dram = make_system()
    net.send(Packet(
        src=5, dst=0, kind=CTRL, payload_bits=0, dst_port="dram",
        body=CohMsg(op="GetS", addr=0, requester=5),
    ))
    with pytest.raises(ValueError):
        sim.run()
