"""Tests for the wormhole network model."""

import dataclasses

import pytest

from repro.noc.message import CTRL, DATA, Packet, data_payload_bits
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats


def make_net(cols=4, rows=4, link_bits=256):
    sim = Simulator()
    stats = Stats()
    net = Network(sim, Mesh(cols, rows), stats, link_bits=link_bits)
    return sim, stats, net


class TestFlits:
    def test_control_is_one_flit(self):
        pkt = Packet(src=0, dst=1, kind=CTRL, payload_bits=0, dst_port="x")
        assert pkt.flits(256) == 1

    def test_cache_line_flits_by_width(self):
        pkt = Packet(
            src=0, dst=1, kind=DATA,
            payload_bits=data_payload_bits(64), dst_port="x",
        )
        assert pkt.flits(128) == 5  # (64 + 512) / 128 = 4.5 -> 5
        assert pkt.flits(256) == 3
        assert pkt.flits(512) == 2

    def test_subline_fewer_flits(self):
        pkt = Packet(
            src=0, dst=1, kind=DATA,
            payload_bits=data_payload_bits(8), dst_port="x",
        )
        assert pkt.flits(256) == 1

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, kind="bogus", payload_bits=0, dst_port="x")


class TestDelivery:
    def test_unicast_latency_and_stats(self):
        sim, stats, net = make_net()
        got = []
        net.register(3, "l3", lambda pkt: got.append((sim.now, pkt)))
        pkt = Packet(src=0, dst=3, kind=CTRL, payload_bits=0, dst_port="l3")
        info = net.send(pkt)
        assert info.hops == 3
        assert info.flits == 1
        sim.run()
        # 3 hops x 6 cycles/hop + (1 flit - 1) serialization = 18.
        assert got[0][0] == 18
        assert stats["noc.packets.ctrl"] == 1
        assert stats["noc.flit_hops.ctrl"] == 3

    def test_local_delivery_zero_hops(self):
        sim, stats, net = make_net()
        got = []
        net.register(5, "l3", lambda pkt: got.append(sim.now))
        pkt = Packet(src=5, dst=5, kind=CTRL, payload_bits=0, dst_port="l3")
        info = net.send(pkt)
        assert info.hops == 0
        sim.run()
        assert got and got[0] >= 1
        assert stats["noc.flit_hops.ctrl"] == 0
        assert stats["noc.flits.ctrl"] == 1

    def test_serialization_adds_latency(self):
        sim, _, net = make_net(link_bits=128)
        got = []
        net.register(1, "l2", lambda pkt: got.append(sim.now))
        pkt = Packet(
            src=0, dst=1, kind=DATA,
            payload_bits=data_payload_bits(64), dst_port="l2",
        )
        assert pkt.flits(128) == 5
        net.send(pkt)
        sim.run()
        # 1 hop x 6 + 4 extra flit cycles = 10.
        assert got[0] == 10

    def test_contention_queues_second_packet(self):
        sim, _, net = make_net()
        arrivals = []
        net.register(1, "l2", lambda pkt: arrivals.append(sim.now))
        big = Packet(
            src=0, dst=1, kind=DATA,
            payload_bits=data_payload_bits(64), dst_port="l2",
        )
        net.send(big)  # occupies link (0,1) for 3 cycles
        net.send(Packet(src=0, dst=1, kind=CTRL, payload_bits=0, dst_port="l2"))
        sim.run()
        first, second = arrivals
        # Second packet departs only after the first's 3 flits.
        assert second >= 3 + 6

    def test_missing_handler_raises(self):
        sim, _, net = make_net()
        with pytest.raises(KeyError):
            net.send(Packet(src=0, dst=1, kind=CTRL, payload_bits=0, dst_port="nope"))

    def test_delivered_packet_keeps_its_body(self):
        # A handler owns what it is handed: the network neither clears
        # nor reuses a packet once it has been delivered.
        sim, _, net = make_net()
        got = []
        net.register(1, "l2", got.append)
        for body in ("a", "b"):
            net.send(Packet(src=0, dst=1, kind=CTRL, payload_bits=0,
                            dst_port="l2", body=body))
            sim.run()
        assert [p.body for p in got] == ["a", "b"]


class TestSharedState:
    def test_routes_share_one_tuple_per_physical_link(self):
        sim, _, net = make_net()
        seen = []
        sim.probes.subscribe("noc_links", lambda links, flits: seen.append(links))
        for dst in (2, 3):
            net.register(dst, "l2", lambda pkt: None)
        net.send(Packet(src=0, dst=2, kind=CTRL, payload_bits=0, dst_port="l2"))
        net.send(Packet(src=1, dst=3, kind=CTRL, payload_bits=0, dst_port="l2"))
        first, second = seen
        # The probe still sees the links by value...
        assert list(first) == [(0, 1), (1, 2)]
        assert list(second) == [(1, 2), (2, 3)]
        # ...and both routes hold the one tuple of link (1, 2).
        assert first[1] is second[0]
        assert net.mesh.route(0, 3)[1] is first[1]

    def test_lanes_share_a_frozen_delivery_info(self):
        _, _, net = make_net()
        for dst in (1, 2):
            net.register(dst, "l2", lambda pkt: None)
        a = net.send(Packet(src=0, dst=1, kind=CTRL, payload_bits=0, dst_port="l2"))
        b = net.send(Packet(src=1, dst=2, kind=CTRL, payload_bits=0, dst_port="l2"))
        assert (a.flits, a.hops, a.flit_hops) == (1, 1, 1)
        assert a is b
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.flits = 2


class TestMulticast:
    def test_shared_prefix_counted_once(self):
        sim, stats, net = make_net()
        got = []
        net.register(3, "se_l2", lambda pkt: got.append((3, sim.now)))
        net.register(7, "se_l2", lambda pkt: got.append((7, sim.now)))
        info = net.multicast(
            src=0, dsts=[3, 7], kind=DATA,
            payload_bits=data_payload_bits(64), dst_port="se_l2",
        )
        sim.run()
        assert len(got) == 2
        # Tree links: 3 shared + 1 branch = 4; unicast would use 7.
        assert info.hops == 4
        assert stats["noc.flit_hops.data"] == 4 * 3
        assert stats["noc.multicast.saved_flit_hops"] == (7 - 4) * 3

    def test_multicast_to_single_dst_matches_unicast_hops(self):
        sim, stats, net = make_net()
        net.register(2, "se_l2", lambda pkt: None)
        info = net.multicast(
            src=0, dsts=[2], kind=CTRL, payload_bits=0, dst_port="se_l2",
        )
        assert info.hops == 2

    def test_empty_multicast_rejected(self):
        _, _, net = make_net()
        with pytest.raises(ValueError):
            net.multicast(src=0, dsts=[], kind=CTRL, payload_bits=0, dst_port="x")
