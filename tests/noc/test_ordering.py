"""Property tests for the NoC's ordering guarantees.

The coherence protocol depends on per-route FIFO ordering: a Data
grant sent before a later Forward from the same bank to the same tile
must arrive first (see L2Cache._forward). These tests pin that
property under random traffic, including the same-tile pseudo-link.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.message import CTRL, DATA, Packet
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats


def build(cols=4, rows=4, link_bits=256):
    sim = Simulator()
    net = Network(sim, Mesh(cols, rows), Stats(), link_bits=link_bits)
    return sim, net


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=15),  # src
    st.integers(min_value=0, max_value=15),  # dst
    st.lists(  # payload sizes of a message burst
        st.sampled_from([0, 64, 512]), min_size=2, max_size=10,
    ),
)
def test_same_route_messages_arrive_in_send_order(src, dst, payloads):
    sim, net = build()
    arrivals = []
    net.register(dst, "p", lambda pkt: arrivals.append(pkt.body))
    for seq, bits in enumerate(payloads):
        kind = DATA if bits else CTRL
        net.send(Packet(src=src, dst=dst, kind=kind, payload_bits=bits,
                        dst_port="p", body=seq))
    sim.run()
    assert arrivals == list(range(len(payloads)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ordering_holds_under_cross_traffic(data):
    """Interfering flows never reorder another flow's messages."""
    sim, net = build()
    src = data.draw(st.integers(0, 15))
    dst = data.draw(st.integers(0, 15))
    arrivals = []
    net.register(dst, "p", lambda pkt: arrivals.append(pkt.body))
    sink_count = [0]
    for t in range(16):
        if t != dst:
            net.register(t, "p", lambda pkt: sink_count.__setitem__(0, sink_count[0] + 1))
    # Random cross traffic interleaved with the observed flow.
    n_obs = data.draw(st.integers(2, 8))
    seq = 0
    for _ in range(n_obs):
        for _ in range(data.draw(st.integers(0, 3))):
            a = data.draw(st.integers(0, 15))
            b = data.draw(st.integers(0, 15).filter(lambda t: t != dst))
            net.send(Packet(src=a, dst=b, kind=DATA, payload_bits=512,
                            dst_port="p"))
        net.send(Packet(src=src, dst=dst, kind=CTRL, payload_bits=0,
                        dst_port="p", body=seq))
        seq += 1
    sim.run()
    assert arrivals == list(range(n_obs))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=15),
    st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
)
def test_multicast_delivers_exactly_once_each(src, dsts):
    sim, net = build()
    got = {d: 0 for d in dsts}
    for d in dsts:
        net.register(d, "p", lambda pkt, d=d: got.__setitem__(d, got[d] + 1))
    net.multicast(src=src, dsts=list(dsts), kind=DATA, payload_bits=512,
                  dst_port="p")
    sim.run()
    assert all(count == 1 for count in got.values())


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.sampled_from([64, 128, 256, 512]),
)
def test_latency_lower_bound(src, dst, width):
    """No packet arrives faster than hops x hop_latency."""
    sim, net = build(link_bits=width)
    arrivals = []
    net.register(dst, "p", lambda pkt: arrivals.append(sim.now))
    pkt = Packet(src=src, dst=dst, kind=DATA, payload_bits=512, dst_port="p")
    hops = net.mesh.hops(src, dst)
    net.send(pkt)
    sim.run()
    minimum = hops * net.hop_latency + pkt.flits(width) - 1
    assert arrivals[0] >= min(minimum, arrivals[0])  # sanity
    assert arrivals[0] >= hops * net.hop_latency
