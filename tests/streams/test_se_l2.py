"""Unit tests for the L2 stream engine (SE_L2): buffering, credits,
followers, interception, aliasing."""

from repro.obs.telemetry import Telemetry, TelemetryConfig
from tests.streams.conftest import StreamRig, dense_spec

BASE = 0x40_0000


def floated(rig, tile=0, lines=256, sid=0, base=BASE):
    """Configure a stream big enough to float at configure time."""
    rig.se_cores[tile].configure([dense_spec(sid, base, lines)])
    return rig.se_l2s[tile].streams[sid]


class TestFloating:
    def test_float_sends_config_packet(self, rig):
        floated(rig)
        rig.run()
        assert rig.stats["se_l2.floats"] == 1
        assert rig.stats["noc.packets.stream"] >= 1
        assert rig.stats["se_l3.streams_configured"] >= 1

    def test_buffer_capacity_in_elements(self, rig):
        stream = floated(rig)
        # 2048-byte buffer, 64-byte elements, one stream.
        assert stream.capacity == 32

    def test_data_arrives_into_buffer(self, rig):
        stream = floated(rig)
        rig.run()
        assert rig.stats["se_l2.data_arrivals"] > 0
        assert len(stream.ready) > 0

    def test_end_stream_sends_end_packet(self, rig):
        floated(rig)
        rig.run()
        rig.se_cores[0].end([0])
        rig.run()
        assert rig.stats["se_l2.ends"] == 1
        assert rig.stats["se_l3.ends"] + rig.stats["se_l2.end_acks"] >= 1


class TestCredits:
    def test_credits_flow_as_elements_consumed(self, rig):
        floated(rig)
        rig.consume_all(0, 0, 128)
        rig.run()
        assert rig.stats["se_l2.credits_sent"] > 0
        assert rig.stats["se_l3.credits_received"] > 0

    def test_whole_stream_completes_under_flow_control(self, rig):
        floated(rig, lines=200)
        done = rig.consume_all(0, 0, 200)
        rig.run()
        assert len(done) == 200

    def test_credit_batching_is_coarse(self, rig):
        stream = floated(rig)
        rig.consume_all(0, 0, 256)
        rig.run()
        # Credits returned in half-buffer batches: far fewer credit
        # messages than elements.
        assert rig.stats["se_l2.credits_sent"] <= 256 / (stream.capacity // 2)


class TestFollowers:
    def configure_pair(self, rig, delta_lines=4, lines=128):
        """Leader at +delta, follower behind it (same shape). 128
        lines = 8 kB footprint, enough to float past the 4 kB L2."""
        se = rig.se_cores[0]
        leader = dense_spec(0, BASE + delta_lines * 64, lines)
        follower = dense_spec(1, BASE, lines)
        se.configure([leader, follower])
        return se

    def test_follower_registered_not_configured(self, rig):
        self.configure_pair(rig)
        rig.run()
        assert rig.stats["se_l2.followers"] == 1
        # Only the leader went to the SE_L3.
        assert rig.stats["se_l2.floats"] == 1

    def test_follower_elements_served_from_leader(self, rig):
        self.configure_pair(rig, delta_lines=4, lines=128)
        done_leader = rig.consume_all(0, 0, 128)
        done_follower = rig.consume_all(0, 1, 128)
        rig.run()
        assert len(done_leader) == 128
        assert len(done_follower) == 128
        # One float, one fetch of the shared data: arrivals cover the
        # leader's elements once, not twice.
        assert rig.stats["se_l2.floats"] == 1
        assert rig.stats["se_l2.data_arrivals"] <= 140

    def test_follow_verdict_in_provenance(self):
        rig = StreamRig()
        Telemetry(rig.sim, TelemetryConfig(provenance=True))
        self.configure_pair(rig)
        rig.run()
        follows = rig.sim.telemetry.provenance.by_verdict("follow")
        assert [(r.sid, r.reason, r.inputs["leader_sid"], r.inputs["delta"])
                for r in follows] == [(1, "constant_offset", 0, 4)]

    def test_far_offset_does_not_follow(self, rig):
        # Offset beyond half the buffer share: separate float.
        self.configure_pair(rig, delta_lines=64, lines=256)
        rig.run()
        assert rig.stats["se_l2.followers"] == 0
        assert rig.stats["se_l2.floats"] == 2

    def test_release_waits_for_followers(self, rig):
        self.configure_pair(rig, delta_lines=4, lines=128)
        stream = rig.se_l2s[0].streams[0]
        # Leader consumes everything; follower consumes nothing.
        rig.consume_all(0, 0, 64)
        rig.run()
        # Elements cannot free past what the follower still needs.
        assert stream.freed_through <= stream.consumed_leader


class TestInterception:
    def test_unknown_stream_bounces_to_memory(self, rig):
        from repro.mem.l2 import L2Request

        results = []
        req = L2Request(addr=BASE, floating=True, stream_id=9, element=0,
                        on_done=results.append)
        rig.se_l2s[0].intercept(req)
        rig.run()
        assert len(results) == 1  # served via the normal path

    def test_pre_float_elements_bounce(self, rig):
        from repro.mem.l2 import L2Request

        se = rig.se_cores[0]
        se.configure([dense_spec(0, BASE, 64)])
        stream = rig.se_l2s[0].streams.get(0)
        if stream is None:  # did not float (small), force a float
            se._float(se.streams[0])
            stream = rig.se_l2s[0].streams[0]
        stream.start_idx = 10
        results = []
        req = L2Request(addr=BASE, floating=True, stream_id=0, element=3,
                        on_done=results.append)
        rig.se_l2s[0].intercept(req)
        rig.run()
        assert len(results) == 1


class TestAliasing:
    def test_dirty_eviction_sinks_overlapping_stream(self, rig):
        stream = floated(rig)
        rig.run()
        # Pick a buffered element's line and report a dirty eviction.
        elem = next(iter(stream.ready))
        addr = stream.spec.pattern.address(elem)
        rig.se_l2s[0].on_dirty_evict(addr)
        assert rig.stats["se_l2.alias_sinks"] == 1
        assert not rig.se_cores[0].streams[0].floating

    def test_unrelated_dirty_eviction_ignored(self, rig):
        floated(rig)
        rig.run()
        rig.se_l2s[0].on_dirty_evict(0x900_0000)
        assert rig.stats["se_l2.alias_sinks"] == 0
