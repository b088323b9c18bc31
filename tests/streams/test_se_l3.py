"""Unit tests for the L3 stream engine (SE_L3): issue, migration,
confluence, indirect chaining, credit forwarding."""

from repro.streams.isa import StreamSpec
from repro.streams.messages import Credit, EndStream, FloatConfig
from repro.streams.pattern import AffinePattern
from repro.noc.message import STREAM, Packet
from tests.streams.conftest import StreamRig, dense_spec

BASE = 0x40_0000


def float_manual(rig, tile, spec, start_idx=0, credits=16, bank=None):
    """Inject a FloatConfig directly at a bank's SE_L3."""
    if bank is None:
        bank = rig.nuca.bank_of(spec.pattern.address(start_idx))
    body = FloatConfig(spec=spec, children=[], start_idx=start_idx,
                       credits=credits, requester=tile)
    rig.net.send(Packet(
        src=tile, dst=bank, kind=STREAM, payload_bits=body.bits(),
        dst_port="se_l3", body=body,
    ))
    return bank


class TestIssue:
    def test_configured_stream_issues_reads(self, rig):
        # Need an SE_L2 stream to receive; register manually.
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.run()
        assert rig.stats["se_l3.elements_issued"] > 0
        assert rig.stats["l3.requests.stream_float"] > 0

    def test_known_length_completes_silently(self, rig):
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.consume_all(0, 0, 256)
        rig.run()
        assert rig.stats["se_l3.completed"] >= 1
        # No end packets were needed.
        assert rig.stats["se_l3.ends"] == 0
        for se3 in rig.se_l3s:
            assert not se3.streams

    def test_credit_exhaustion_stalls_issue(self, rig):
        spec = dense_spec(0, BASE, 256)
        float_manual(rig, tile=0, spec=spec, credits=3)
        rig.run()
        # Exactly the granted elements were issued.
        assert rig.stats["se_l3.elements_issued"] == 3


class TestMigration:
    def test_stream_migrates_across_chunk_boundary(self, rig):
        # 256B interleave = 4 lines per bank chunk; 256 lines cross
        # many boundaries.
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.consume_all(0, 0, 256)
        rig.run()
        assert rig.stats["se_l3.migrations_out"] > 0
        assert rig.stats["se_l3.migrations_in"] == \
            rig.stats["se_l3.migrations_out"]

    def test_migration_carries_credits(self, rig):
        spec = dense_spec(0, BASE, 8)
        float_manual(rig, tile=0, spec=spec, credits=8)
        rig.run()
        # 8 lines over 4-line chunks: one migration, all 8 issued.
        assert rig.stats["se_l3.elements_issued"] == 8

    def test_late_credit_forwarded_or_held(self, rig):
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.consume_all(0, 0, 256)
        rig.run()
        # All credits eventually reached the stream: it finished.
        assert rig.stats["se_l3.completed"] >= 1
        # No bank kept stale pending credits forever.
        for se3 in rig.se_l3s:
            assert not se3.pending_credits


class TestConfluence:
    # Confluence needs streams to coexist at a bank: use the paper's
    # 1 kB SF interleave (16-line chunks) so laggards catch leaders.
    def make_rig(self):
        return StreamRig(interleave=1024)

    def configure_shared(self, rig, tiles=(0, 1), lines=128):
        spec_pattern = AffinePattern(base=BASE, strides=(64,),
                                     lengths=(lines,), elem_size=64)
        for tile in tiles:
            rig.se_cores[tile].configure([
                StreamSpec(sid=0, pattern=spec_pattern)
            ])

    def test_same_pattern_same_block_merges(self):
        rig = self.make_rig()
        # Tiles 0 and 1 sit in the same 2x2 block of the 2x2 mesh.
        self.configure_shared(rig, tiles=(0, 1))
        rig.consume_all(0, 0, 128)
        rig.consume_all(1, 0, 128)
        rig.run()
        assert rig.stats["se_l3.confluences"] >= 1
        assert rig.stats["se_l3.multicasts"] > 0
        assert rig.stats["l3.requests_by_source.float_conf"] > 0

    def test_multicast_saves_flit_hops(self):
        rig = self.make_rig()
        self.configure_shared(rig, tiles=(0, 1, 2, 3))
        for t in range(4):
            rig.consume_all(t, 0, 128)
        rig.run()
        assert rig.stats["noc.multicast.saved_flit_hops"] > 0

    def test_different_patterns_do_not_merge(self, rig):
        rig.se_cores[0].configure([dense_spec(0, BASE, 128)])
        rig.se_cores[1].configure([dense_spec(0, BASE + 0x10_0000, 128)])
        rig.consume_all(0, 0, 128)
        rig.consume_all(1, 0, 128)
        rig.run()
        assert rig.stats["se_l3.confluences"] == 0

    def test_confluence_disabled(self):
        rig = StreamRig()
        for se3 in rig.se_l3s:
            se3.confluence_enabled = False
        self.configure_shared(rig, tiles=(0, 1))
        rig.consume_all(0, 0, 128)
        rig.consume_all(1, 0, 128)
        rig.run()
        assert rig.stats["se_l3.confluences"] == 0

    def test_same_requester_never_joins_group_twice(self):
        # Two same-shape streams from ONE tile (sids 0 and 1) plus a
        # matching stream from a neighbour: the neighbour's group must
        # hold at most one member per requester tile, or the confluence
        # multicast would carry duplicate destinations (sanitizer S4).
        rig = self.make_rig()
        pattern = AffinePattern(base=BASE, strides=(64,), lengths=(128,),
                                elem_size=64)
        rig.se_cores[0].configure([
            StreamSpec(sid=0, pattern=pattern),
            StreamSpec(sid=1, pattern=pattern),
        ])
        rig.se_cores[1].configure([StreamSpec(sid=0, pattern=pattern)])
        rig.consume_all(0, 0, 128)
        rig.consume_all(0, 1, 128)
        rig.consume_all(1, 0, 128)
        rig.run()
        for se3 in rig.se_l3s:
            for group in se3.groups:
                requesters = [m.requester for m in group.members]
                assert len(requesters) == len(set(requesters))

    def test_group_capped_at_four(self):
        # 4x4 mesh so one 2x2 block holds 4 requesters; a 5th from
        # another block must not join.
        rig = StreamRig(cols=4, rows=4)
        pattern = AffinePattern(base=BASE, strides=(64,), lengths=(128,),
                                elem_size=64)
        # Tiles 0, 1, 4, 5 share block (0,0); tile 2 is in block (1,0).
        for tile in (0, 1, 4, 5, 2):
            rig.se_cores[tile].configure([StreamSpec(sid=0, pattern=pattern)])
        rig.run()
        for se3 in rig.se_l3s:
            for group in se3.groups:
                assert len(group.members) <= 4
                blocks = {
                    rig.mesh.block_of(m.requester) for m in group.members
                }
                assert len(blocks) == 1


class TestEndAndFlush:
    def test_end_for_unknown_stream_acks(self, rig):
        body = EndStream(requester=0, sid=7)
        rig.net.send(Packet(
            src=0, dst=1, kind=STREAM, payload_bits=body.bits(),
            dst_port="se_l3", body=body,
        ))
        rig.run()
        assert rig.stats["se_l2.end_acks"] == 1

    def test_credit_trailing_its_end_is_dropped(self, rig):
        """A credit forwarded along a longer path than its stream's
        EndStream can reach a bank after the end reclaimed the
        forwarding entry there: it is stale, not parked until drain
        (found by the smart-policy protocol fuzz)."""
        for body in (EndStream(requester=0, sid=7, epoch=1),
                     Credit(requester=0, sid=7, count=16, epoch=1)):
            rig.net.send(Packet(
                src=0, dst=1, kind=STREAM, payload_bits=body.bits(),
                dst_port="se_l3", body=body,
            ))
            rig.run()
        assert not rig.se_l3s[1].pending_credits
        assert rig.stats["se_l3.stale_credits"] == 1

    def test_flush_floating_discards_all(self, rig):
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.sim.run(until=rig.sim.now + 200)
        total = sum(len(se3.streams) for se3 in rig.se_l3s)
        assert total >= 1
        for se3 in rig.se_l3s:
            se3.flush_floating()
        assert all(not se3.streams for se3 in rig.se_l3s)
