"""Context-switch behaviour (SS IV-E): stream floating adds no
architectural state; a switch discards all floating streams and the
program continues correctly through the normal paths."""

from tests.streams.conftest import dense_spec

BASE = 0x40_0000


def test_flush_floating_sinks_all_streams(rig):
    rig.se_cores[0].configure([
        dense_spec(0, BASE, 256),
        dense_spec(1, BASE + 0x10_0000, 256),
    ])
    assert all(s.floating for s in rig.se_cores[0].streams.values())
    rig.se_cores[0].flush_floating()
    assert not any(s.floating for s in rig.se_cores[0].streams.values())
    assert rig.stats["se_core.context_flushes"] == 1


def test_program_completes_after_mid_run_flush(rig):
    rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
    done = rig.consume_all(0, 0, 256)
    rig.sim.run(until=rig.sim.now + 400)  # part-way through
    rig.se_cores[0].flush_floating()
    for se3 in rig.se_l3s:
        se3.flush_floating()
    rig.run()
    assert len(done) == 256  # every element still delivered


def test_flush_is_idempotent(rig):
    rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
    rig.se_cores[0].flush_floating()
    rig.se_cores[0].flush_floating()
    assert not any(s.floating for s in rig.se_cores[0].streams.values())


def test_se_l3_flush_clears_everything(rig):
    rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
    rig.sim.run(until=rig.sim.now + 200)
    for se3 in rig.se_l3s:
        se3.flush_floating()
        assert not se3.streams
        assert not se3.forwarding
        assert not se3.ranges


def test_streams_can_refloat_after_flush(rig):
    se = rig.se_cores[0]
    se.configure([dense_spec(0, BASE, 256)])
    se.flush_floating()
    se.end([0])
    # A new phase floats fresh streams as usual.
    se.configure([dense_spec(0, BASE + 0x20_0000, 256)])
    assert se.streams[0].floating
