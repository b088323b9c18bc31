"""Tests for the stream-grain coherence mode (SS V-B).

The paper's alternative to uncached stream data: each SE_L3 tracks
the address ranges its resident streams have fetched (base/bound,
conservatively) and, when another core requests write ownership of a
covered address, invalidates the stream — the requesting core sinks
and re-executes it. Deallocation messages inform visited banks when
a stream ends.
"""

from repro.mem.l1 import L1Request
from repro.system import Chip, make_config
from repro.workloads import build_programs
from tests.streams.conftest import StreamRig, dense_spec

BASE = 0x40_0000


def make_sgc_rig():
    rig = StreamRig()
    for se3 in rig.se_l3s:
        se3.stream_grain_coherence = True
    for se2 in rig.se_l2s:
        se2.stream_grain_coherence = True
    return rig


class TestRangeTracking:
    def test_issued_elements_tracked(self):
        rig = make_sgc_rig()
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.run()
        tracked = [se3.ranges for se3 in rig.se_l3s if se3.ranges]
        assert tracked, "no bank tracked the floated stream's range"
        lo, hi = next(iter(tracked[0].values()))
        assert lo >= BASE and hi <= BASE + 256 * 64

    def test_disabled_mode_tracks_nothing(self):
        rig = StreamRig()  # default: uncached scheme
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.run()
        assert all(not se3.ranges for se3 in rig.se_l3s)


class TestInvalidation:
    def test_conflicting_write_sinks_stream(self):
        rig = make_sgc_rig()
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.run()
        assert rig.se_cores[0].streams[0].floating
        # Another tile writes into the fetched range.
        rig.l1s[1].access(L1Request(addr=BASE + 64, is_write=True))
        rig.run()
        assert rig.stats["se_l3.stream_invalidations"] >= 1
        assert rig.stats["se_l2.stream_invs"] >= 1
        assert not rig.se_cores[0].streams[0].floating
        assert rig.se_cores[0].history.entry(0).aliased

    def test_unrelated_write_leaves_stream_alone(self):
        rig = make_sgc_rig()
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.run()
        rig.l1s[1].access(L1Request(addr=0x900_0000, is_write=True))
        rig.run()
        assert rig.stats["se_l3.stream_invalidations"] == 0
        assert rig.se_cores[0].streams[0].floating

    def test_own_write_does_not_self_invalidate(self):
        rig = make_sgc_rig()
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.run()
        rig.l1s[0].access(L1Request(addr=BASE + 64, is_write=True))
        rig.run()
        assert rig.stats["se_l3.stream_invalidations"] == 0

    def test_stream_completes_after_invalidation(self):
        rig = make_sgc_rig()
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        done = rig.consume_all(0, 0, 256)
        rig.sim.run(until=rig.sim.now + 300)
        rig.l1s[1].access(L1Request(addr=BASE + 128, is_write=True))
        rig.run()
        # The sunk stream finishes through the normal cached path.
        assert len(done) == 256


class TestDeallocation:
    def test_end_clears_ranges_everywhere(self):
        rig = make_sgc_rig()
        rig.se_cores[0].configure([dense_spec(0, BASE, 256)])
        rig.consume_all(0, 0, 256)
        rig.run()
        rig.se_cores[0].end([0])
        rig.run()
        assert all(not se3.ranges for se3 in rig.se_l3s)


class TestFullSystem:
    def test_sf_sgc_config_runs_whole_workload(self):
        chip = Chip(make_config("sf_sgc", core="ooo4", cols=2, rows=2,
                                scale=32))
        programs = build_programs("hotspot", chip.num_cores, scale=32)
        result = chip.run(programs)
        assert result.cycles > 0
        # Floating still happened under the alternative coherence.
        assert result.stats["l3.requests.stream_float"] > 0
