"""System-level invariants checked after full workload runs.

These catch protocol-level corruption that individual unit tests
can't see: directory/cache consistency, request/response
conservation, and bit-for-bit determinism of the whole simulator.
"""

import pytest

from repro.mem.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.system import Chip, make_config
from repro.workloads import build_programs

PROFILE = dict(cols=2, rows=2, scale=32)
WORKLOADS = ("nn", "hotspot", "bfs", "conv3d")
CONFIGS = ("base", "bingo", "ss", "sf")


def run_chip(workload, config, seed=0, **overrides):
    kw = dict(PROFILE)
    kw.update(overrides)
    chip = Chip(make_config(config, core="ooo4", **kw))
    programs = build_programs(workload, chip.num_cores,
                              scale=kw["scale"], seed=seed)
    result = chip.run(programs)
    return chip, result


def check_coherence(chip):
    """Directory state must agree with the private caches."""
    owners = {}
    sharers = {}
    for tile in chip.tiles:
        for line in tile.l2.array.all_lines():
            if line.state in (MODIFIED, EXCLUSIVE):
                assert line.addr not in owners, (
                    f"two owners for {line.addr:#x}"
                )
                owners[line.addr] = tile.tile_id
            elif line.state == SHARED:
                sharers.setdefault(line.addr, set()).add(tile.tile_id)
    # A line with an owner has no other sharers.
    for addr, owner in owners.items():
        others = sharers.get(addr, set()) - {owner}
        assert not others, (
            f"line {addr:#x} owned by {owner} but shared by {others}"
        )
    # L1 contents are included in the colocated L2.
    for tile in chip.tiles:
        for line in tile.l1.array.all_lines():
            assert tile.l2.array.contains(line.addr), (
                f"L1 line {line.addr:#x} missing from L2 (tile "
                f"{tile.tile_id})"
            )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config", CONFIGS)
def test_coherence_invariants(workload, config):
    chip, result = run_chip(workload, config)
    assert result.cycles > 0
    check_coherence(chip)


@pytest.mark.parametrize("config", ("base", "sf"))
def test_no_leaked_transactions(config):
    chip, _ = run_chip("hotspot", config)
    for tile in chip.tiles:
        assert len(tile.l1.mshr) == 0, "L1 MSHR leaked"
        assert len(tile.l2.mshr) == 0, "L2 MSHR leaked"
        assert len(tile.l3.mshr) == 0, "L3 MSHR leaked"
        assert not tile.l3._waitq, "L3 wait queue leaked"
        assert not tile.l1._overflow and not tile.l2._overflow


def test_sf_leaves_no_dangling_streams():
    chip, _ = run_chip("conv3d", "sf")
    for tile in chip.tiles:
        assert not tile.se_l3.streams, "SE_L3 stream leaked"
        assert not tile.se_core.streams, "SE_core stream leaked"
        # SE_L2 state may keep a terminated entry only if it was
        # never floated; floated streams must be gone.
        for sid, stream in tile.se_l2.streams.items():
            assert not stream.waiters, "SE_L2 waiter leaked"


@pytest.mark.parametrize("config", ("base", "ss", "sf"))
def test_determinism(config):
    _, first = run_chip("bfs", config)
    _, second = run_chip("bfs", config)
    assert first.cycles == second.cycles
    assert first.stats.to_dict() == second.stats.to_dict()


def test_request_response_conservation():
    """Every DRAM read is caused by an L3 miss, every L3 miss by a
    demand/prefetch/stream fetch."""
    chip, result = run_chip("nn", "base")
    s = result.stats
    assert s["dram.reads"] == s["l3.misses"]
    assert s["l1.misses"] >= s["l2.misses"] - s["l2.prefetch_issued"]


def test_cycles_monotone_with_load():
    """More work takes longer on the same system."""
    _, small = run_chip("nn", "base", scale=64)
    _, large = run_chip("nn", "base", scale=32)
    assert large.cycles > small.cycles


def test_stats_all_finite_nonnegative():
    _, result = run_chip("cfd", "sf") if False else run_chip("bfs", "sf")
    for name, value in result.stats.items():
        assert value >= 0, name
        assert value == value, name  # NaN guard
