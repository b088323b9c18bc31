"""Tests for the runtime invariant sanitizer (ISSUE 4 tentpole).

The autouse fixture in the root ``conftest.py`` attaches a sanitizer
to every simulator a test builds, so most of the suite exercises the
checkers implicitly; these tests pin the enablement matrix, the
``SanitizerError`` structure, violation detection, and the S5
determinism trace (including across ``--jobs`` worker fan-out).
"""

import json
import zlib

import pytest

from repro.harness.runner import (
    COUNTERS,
    Point,
    clear_cache,
    configure_disk_cache,
    run_once,
    run_points,
    simulate,
)
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import S5Trace, SanitizerError
from tests.mem.conftest import MiniHierarchy

BASE = 0x20_0000


def clean_hierarchy():
    hier = MiniHierarchy()
    results = []
    for tile in range(4):
        for k in range(6):
            hier.read(tile, BASE + (tile * 6 + k) * 64, results)
    hier.write(0, BASE, results)
    hier.run()
    assert len(results) == 25
    return hier


# ----------------------------------------------------------------------
# enablement matrix
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_disabled_by_default():
    sim = Simulator()
    assert sim.sanitizer is None
    # Zero-cost off: nothing hashes the kernel's dispatches...
    assert sim.probes.dispatch is None
    # ...and no component probe has a subscriber.
    hier = MiniHierarchy()
    assert hier.sim.probes.noc_send is None
    assert hier.sim.probes.l3_processed is None


def test_enabled_by_fixture():
    # The tier-1 autouse fixture turns the sanitizer on.
    sim = Simulator()
    assert sim.sanitizer is not None
    assert sim.probes.dispatch is not None


def test_s5_hashes_every_kernel_dispatch():
    # The checkers see the configuration every benchmark runs, and S5
    # hashes each event the kernel dispatches: every logical event but
    # those a NoC batch or a coalesced stream fetch runs inside one.
    from repro.system import Chip, make_config
    from repro.workloads.base import build_programs

    chip = Chip(make_config("sf", core="ooo8", cols=2, rows=2, scale=64))
    chip.run(build_programs("mv", chip.num_cores, scale=64, seed=0))
    san = chip.sim.sanitizer
    assert san is not None
    assert chip.sim.events_inlined > 0
    assert san.trace_events == (chip.sim.events_executed
                                - chip.sim.events_inlined)


def test_clean_run_passes_final_check():
    hier = clean_hierarchy()
    san = hier.sim.sanitizer
    san.final_check()
    assert san.violations == 0
    assert san.trace_events > 0
    assert san.trace_hash != 0


# ----------------------------------------------------------------------
# violation reporting
# ----------------------------------------------------------------------
def test_leaked_mshr_raises_structured_error():
    hier = clean_hierarchy()
    hier.l1s[0].mshr.allocate(0x9000, now=hier.sim.now)
    with pytest.raises(SanitizerError) as exc:
        hier.sim.sanitizer.final_check()
    err = exc.value
    assert err.check == "S2"
    assert err.cycle == hier.sim.now
    assert err.tile == 0
    assert err.obj == [0x9000]
    assert str(err).startswith(f"[S2] cycle {hier.sim.now} tile 0:")
    assert hier.sim.sanitizer.violations == 1


def forge_l2_line(l2, base, state):
    """Install ``base`` in ``l2`` in MESI ``state`` behind the
    protocol's back."""
    from repro.mem.l2 import STATES

    slot, _, _ = l2.array.fill(base)
    l2.state[slot] = STATES.index(state)


def test_rogue_l2_line_fails_directory_check():
    from repro.mem.cache import MODIFIED

    hier = clean_hierarchy()
    # Forge an L2 line the home directory knows nothing about.
    forge_l2_line(hier.l2s[3], 0x77_0000, MODIFIED)
    with pytest.raises(SanitizerError) as exc:
        hier.sim.sanitizer.final_check()
    assert exc.value.check == "S1"
    assert exc.value.tile == 3
    assert "L2 holds 0x770000 (state 'M') unknown to its home directory" \
        in str(exc.value)


def test_untracked_delivery_detected():
    from repro.noc.message import CTRL, Packet

    hier = clean_hierarchy()
    # A packet reaches an endpoint without ever having been sent.
    pkt = Packet(src=0, dst=2, kind=CTRL, payload_bits=0, dst_port="l2")
    with pytest.raises(SanitizerError) as exc:
        hier.sim.probes.noc_deliver(hier.l2s[2].handle, pkt)
    assert exc.value.check == "S3"
    assert exc.value.tile == 2
    assert exc.value.obj is pkt
    assert "never tracked as injected" in str(exc.value)


def test_second_writer_detected_at_delivery():
    from repro.mem.cache import MODIFIED

    hier = clean_hierarchy()
    results = []
    hier.write(1, BASE + 0x8000, results)
    hier.run()
    base = BASE + 0x8000
    assert hier.l2s[1].state_of(base) == MODIFIED
    # A second M copy appears out of thin air: the next coherence
    # delivery touching that line must trip S1.
    forge_l2_line(hier.l2s[2], base, MODIFIED)
    hier.read(3, base, results)
    with pytest.raises(SanitizerError) as exc:
        hier.run()
    assert exc.value.check == "S1"
    assert "multiple M/E owners" in str(exc.value)


def test_stale_writable_hint_detected():
    from repro.mem.cache import SHARED

    hier = MiniHierarchy()
    base = BASE + 0x4000
    hier.read(0, base)
    hier.read(1, base)
    hier.run()
    assert hier.l2s[0].state_of(base) == SHARED
    # Tile 0's L1 claims a write permission its L2 lost: the next
    # coherence step touching the line must trip S1.
    l1 = hier.l1s[0]
    l1.writable[l1.array.lookup(base, touch=False)] = 1
    hier.read(2, base)
    with pytest.raises(SanitizerError) as exc:
        hier.run()
    assert exc.value.check == "S1"
    assert exc.value.tile == 0
    assert f"L1 writable hint for {base:#x} without L2 write permission " \
        "(L2 state 'S')" in str(exc.value)


# ----------------------------------------------------------------------
# S5: determinism trace
# ----------------------------------------------------------------------
def test_s5_hashes_each_callable_under_its_own_qualname():
    from repro.mem.l3 import L3Bank

    trace = S5Trace()
    assert trace.update(317, L3Bank._process) == "L3Bank._process"
    assert trace.crc == zlib.crc32(b"%d|L3Bank._process" % 317)
    assert trace.events == 1


def test_trace_hash_reproducible_across_runs():
    a = clean_hierarchy().sim.sanitizer
    b = clean_hierarchy().sim.sanitizer
    assert a.trace_events == b.trace_events
    assert a.trace_hash == b.trace_hash


def test_trace_hash_tracks_the_workload():
    a = clean_hierarchy().sim.sanitizer
    hier = MiniHierarchy()
    results = []
    hier.read(0, BASE, results)
    hier.run()
    b = hier.sim.sanitizer
    assert a.trace_events != b.trace_events


def test_chip_reports_trace_hash_stat():
    record, _ = simulate(Point("nn", "sf", cols=2, rows=2, scale=64))
    assert record.stats["sanitizer.violations"] == 0
    assert record.stats["sanitizer.trace_events"] > 0
    assert record.stats["sanitizer.trace_hash"] != 0


def test_trace_hash_identical_across_jobs():
    # The S5 check proper: the same simulation points produce the
    # same (cycle, event-name) trace whether simulated serially or in
    # worker processes. The points ask for the sanitizer themselves,
    # so workers attach it whatever start method the pool uses.
    points = [
        Point("nn", "base", cols=2, rows=2, scale=64, sanitize=True),
        Point("nn", "sf", cols=2, rows=2, scale=64, sanitize=True),
    ]
    clear_cache()
    serial = run_points(points, jobs=1)
    clear_cache()
    fanned = run_points(points, jobs=2)
    clear_cache()
    assert serial.keys() == fanned.keys()
    for key in serial:
        assert serial[key].stats["sanitizer.trace_events"] > 0
        assert (serial[key].stats["sanitizer.trace_hash"]
                == fanned[key].stats["sanitizer.trace_hash"])
        assert (serial[key].stats["sanitizer.trace_events"]
                == fanned[key].stats["sanitizer.trace_events"])


# ----------------------------------------------------------------------
# harness flag
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_cli_sanitize_flag_checks_every_point(tmp_path, capsys):
    """--sanitize is part of each point's parameters: on a cache that
    a plain run warmed it still simulates, and its checked record
    never reaches a plain run."""
    from repro.harness.__main__ import main

    cache = tmp_path / "cache"
    args = [
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--cache-dir", str(cache),
    ]
    clear_cache()
    assert main(args) == 0
    assert "0 disk hits, 1 simulated" in capsys.readouterr().out

    clear_cache()
    assert main(args + ["--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "0 disk hits, 1 simulated" in out
    records = [json.loads(path.read_text())["record"]
               for path in cache.glob("*.json")]
    checked = [r for r in records if r["sanitize"]]
    assert len(checked) == 1
    assert checked[0]["stats"]["sanitizer.trace_events"] > 0
    assert checked[0]["stats"]["sanitizer.violations"] == 0

    # A plain rerun is served the plain record, with no sanitizer stats.
    clear_cache()
    configure_disk_cache(str(cache))
    try:
        record = run_once("nn", "base", cols=2, rows=2, scale=64)
    finally:
        configure_disk_cache(None)
    assert COUNTERS.disk_hits == 1
    assert record.point.sanitize is False
    assert not [k for k in record.stats.to_dict()
                if k.startswith("sanitizer.")]
    clear_cache()
