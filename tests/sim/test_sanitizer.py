"""Tests for the runtime invariant sanitizer (ISSUE 4 tentpole).

The autouse fixture in the root ``conftest.py`` sets
``REPRO_SANITIZE=1`` for every test, so most of the suite exercises
the checkers implicitly; these tests pin the enablement matrix, the
``SanitizerError`` structure, violation detection, and the S5
determinism trace (including across ``--jobs`` worker fan-out).
"""

import os

import pytest

from repro.harness.parallel import run_points
from repro.harness.runner import clear_cache, run_once
from repro.sim import Simulator
from repro.sim.sanitizer import ENV_SANITIZE, SanitizerError, enabled_by_env
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
def test_disabled_without_env():
    assert not enabled_by_env()
    sim = Simulator()
    assert sim.sanitizer is None
    # Zero-cost off: nothing hashes the kernel's dispatches...
    assert sim.probes.dispatch is None
    # ...and no component probe has a subscriber.
    hier = MiniHierarchy()
    assert hier.sim.probes.noc_send is None
    assert hier.sim.probes.l3_processed is None


@pytest.mark.no_sanitize
@pytest.mark.parametrize("value", ["", "0", "off", "False", "no"])
def test_off_values(monkeypatch, value):
    monkeypatch.setenv(ENV_SANITIZE, value)
    assert not enabled_by_env()


def test_enabled_by_fixture():
    # The tier-1 autouse fixture turns the sanitizer on.
    assert enabled_by_env()
    sim = Simulator()
    assert sim.sanitizer is not None
    assert sim.probes.dispatch is not None


def test_sanitized_chip_runs_the_pooled_path():
    # The checkers see the configuration every benchmark runs: the
    # sanitizer leaves packet pooling on, so delivered shells recycle.
    from repro.system import Chip, make_config
    from repro.workloads.base import build_programs

    chip = Chip(make_config("sf", core="ooo8", cols=2, rows=2, scale=64))
    chip.run(build_programs("mv", chip.num_cores, scale=64, seed=0))
    assert chip.sim.sanitizer is not None
    assert chip.net._pkt_free


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


def test_rogue_l2_line_fails_directory_check():
    from repro.mem.cache import MODIFIED

    hier = clean_hierarchy()
    # Forge an L2 line the home directory knows nothing about.
    hier.l2s[3].array.fill(0x77_0000, MODIFIED, now=hier.sim.now)
    with pytest.raises(SanitizerError) as exc:
        hier.sim.sanitizer.final_check()
    assert exc.value.check == "S1"
    assert exc.value.tile == 3


def test_second_writer_detected_at_delivery():
    from repro.mem.cache import MODIFIED

    hier = clean_hierarchy()
    results = []
    hier.write(1, BASE + 0x8000, results)
    hier.run()
    base = BASE + 0x8000
    assert hier.l2s[1].array.lookup(base, touch=False).state == MODIFIED
    # A second M copy appears out of thin air: the next coherence
    # delivery touching that line must trip S1.
    hier.l2s[2].array.fill(base, MODIFIED, now=hier.sim.now)
    hier.read(3, base, results)
    with pytest.raises(SanitizerError) as exc:
        hier.run()
    assert exc.value.check == "S1"
    assert "multiple M/E owners" in str(exc.value)


# ----------------------------------------------------------------------
# S5: determinism trace
# ----------------------------------------------------------------------
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
    record = run_once("nn", "sf", cols=2, rows=2, scale=64,
                      use_cache=False)
    assert record.stats["sanitizer.violations"] == 0
    assert record.stats["sanitizer.trace_events"] > 0
    assert record.stats["sanitizer.trace_hash"] != 0


def test_trace_hash_identical_across_jobs():
    # The S5 check proper: the same simulation points produce the
    # same (cycle, event-name) trace whether simulated serially or in
    # forked worker processes.
    points = [
        dict(workload="nn", config="base", cols=2, rows=2, scale=64),
        dict(workload="nn", config="sf", cols=2, rows=2, scale=64),
    ]
    serial = run_points(points, jobs=1, use_cache=False)
    clear_cache()
    fanned = run_points(points, jobs=2, use_cache=False)
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
def test_cli_sanitize_flag_sets_and_restores_env(capsys):
    from repro.harness.__main__ import main

    assert os.environ.get(ENV_SANITIZE) is None
    clear_cache()
    rc = main([
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--no-cache", "--sanitize",
    ])
    clear_cache()
    assert rc == 0
    assert "Figure 2" in capsys.readouterr().out
    # main() restored the environment on the way out.
    assert os.environ.get(ENV_SANITIZE) is None
