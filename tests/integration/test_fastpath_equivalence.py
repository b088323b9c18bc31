"""Fast-path equivalence suite: the shipping kernel vs the unfused oracle.

The handler fast paths (DESIGN.md §12) fuse uncontended event chains
into synchronous calls, intern hot counters, and cache NoC lanes — all
on the promise that *only* the Python-call count changes, never the
model. This suite holds them to it: for every tier-1 workload point, a
run with ``repro.system.chip.Simulator`` swapped for
:class:`~tests.sim.unfused_oracle.UnfusedOracle` (every callback
through the event queue) and a run on the shipping
:class:`~repro.sim.kernel.Simulator` (fusion on) must produce the same
cycle count, the same logical-event count, and the same full
architectural stats dict, key for key.

The suite runs without the sanitizer (``no_sanitize``): fusion changes
the *kernel event stream* (fused callbacks never enter the queue), so
the S5 trace hash legitimately differs between the two — the hash is
re-pinned deliberately in tests/sim/golden_s5.json, while this suite
proves the architectural results did not move.
"""

import pytest

import repro.system.chip as chip_module
from repro.sim.kernel import Simulator
from repro.system import make_config
from repro.workloads.base import build_programs
from tests.sim.unfused_oracle import UnfusedOracle

# Every tier-1 workload, at the kernel-equivalence suite's geometry.
POINTS = [
    ("mv", "sf"),          # affine streams, floating on
    ("mv", "base"),        # no stream engine at all
    ("conv3d", "sf"),      # multi-level affine patterns
    ("bfs", "sf"),         # indirect streams + confluence traffic
    ("pathfinder", "sf"),  # migrating affine streams
    ("hotspot", "sf"),     # multi-array stencil streams
]
GEOMETRY = dict(core="ooo8", cols=4, rows=4, scale=8)


def _run(monkeypatch, kernel, workload, config):
    monkeypatch.setattr(chip_module, "Simulator", kernel)
    chip = chip_module.Chip(make_config(config, **GEOMETRY))
    programs = build_programs(
        workload, chip.num_cores, scale=GEOMETRY["scale"], seed=0,
    )
    result = chip.run(programs)
    return {
        "cycles": result.cycles,
        "events": chip.sim.events_executed,
        "inlined": chip.sim.events_inlined,
        "stats": chip.stats.to_dict(),
    }


@pytest.mark.no_sanitize
@pytest.mark.parametrize("workload,config", POINTS)
def test_fastpath_equivalent(monkeypatch, workload, config):
    off = _run(monkeypatch, UnfusedOracle, workload, config)
    on = _run(monkeypatch, Simulator, workload, config)
    assert on["cycles"] == off["cycles"]
    # count_inlined_events() credit: fused callbacks must keep
    # events_executed counting logical events, not kernel dispatches.
    assert on["events"] == off["events"]
    # Fusion actually engaged (beyond the always-on NoC drain batching
    # both share).
    assert on["inlined"] > off["inlined"]
    # Architectural results are byte-identical, key for key.
    assert on["stats"] == off["stats"]
