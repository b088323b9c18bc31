"""Mode matrix: every kernel and sanitizer setting runs the same model.

The simulator ships one configuration: the calendar queue (DESIGN.md
§10), with every zero-delay callback dispatched through it. Tier-1
runs that configuration under the sanitizer, and
:class:`~tests.sim.heap_oracle.HeapOracle` (one heap instead of the
calendar queue) keeps the reference. On one point per float policy,
runs on the shipping kernel and on the oracle, each with the sanitizer
off and on, must agree on cycles, logical events and every stat
outside ``sanitizer.*``. The sanitizer attaches after the chip is
built, as the runner's ``sanitize`` parameter attaches it, so the
matrix also shows that a late attachment observes the same run. Both
sanitized runs' S5 hash, trace events and cycles must equal the pins
in ``tests/sim/golden_s5.json``.
"""

import pytest

import repro.system.chip as chip_module
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer
from repro.system.configs import make_config
from repro.workloads.base import build_programs
from tests.sim.heap_oracle import HeapOracle
from tests.sim.s5_pins import observed, pinned, point_name

KERNELS = (Simulator, HeapOracle)

POINTS = [
    ("mv", "sf", 64),                   # static float policy
    ("stencil_tiled", "sf_smart", 32),  # smart policy: float, revoke
]


def _run(monkeypatch, kernel, sanitize, workload, config, scale):
    monkeypatch.setattr(chip_module, "Simulator", kernel)
    chip = chip_module.Chip(make_config(config, core="ooo8", cols=2, rows=2,
                                        scale=scale))
    assert chip.sim.sanitizer is None
    if sanitize:
        Sanitizer(chip.sim)
    result = chip.run(build_programs(workload, chip.num_cores, scale=scale,
                                     seed=0))
    all_stats = chip.stats.to_dict()
    stats = {name: value for name, value in all_stats.items()
             if not name.startswith("sanitizer.")}
    s5 = observed(all_stats) if sanitize else None
    return result.cycles, chip.sim.events_executed, stats, s5


@pytest.mark.no_sanitize
@pytest.mark.parametrize("workload,config,scale", POINTS)
def test_every_mode_runs_the_same_model(monkeypatch, workload, config, scale):
    runs = {
        (kernel.__name__, sanitize): _run(monkeypatch, kernel, sanitize,
                                          workload, config, scale)
        for kernel in KERNELS for sanitize in (False, True)
    }
    cycles, events, stats, _ = runs[("Simulator", False)]
    for mode, run in runs.items():
        assert run[0] == cycles, mode
        assert run[1] == events, mode
        assert run[2] == stats, mode
    pin = pinned(point_name(workload, config, 2, 2, scale))
    for kernel in KERNELS:
        assert runs[(kernel.__name__, True)][3] == pin, kernel.__name__
