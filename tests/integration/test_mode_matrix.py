"""Mode matrix: every kernel and sanitizer setting runs the same model.

The simulator ships one configuration: the calendar queue with handler
fusion and packet pooling on (DESIGN.md §10, §12). Tier-1 runs that
configuration under the sanitizer, and the test oracles keep the
references: :class:`~tests.sim.heap_oracle.HeapOracle` (one heap
instead of the calendar queue) and
:class:`~tests.sim.unfused_oracle.UnfusedOracle` (fusion and pooling
off). On one point per float policy, runs on the shipping kernel, on
each oracle and on a kernel that is both, each with the sanitizer off
and on, must agree on cycles, logical events and every stat outside
``sanitizer.*``.
"""

import pytest

import repro.system.chip as chip_module
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import ENV_SANITIZE
from repro.system.configs import make_config
from repro.workloads.base import build_programs
from tests.sim.heap_oracle import HeapOracle
from tests.sim.unfused_oracle import UnfusedOracle


class UnfusedHeapOracle(UnfusedOracle, HeapOracle):
    """The heap scheduler with fusion and pooling off."""


KERNELS = (Simulator, HeapOracle, UnfusedOracle, UnfusedHeapOracle)

POINTS = [
    ("mv", "sf", 64),                   # static float policy
    ("stencil_tiled", "sf_smart", 32),  # smart policy: float, revoke
]


def _run(monkeypatch, kernel, sanitize, workload, config, scale):
    monkeypatch.setattr(chip_module, "Simulator", kernel)
    if sanitize:
        monkeypatch.setenv(ENV_SANITIZE, "1")
    else:
        monkeypatch.delenv(ENV_SANITIZE, raising=False)
    chip = chip_module.Chip(make_config(config, core="ooo8", cols=2, rows=2,
                                        scale=scale))
    assert (chip.sim.sanitizer is not None) is sanitize
    result = chip.run(build_programs(workload, chip.num_cores, scale=scale,
                                     seed=0))
    stats = {name: value for name, value in chip.stats.to_dict().items()
             if not name.startswith("sanitizer.")}
    return result.cycles, chip.sim.events_executed, stats


@pytest.mark.parametrize("workload,config,scale", POINTS)
def test_every_mode_runs_the_same_model(monkeypatch, workload, config, scale):
    runs = {
        (kernel.__name__, sanitize): _run(monkeypatch, kernel, sanitize,
                                          workload, config, scale)
        for kernel in KERNELS for sanitize in (False, True)
    }
    cycles, events, stats = runs[("Simulator", False)]
    for mode, run in runs.items():
        assert run[0] == cycles, mode
        assert run[1] == events, mode
        assert run[2] == stats, mode
