"""Scheduler-equivalence suite: calendar queue vs heap oracle.

The calendar queue is the only scheduler the simulator ships, on the
promise of *bit-identical* semantics to a plain ``(time, seq)`` heap
(DESIGN.md §10). This suite holds it to that: for each tier-1 workload
point, a run on :class:`~repro.sim.kernel.Simulator` and a run with
``repro.system.chip.Simulator`` swapped for
:class:`~tests.sim.heap_oracle.HeapOracle` must produce the same
sanitizer determinism hash (the S5 CRC over every (cycle, event)
pair), the same cycle count, and the same full stats dict. Any
ordering divergence — a bucket consumed out of FIFO order, an overflow
event migrating late — shows up here first.

On a hash mismatch the suite does not stop at "CRCs differ": it runs
the two-pass divergence localizer (repro.obs.divergence) and fails
with the exact first divergent (cycle, event, handler).
"""

import pytest

import repro.system.chip as chip_module
from repro.harness.runner import run_once
from repro.obs.divergence import localize
from repro.sim.kernel import Simulator
from repro.system.configs import make_config
from repro.workloads.base import build_programs
from tests.sim.heap_oracle import HeapOracle

POINTS = [
    ("mv", "sf"),        # affine streams, floating on
    ("mv", "base"),      # no stream engine at all
    ("conv3d", "sf"),    # multi-level affine patterns
    ("bfs", "sf"),       # indirect streams + confluence traffic
]

# One geometry for both the hash runs and the localizer replays.
POINT = dict(cols=4, rows=4, scale=8)


def _run(monkeypatch, kernel, workload, config):
    monkeypatch.setattr(chip_module, "Simulator", kernel)
    rec = run_once(workload, config, use_cache=False, **POINT)
    stats = rec.stats.to_dict()
    assert stats.get("sanitizer.trace_events", 0) > 0
    return stats


def _variant(monkeypatch, kernel, workload, config):
    """A divergence-localizer run variant of one point on ``kernel``."""

    def run(attach):
        monkeypatch.setattr(chip_module, "Simulator", kernel)
        chip = chip_module.Chip(make_config(config, **POINT))
        recorder = attach(chip.sim)
        chip.run(build_programs(workload, chip.num_cores,
                                scale=POINT["scale"]))
        return recorder

    return run


@pytest.mark.parametrize("workload,config", POINTS)
def test_backends_equivalent(monkeypatch, workload, config):
    heap = _run(monkeypatch, HeapOracle, workload, config)
    cal = _run(monkeypatch, Simulator, workload, config)
    if cal["sanitizer.trace_hash"] != heap["sanitizer.trace_hash"]:
        divergence = localize(
            _variant(monkeypatch, HeapOracle, workload, config),
            _variant(monkeypatch, Simulator, workload, config))
        detail = (divergence.describe() if divergence is not None
                  else "localizer found no event-stream divergence "
                       "(hash inputs differ elsewhere)")
        pytest.fail(
            f"S5 hash mismatch between the heap oracle and the calendar "
            f"queue on {workload}/{config}: {detail}")
    assert cal["sanitizer.trace_events"] == heap["sanitizer.trace_events"]
    assert cal["chip.cycles"] == heap["chip.cycles"]
    assert cal == heap
