"""Probe seam tests: every declared probe is reachable, subscriptions
are validated, and an unobserved run holds no subscriber."""

from collections import Counter

import pytest

from repro.obs.probes import PROBES, Probes
from repro.system import Chip, make_config
from repro.workloads import build_programs

# Three 2x2 points that between them reach every probe: mv floats and
# sinks, bfs floats indirect streams, hotspot's stencil streams follow
# one another and write back dirty lines.
POINTS = (("mv", "sf"), ("bfs", "sf"), ("hotspot", "sf"))


def _chip(config="sf"):
    return Chip(make_config(config, core="ooo8", cols=2, rows=2, scale=64))


def _run(chip, workload):
    chip.run(build_programs(workload, chip.num_cores, scale=64, seed=0))


def test_every_declared_probe_fires():
    fired = Counter()
    for workload, config in POINTS:
        chip = _chip(config)
        for name in PROBES:
            chip.sim.probes.subscribe(
                name, lambda *args, name=name: fired.update((name,)))
        _run(chip, workload)
    assert sorted(n for n in PROBES if not fired[n]) == []


def test_subscribing_to_an_undeclared_probe_raises():
    probes = Probes()
    with pytest.raises(ValueError, match="unknown probe 'l4_miss'"):
        probes.subscribe("l4_miss", lambda *args: None)


def test_late_built_subscriber_sees_every_component():
    chip = _chip()
    seen = []
    chip.sim.probes.subscribe("built", lambda role, comp: seen.append(role))
    assert seen == [role for role, _ in chip.sim.probes.bound]
    assert seen[-1] == "chip"
    assert seen.count("l1") == chip.num_cores


@pytest.mark.no_sanitize
def test_unobserved_run_holds_no_subscriber():
    chip = _chip()
    probes = chip.sim.probes
    _run(chip, "mv")
    assert chip.sim.sanitizer is None and chip.sim.telemetry is None
    assert [n for n in PROBES if getattr(probes, n) is not None] == []
    for role, comp in probes.bound:
        if role != "chip":
            assert comp._probes is probes, role
        # No component method was replaced by an instance attribute.
        assert not [name for name, value in vars(comp).items()
                    if callable(value) and hasattr(type(comp), name)], role
