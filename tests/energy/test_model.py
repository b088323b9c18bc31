"""Tests for the event-energy model."""

import pytest

from repro.energy import EnergyModel, EnergyParams
from repro.sim import Stats
from repro.system.params import SystemParams, IO4, OOO8
from dataclasses import replace


def stats_with(**counters):
    s = Stats()
    for name, value in counters.items():
        s.set(name.replace("__", "."), value)
    return s


def test_empty_stats_only_static():
    model = EnergyModel()
    bd = model.evaluate(Stats(), cycles=1000, system=SystemParams())
    assert bd.core_dynamic == 0
    assert bd.core_static > 0
    assert bd.total == bd.core_static


def test_component_attribution():
    model = EnergyModel(EnergyParams())
    s = stats_with(
        core__ops=100, l1__hits=10, l1__misses=5, l2__hits=3,
        l2__misses=2, l3__hits=1, l3__misses=1, dram__reads=4,
        dram__writes=1,
    )
    s.set("noc.flit_hops.data", 20)
    s.set("noc.flits.data", 5)
    bd = model.evaluate(s, cycles=10, system=SystemParams())
    p = EnergyParams()
    assert bd.l1 == 15 * p.l1_access
    assert bd.l2 == 5 * p.l2_access
    assert bd.dram == 5 * p.dram_access
    assert bd.noc == 25 * p.noc_flit_hop
    assert bd.core_dynamic == 100 * p.op_ooo8


def test_ooo_costs_more_per_op_than_inorder():
    model = EnergyModel()
    s = stats_with(core__ops=1000)
    io = model.evaluate(s, 100, replace(SystemParams(), core=IO4))
    ooo = model.evaluate(s, 100, replace(SystemParams(), core=OOO8))
    assert ooo.core_dynamic > io.core_dynamic
    assert ooo.core_static > io.core_static


def test_static_scales_with_cycles_and_tiles():
    model = EnergyModel()
    small = model.evaluate(Stats(), 100, replace(SystemParams(), cols=2, rows=2))
    big = model.evaluate(Stats(), 100, replace(SystemParams(), cols=4, rows=4))
    assert big.core_static == 4 * small.core_static
    longer = model.evaluate(Stats(), 200, replace(SystemParams(), cols=2, rows=2))
    assert longer.core_static == 2 * small.core_static


def test_stream_engine_energy_counted():
    model = EnergyModel()
    s = stats_with(se_core__requests=10)
    s.set("se_l3.elements_issued", 10)
    bd = model.evaluate(s, 10, SystemParams())
    assert bd.stream_engines == 20 * EnergyParams().se_op


def test_breakdown_total_and_dict():
    model = EnergyModel()
    s = stats_with(core__ops=10, dram__reads=1)
    bd = model.evaluate(s, 10, SystemParams())
    d = bd.to_dict()
    assert "total" not in d  # derived, never serialized
    assert bd.total > 0
    assert bd.total == pytest.approx(sum(d.values()))


def test_efficiency_inverse_of_total():
    model = EnergyModel()
    s = stats_with(core__ops=100)
    bd = model.evaluate(s, 10, SystemParams())
    assert model.efficiency(s, 10, SystemParams()) == pytest.approx(1 / bd.total)
