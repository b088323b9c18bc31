"""Tests for the per-figure experiment logic (small geometries)."""

import pytest

from repro.harness import experiments, report
from repro.harness.runner import COUNTERS, clear_cache

# These tests share the runner's memo: experiments over the same
# points reuse each other's simulations, as in a benchmark session.
KW = dict(cols=2, rows=2, scale=32)
WLS = ("nn", "conv3d")


def test_geomean():
    assert experiments.geomean([2, 8]) == pytest.approx(4.0)
    assert experiments.geomean([]) == 0.0
    assert experiments.geomean([0, 4]) == pytest.approx(4.0)


def test_fig2_rows_have_fractions():
    rows = experiments.fig2_motivation(workloads=WLS, **KW)
    assert len(rows) == 2
    for r in rows:
        assert 0.0 <= r.frac_noreuse <= 1.0
        assert r.frac_noreuse_stream <= r.frac_noreuse + 1e-9
        assert 0.0 <= r.frac_traffic_noreuse <= 1.0
    assert report.render_fig2(rows)


def test_fig13_structure():
    data = experiments.fig13_speedup(
        workloads=WLS, cores=("io4",), configs=("base", "sf"), **KW)
    assert set(data) == {"io4"}
    assert set(data["io4"]) == set(WLS)
    cell = data["io4"]["nn"]["base"]
    assert cell.speedup == pytest.approx(1.0)
    assert cell.energy_eff == pytest.approx(1.0)
    assert report.render_fig13(data)


def test_fig14_fractions_sum_to_one():
    data = experiments.fig14_requests(workloads=WLS, **KW)
    for wl, frac in data.items():
        assert sum(frac.values()) == pytest.approx(1.0, abs=1e-6)
    assert report.render_fig14(data)


def test_fig15_base_normalizes_to_one():
    rows = experiments.fig15_traffic(workloads=("nn",), configs=("sf",), **KW)
    base = [r for r in rows if r.config == "base"][0]
    assert base.total == pytest.approx(1.0)
    assert report.render_fig15(rows)


def test_fig16_reference_is_one():
    data = experiments.fig16_linkwidth(workloads=("nn",), widths=(128,), **KW)
    assert data["nn"][("bingo", 128)] == pytest.approx(1.0)


def test_fig17_reference_is_one():
    data = experiments.fig17_interleave(
        workloads=("nn",), granularities=(64,), **KW)
    assert data["nn"][("bingo", 64)] == pytest.approx(1.0)
    assert report.render_sweep(data, "t", "n")


def test_fig18_cells():
    data = experiments.fig18_scaling(
        workloads=("nn",), meshes=((2, 2),), scale=32)
    cell = data["nn"][(2, 2)]
    assert cell.sf_over_ss > 0
    assert report.render_fig18(data)


def test_policy_ablation_rows():
    rows = experiments.fig_policy_ablation(
        workloads=("nn", "stencil_tiled"), **KW)
    assert len(rows) == 2 * len(experiments.ABLATION_CONFIGS)
    by = {(r.workload, r.config): r for r in rows}
    # The static policy never revokes; the smart one revokes the
    # cache-resident tiled stencil it floated on the cold first sweep.
    assert by[("stencil_tiled", "sf")].revokes == 0
    assert by[("stencil_tiled", "sf_smart")].revokes >= 1
    assert by[("stencil_tiled", "sf_plan")].revokes >= 1
    for r in rows:
        assert r.speedup > 0
    assert report.render_policy_ablation(rows)


def test_latency_attribution_rows():
    rows = experiments.fig_latency_attribution(
        workloads=("mv",), configs=("base", "sf"), **KW)
    assert len(rows) == 2
    by = {r.config: r for r in rows}
    assert by["base"].speedup == pytest.approx(1.0)
    for r in rows:
        # The CPI stack rides the record and conserves cycles.
        assert r.cpi and all(v >= 0 for v in r.cpi.values())
        assert sum(r.cpi.values()) > 0
    # Floating drains the DRAM-wait share on the streaming kernel.
    base_total = sum(by["base"].cpi.values())
    sf_total = sum(by["sf"].cpi.values())
    assert (by["sf"].cpi["wait_dram"] / sf_total
            < by["base"].cpi["wait_dram"] / base_total)
    assert report.render_latency_attribution(rows)


def test_fig19_points():
    pts = experiments.fig19_energy_scatter(
        workloads=("nn",), cores=("io4",), configs=("base", "sf"), **KW)
    by = {(p.core, p.config): p for p in pts}
    assert by[("io4", "base")].speedup == pytest.approx(1.0)
    assert by[("io4", "base")].energy == pytest.approx(1.0)
    assert report.render_fig19(pts)


def test_cold_figure_counts_no_memo_hits():
    """A figure reads its records from its one run_points call, so on
    a cleared memo each of its points is simulated and none is
    counted as a memo hit. (Last in this file: it clears the memo the
    tests above share.)"""
    clear_cache()
    experiments.fig2_motivation(["nn"], cols=2, rows=2, scale=64)
    assert (COUNTERS.memo_hits, COUNTERS.simulated) == (0, 1)
    clear_cache()
