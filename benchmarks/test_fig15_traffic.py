"""Figure 15: NoC traffic breakdown (control / data / stream
management) and average network utilization, normalized to Base.

Paper: Bingo *increases* traffic by 34% (aggressive inaccurate
prefetch); SS is roughly traffic-neutral; bulk prefetch trims ~6%;
affine floating alone cuts 30%; full SF cuts 36% and drops average
utilization from 35% (Bingo) to 25%. Stream-management messages
(config/migrate/end/credit) cost only ~2%.
"""

from repro.harness import experiments, report

from conftest import PROFILE, emit, run_figure


def mean_total(rows, config):
    sel = [r for r in rows if r.config == config]
    return sum(r.total for r in sel) / len(sel)


def test_fig15_traffic(benchmark):
    rows = run_figure(
        benchmark, lambda: experiments.fig15_traffic(**PROFILE)
    )
    emit("fig15_traffic", report.render_fig15(rows))

    base = mean_total(rows, "base")
    bingo = mean_total(rows, "bingo")
    ss = mean_total(rows, "ss")
    sf_aff = mean_total(rows, "sf_aff")
    sf = mean_total(rows, "sf")
    assert abs(base - 1.0) < 1e-6
    # Prefetchers add traffic; streams are accurate (SS ~neutral).
    assert bingo > 1.05
    assert 0.9 < ss < 1.1
    # Bulk prefetch trims the stride prefetcher's *request* traffic
    # (its data placement differs: bulk requires coarser interleave).
    def mean_ctrl(cfg):
        return sum(
            r.ctrl for r in rows if r.config == cfg
        ) / sum(1 for r in rows if r.config == cfg)

    assert mean_ctrl("bulk") < mean_ctrl("stride") * 1.02
    # Floating fundamentally reduces traffic; full SF at least as good
    # as affine-only on average.
    assert sf_aff < 0.95
    assert sf < 0.95
    # Stream-management overhead is small (paper ~2%).
    sf_rows = [r for r in rows if r.config == "sf"]
    stream_share = sum(r.stream for r in sf_rows) / len(sf_rows)
    assert stream_share < 0.10
    # Utilization: SF below Bingo.
    def util(cfg):
        return sum(
            r.utilization for r in rows if r.config == cfg
        ) / sum(1 for r in rows if r.config == cfg)

    assert util("sf") < util("bingo")
