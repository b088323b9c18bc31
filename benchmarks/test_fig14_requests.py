"""Figure 14: breakdown of L3 requests under SF-OOO8.

Paper: on average 68% of L3 requests are generated by the SE_L3
(50% affine floating, 5% indirect — bfs and cfd only — and the rest
confluence, e.g. conv3d's shared input feature map at 51%).
"""

from repro.harness import experiments, report

from conftest import PROFILE, emit, run_figure


def test_fig14_request_breakdown(benchmark):
    data = run_figure(
        benchmark, lambda: experiments.fig14_requests(**PROFILE)
    )
    emit("fig14_requests", report.render_fig14(data))

    n = len(data)
    mean_float = sum(
        frac["float_affine"] + frac["float_ind"] + frac["float_conf"]
        for frac in data.values()
    ) / n
    # A significant fraction of requests originate at the SE_L3.
    assert mean_float > 0.3
    # Affine floating dominates over indirect on average.
    mean_affine = sum(f["float_affine"] for f in data.values()) / n
    assert mean_affine > 0.1
    # Indirect floating appears only in the indirect workloads.
    assert data["bfs"]["float_ind"] > 0.3
    assert data["hotspot"]["float_ind"] == 0.0
    # Confluence shows up in the shared-input workloads.
    assert data["conv3d"]["float_conf"] > 0.15
    assert data["particlefilter"]["float_conf"] > 0.05
