"""Rendering experiment results next to the paper's reported values.

Every renderer returns a string; the benchmarks print it so
``pytest benchmarks/ -s`` (or the CLI) reproduces the paper's
rows/series, with the paper's own headline numbers inlined for
comparison (we target the *shape* — orderings and rough factors —
not absolute equality; see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.harness.experiments import (
    FIG14_SOURCES,
    AttributionRow,
    Fig2Row,
    Fig13Cell,
    Fig15Row,
    Fig18Cell,
    Fig19Point,
    PolicyRow,
    geomean,
)
from repro.obs.attribution import BUCKETS

PAPER_NOTES = {
    "fig2": "paper: 72% of L2 evictions unreused (63% stream); 50% of "
            "traffic from caching no-reuse data (20% control)",
    "fig13": "paper speedups over same-core Base (geomean): IO4 "
             "stride/bingo/ss/sf ~= 2.0/2.10/1.95/3.20; OOO8 sf/ss ~= 1.31x",
    "fig14": "paper: 68% of SF-OOO8 L3 requests generated by SE_L3 "
             "(50% affine, 5% indirect, rest confluence)",
    "fig15": "paper: Bingo +34% traffic, bulk -6%, SF-affine -30%, "
             "SF total -36%; utilization 35% (Bingo) -> 25% (SF)",
    "fig16": "paper: SF/Bingo grows 1.34x @128b -> 1.43x @512b",
    "fig17": "paper: SF best at 1kB interleave; Bingo-4kB ~ 0.93x of "
             "Bingo-64B; SF-64B still cuts traffic 22%",
    "fig18": "paper: SF over SS 1.30x @4x4 -> 1.32x @8x8, larger when "
             "working set fits L3 and L2 hit rate is low",
    "fig19": "paper: SF-IO4 outperforms SS-OOO8 at much lower energy",
    "policy": "no paper figure: static Table II vs adaptive policy vs "
              "adaptive+plans; tiled stencil should revoke, Table IV "
              "benchmarks should keep their floats",
    "attribution": "no paper figure: CPI-stack shares per config; "
                   "floating should drain the DRAM/NoC-wait buckets "
                   "the Base stack is dominated by",
}


def _table(header: Sequence[str], rows: List[Sequence], title: str = "") -> str:
    widths = [len(h) for h in header]
    rendered = [[str(c) for c in row] for row in rows]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def render_fig2(rows: List[Fig2Row]) -> str:
    body = [
        (r.workload, fmt(r.frac_noreuse), fmt(r.frac_noreuse_stream),
         fmt(r.frac_traffic_noreuse), fmt(r.frac_traffic_ctrl))
        for r in rows
    ]
    body.append((
        "mean",
        fmt(sum(r.frac_noreuse for r in rows) / len(rows)),
        fmt(sum(r.frac_noreuse_stream for r in rows) / len(rows)),
        fmt(sum(r.frac_traffic_noreuse for r in rows) / len(rows)),
        fmt(sum(r.frac_traffic_ctrl for r in rows) / len(rows)),
    ))
    return _table(
        ("workload", "evict_noreuse", "..stream", "traffic_noreuse", "..ctrl"),
        body, title=f"Figure 2 (motivation) -- {PAPER_NOTES['fig2']}",
    )


def render_fig13(
    data: Dict[str, Dict[str, Dict[str, Fig13Cell]]],
) -> str:
    blocks = []
    for core, wl_map in data.items():
        configs = list(next(iter(wl_map.values())).keys())
        body = []
        for wl, cells in wl_map.items():
            body.append((wl,) + tuple(
                f"{fmt(cells[c].speedup)}/{fmt(cells[c].energy_eff)}"
                for c in configs
            ))
        gms = tuple(
            f"{fmt(geomean([cells[c].speedup for cells in wl_map.values()]))}"
            f"/{fmt(geomean([cells[c].energy_eff for cells in wl_map.values()]))}"
            for c in configs
        )
        body.append(("geomean",) + gms)
        blocks.append(_table(
            ("workload",) + tuple(configs), body,
            title=f"Figure 13 [{core}] speedup/energy-eff vs {core}-Base",
        ))
    return (
        f"{PAPER_NOTES['fig13']}\n" + "\n\n".join(blocks)
    )


def render_fig14(data: Dict[str, Dict[str, float]]) -> str:
    body = [
        (wl,) + tuple(fmt(frac[src]) for src in FIG14_SOURCES)
        for wl, frac in data.items()
    ]
    mean = tuple(
        fmt(sum(frac[src] for frac in data.values()) / len(data))
        for src in FIG14_SOURCES
    )
    body.append(("mean",) + mean)
    return _table(
        ("workload",) + tuple(FIG14_SOURCES), body,
        title=f"Figure 14 (SF L3 request breakdown) -- {PAPER_NOTES['fig14']}",
    )


def render_fig15(rows: List[Fig15Row]) -> str:
    body = [
        (r.workload, r.config, fmt(r.ctrl), fmt(r.data), fmt(r.stream),
         fmt(r.total), fmt(r.utilization, 3))
        for r in rows
    ]
    # Averages per config.
    configs = sorted({r.config for r in rows})
    for cfg in configs:
        sel = [r for r in rows if r.config == cfg]
        body.append((
            "mean", cfg,
            fmt(sum(r.ctrl for r in sel) / len(sel)),
            fmt(sum(r.data for r in sel) / len(sel)),
            fmt(sum(r.stream for r in sel) / len(sel)),
            fmt(sum(r.total for r in sel) / len(sel)),
            fmt(sum(r.utilization for r in sel) / len(sel), 3),
        ))
    return _table(
        ("workload", "config", "ctrl", "data", "stream", "total", "util"),
        body,
        title=f"Figure 15 (NoC traffic vs Base) -- {PAPER_NOTES['fig15']}",
    )


def render_sweep(
    data: Dict[str, Dict[Tuple[str, int], float]],
    label: str,
    note: str,
) -> str:
    keys = sorted({k for cells in data.values() for k in cells})
    body = [
        (wl,) + tuple(fmt(cells.get(k, 0.0)) for k in keys)
        for wl, cells in data.items()
    ]
    gm = tuple(
        fmt(geomean([cells.get(k, 0.0) for cells in data.values()]))
        for k in keys
    )
    body.append(("geomean",) + gm)
    header = ("workload",) + tuple(f"{c}@{v}" for c, v in keys)
    return _table(header, body, title=f"{label} -- {note}")


def render_fig18(data: Dict[str, Dict[Tuple[int, int], Fig18Cell]]) -> str:
    meshes = sorted({m for cells in data.values() for m in cells})
    body = []
    for wl, cells in data.items():
        body.append((wl,) + tuple(
            f"{fmt(cells[m].sf_over_ss)} (l2 {fmt(cells[m].l2_hit_rate)}, "
            f"l3 {fmt(cells[m].l3_hit_rate)})"
            for m in meshes
        ))
    gm = tuple(
        fmt(geomean([cells[m].sf_over_ss for cells in data.values()]))
        for m in meshes
    )
    body.append(("geomean",) + gm)
    header = ("workload",) + tuple(f"{c}x{r}" for c, r in meshes)
    return _table(
        header, body,
        title=f"Figure 18 (SF over SS, scaling) -- {PAPER_NOTES['fig18']}",
    )


def render_policy_ablation(rows: List[PolicyRow]) -> str:
    body = [
        (r.workload, r.config, fmt(r.speedup), r.floats, r.sinks,
         r.revokes, r.deferred_configs, r.plan_l2_ranges)
        for r in rows
    ]
    for cfg in sorted({r.config for r in rows}):
        sel = [r for r in rows if r.config == cfg]
        body.append((
            "geomean", cfg, fmt(geomean([r.speedup for r in sel])),
            sum(r.floats for r in sel), sum(r.sinks for r in sel),
            sum(r.revokes for r in sel),
            sum(r.deferred_configs for r in sel),
            sum(r.plan_l2_ranges for r in sel),
        ))
    return _table(
        ("workload", "config", "speedup_vs_ss", "floats", "sinks",
         "revokes", "deferred", "l2_ranges"),
        body,
        title=f"Policy ablation (speedup vs SS) -- {PAPER_NOTES['policy']}",
    )


def render_latency_attribution(rows: List[AttributionRow]) -> str:
    """One row per (workload, config): speedup plus the CPI-stack
    shares that explain it (buckets as % of total core cycles)."""
    body = []
    for r in rows:
        total = sum(r.cpi.values()) or 1.0
        body.append(
            (r.workload, r.config, fmt(r.speedup))
            + tuple(f"{100.0 * r.cpi.get(b, 0.0) / total:.1f}"
                    for b in BUCKETS)
        )
    return _table(
        ("workload", "config", "speedup") + BUCKETS,
        body,
        title=("Latency attribution (CPI-stack %) -- "
               f"{PAPER_NOTES['attribution']}"),
    )


def render_fig19(points: List[Fig19Point]) -> str:
    body = [
        (p.core, p.config, fmt(p.speedup), fmt(p.energy))
        for p in sorted(points, key=lambda p: (p.core, p.config))
    ]
    return _table(
        ("core", "config", "speedup_vs_io4base", "energy_vs_io4base"),
        body,
        title=f"Figure 19 (energy vs speedup) -- {PAPER_NOTES['fig19']}",
    )
