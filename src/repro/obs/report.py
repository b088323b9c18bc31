"""Render a :class:`~repro.obs.diff.RunDiff` as Markdown or HTML.

Pure formatting — every number comes precomputed from
:mod:`repro.obs.diff`, and the renderers are deterministic (stable
ordering, fixed float formats), so reports are golden-testable.

Heatmaps render as per-tile shade grids (`` .:-=+*#%@`` ramp,
row-major mesh layout) with the numeric matrix alongside; interval
series render as Unicode sparklines (``▁▂▃▄▅▆▇█``).
"""

from __future__ import annotations

import html as _html
from typing import List, Optional, Sequence

from repro.obs.attribution import BUCKETS
from repro.obs.diff import RunDiff, StatDelta, cpi_stack, crit_edges

SPARK_RAMP = "▁▂▃▄▅▆▇█"
SHADE_RAMP = " .:-=+*#%@"


def _fmt(value: float) -> str:
    """Compact deterministic number format."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def sparkline(values: Sequence[float]) -> str:
    """One character per value, scaled to the series' own min/max.
    A flat (or empty/singleton) series renders at the lowest level."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return SPARK_RAMP[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(SPARK_RAMP) - 1))
        out.append(SPARK_RAMP[idx])
    return "".join(out)


def shade_grid(matrix: List[List[float]],
               lo: Optional[float] = None,
               hi: Optional[float] = None) -> List[str]:
    """Render a matrix as shade-character rows. ``lo``/``hi`` pin the
    scale (so A, B and delta grids can share one) and default to the
    matrix's own range."""
    flat = [v for row in matrix for v in row]
    if not flat:
        return []
    lo = min(flat) if lo is None else lo
    hi = max(flat) if hi is None else hi
    span = hi - lo
    lines = []
    for row in matrix:
        chars = []
        for v in row:
            if span == 0:
                chars.append(SHADE_RAMP[0])
            else:
                idx = int((v - lo) / span * (len(SHADE_RAMP) - 1))
                chars.append(SHADE_RAMP[max(0, min(idx,
                                                   len(SHADE_RAMP) - 1))])
        lines.append("".join(chars))
    return lines


def _matrix_rows(matrix: List[List[float]]) -> List[str]:
    width = max((len(_fmt(v)) for row in matrix for v in row), default=1)
    return [" ".join(f"{_fmt(v):>{width}}" for v in row) for row in matrix]


def _md_table(header: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _delta_cells(delta: StatDelta) -> List[str]:
    pct = delta.pct
    return [
        delta.name, _fmt(delta.a), _fmt(delta.b), _fmt(delta.delta),
        f"{pct:+.2f}%" if pct is not None else "n/a",
    ]


def render_markdown(diff: RunDiff) -> str:
    a, b = diff.a, diff.b
    lines: List[str] = []
    lines.append(f"# Run diff: {a.label} vs {b.label}")
    lines.append("")
    lines.append(f"- **A** = `{a.label}`: "
                 f"{_point_line(a.record)}")
    lines.append(f"- **B** = `{b.label}`: "
                 f"{_point_line(b.record)}")
    lines.append("")

    lines.append("## Headline deltas")
    lines.append("")
    lines.extend(_md_table(
        ["stat", "A", "B", "delta", "%"],
        [_delta_cells(d) for d in diff.headline]))
    lines.append("")

    if diff.cpi and any(ca or cb for _, ca, cb in diff.cpi):
        # The bottleneck diff: which buckets floating emptied.
        total_a = sum(ca for _, ca, _ in diff.cpi) or 1.0
        total_b = sum(cb for _, _, cb in diff.cpi) or 1.0
        lines.append("## CPI stack (cycle accounting)")
        lines.append("")
        lines.extend(_md_table(
            ["bucket", "A", "A%", "B", "B%", "delta"],
            [[bucket, _fmt(ca), f"{100.0 * ca / total_a:.1f}%",
              _fmt(cb), f"{100.0 * cb / total_b:.1f}%", _fmt(cb - ca)]
             for bucket, ca, cb in diff.cpi]))
        lines.append("")

    if diff.bottlenecks:
        lines.append("## Critical-path bottleneck edges")
        lines.append("")
        lines.extend(_md_table(
            ["edge (kind.from>to)", "A cycles", "B cycles", "delta"],
            [[f"`{edge}`", _fmt(ea), _fmt(eb), _fmt(eb - ea)]
             for edge, ea, eb in diff.bottlenecks]))
        lines.append("")

    if diff.verdicts:
        lines.append("## Decision provenance")
        lines.append("")
        lines.extend(_md_table(
            ["verdict", "A", "B", "delta"],
            [[v, _fmt(ca), _fmt(cb), _fmt(cb - ca)]
             for v, ca, cb in diff.verdicts]))
        lines.append("")

    for kind in sorted(diff.tile_heatmaps):
        grids = diff.tile_heatmaps[kind]
        lines.append(f"## Tile heatmap: {kind}")
        lines.append("")
        flat = [v for key in ("a", "b") for row in grids[key] for v in row]
        lo, hi = (min(flat), max(flat)) if flat else (0.0, 0.0)
        lines.append("```")
        lines.extend(_grid_pair(
            ("A", shade_grid(grids["a"], lo, hi), _matrix_rows(grids["a"])),
            ("B", shade_grid(grids["b"], lo, hi), _matrix_rows(grids["b"])),
        ))
        lines.append("delta (B - A):")
        lines.extend("  " + row for row in _matrix_rows(grids["delta"]))
        lines.append("```")
        lines.append("")

    if diff.links:
        lines.append("## NoC link flits")
        lines.append("")
        lines.extend(_md_table(
            ["link", "A", "B", "delta"],
            [[link, _fmt(fa), _fmt(fb), _fmt(fb - fa)]
             for link, fa, fb in diff.links]))
        lines.append("")

    if diff.interval_columns and (a.intervals or b.intervals):
        lines.append("## Interval series")
        lines.append("")
        lines.append("```")
        for column in diff.interval_columns:
            sa = sparkline([float(s.get(column, 0.0))
                            for s in a.intervals])
            sb = sparkline([float(s.get(column, 0.0))
                            for s in b.intervals])
            lines.append(f"{column:<24} A {sa}")
            lines.append(f"{'':<24} B {sb}")
        lines.append("```")
        lines.append("")

    for label, streams in (("A", diff.top_streams_a),
                           ("B", diff.top_streams_b)):
        if not streams:
            continue
        lines.append(f"## Top {diff.top_k} streams by lifetime ({label})")
        lines.append("")
        lines.extend(_md_table(
            ["sid", "tile", "start", "duration", "key"],
            [[_fmt(float(s["sid"])) if s["sid"] is not None else "?",
              str(s["tile"]), _fmt(float(s["start"])),
              _fmt(float(s["duration"])), f"`{s['key']}`"]
             for s in streams]))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_attribution(record, top: int = 10) -> str:
    """Single-run attribution report: the CPI stack (with ASCII
    shares) plus the aggregate critical-path bottleneck table, from a
    RunRecord simulated with the ``attribution`` (+``spans``)
    pillars. Deterministic — golden-testable."""
    tel = record.telemetry or {}
    stack = cpi_stack(record)
    total = tel.get("cpi.total_cycles", sum(stack.values())) or 1.0
    lines: List[str] = []
    lines.append(f"# Cycle attribution: {_point_line(record)}")
    lines.append("")
    lines.append(f"- total core cycles: {_fmt(float(total))} "
                 f"(chip cycles: {_fmt(float(record.cycles))})")
    lines.append("- conservation: buckets sum exactly to total core "
                 "cycles (asserted at run end)")
    dropped = tel.get("cpi.journeys_dropped", 0)
    if dropped:
        lines.append(f"- **WARNING**: {_fmt(float(dropped))} journeys "
                     f"dropped at the cap; wait buckets are "
                     f"under-attributed")
    lines.append("")
    lines.append("## CPI stack")
    lines.append("")
    bar_width = 40
    rows = []
    for bucket in BUCKETS:  # taxonomy order, not alphabetical
        cycles = stack.get(bucket, 0.0)
        share = cycles / total
        bar = "#" * int(round(share * bar_width))
        rows.append([bucket, _fmt(cycles), f"{100.0 * share:.1f}%",
                     f"`{bar}`" if bar else ""])
    lines.extend(_md_table(["bucket", "cycles", "share", ""], rows))
    lines.append("")
    edges = crit_edges(record)
    if edges:
        lines.append(f"## Critical-path bottleneck edges (top {top})")
        lines.append("")
        ranked = sorted(edges.items(), key=lambda kv: (-kv[1], kv[0]))
        dom = {key[len("critdom."):]: value for key, value in tel.items()
               if key.startswith("critdom.")}
        lines.extend(_md_table(
            ["edge (kind.from>to)", "cycles", "spans dominated"],
            [[f"`{edge}`", _fmt(cycles), _fmt(dom.get(edge, 0.0))]
             for edge, cycles in ranked[:top]]))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _point_line(record) -> str:
    p = record.point
    return (f"{p.workload}/{p.config} core={p.core} "
            f"{p.cols}x{p.rows} scale={p.scale} seed={p.seed}")


def _grid_pair(*sides) -> List[str]:
    """Lay out labelled (shade, numbers) blocks vertically."""
    lines: List[str] = []
    for label, shades, numbers in sides:
        lines.append(f"{label}:")
        for shade, nums in zip(shades, numbers):
            lines.append(f"  {shade}   {nums}")
    return lines


def render_html(diff: RunDiff) -> str:
    """Minimal self-contained HTML wrapper: the Markdown report in a
    ``<pre>`` (monospace keeps the grids/sparklines aligned) plus a
    real table for the headline deltas."""
    md = render_markdown(diff)
    rows = "".join(
        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>"
        .format(*(_html.escape(c) for c in _delta_cells(d)))
        for d in diff.headline
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>Run diff: {_html.escape(diff.a.label)} vs "
        f"{_html.escape(diff.b.label)}</title>"
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:2px 8px;text-align:right}"
        "th:first-child,td:first-child{text-align:left}</style>"
        "</head><body>"
        f"<h1>Run diff: {_html.escape(diff.a.label)} vs "
        f"{_html.escape(diff.b.label)}</h1>"
        "<table><tr><th>stat</th><th>A</th><th>B</th>"
        f"<th>delta</th><th>%</th></tr>{rows}</table>"
        f"<pre>{_html.escape(md)}</pre>"
        "</body></html>\n"
    )
