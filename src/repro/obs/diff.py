"""Differential run observatory: align two runs and compute what
changed (DESIGN.md §11).

Inputs are the artifacts the rest of the observability stack already
produces — a :class:`~repro.harness.runner.RunRecord` (JSON) per run,
optionally accompanied by the per-point telemetry artifacts that
``python -m repro.obs run`` writes next to it
(``*.intervals.jsonl``, ``*.trace.json``, ``*.provenance.jsonl``).
This module only *computes*: headline stat deltas, per-tile heatmap
matrices (L3-bank activity from ``telemetry.tile.*`` counters,
NoC-link flits from ``telemetry.link.*``), aligned interval series,
top-k streams by lifetime, and provenance verdict tables. Rendering
lives in :mod:`repro.obs.report`; the CLI in ``repro.obs.__main__``.

Every number here is recomputed from the raw records — the report is
a *view*, never a second source of truth (the golden test pins this:
report deltas must equal deltas recomputed from the RunRecords).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.runner import RunRecord

# Headline rows: (label, extractor). Extractors only touch RunRecord
# fields/stats so a record without telemetry still diffs cleanly.
_HEADLINE: List[Tuple[str, Any]] = [
    ("cycles", lambda r: float(r.cycles)),
    ("core.ops", lambda r: r.stats.get("core.ops")),
    ("l1.misses", lambda r: r.stats.get("l1.misses")),
    ("l2.hit_rate", lambda r: r.l2_hit_rate()),
    ("l3.hit_rate", lambda r: r.l3_hit_rate()),
    ("noc.flit_hops", lambda r: r.flit_hops),
    ("dram.reads", lambda r: r.stats.get("dram.reads")),
    ("dram.writes", lambda r: r.stats.get("dram.writes")),
    ("se_core.floats", lambda r: r.stats.get("se_core.floats")),
    ("se_core.sinks", lambda r: r.stats.get("se_core.sinks")),
    ("se_l3.elements_issued",
     lambda r: r.stats.get("se_l3.elements_issued")),
    ("energy.total_pj", lambda r: r.energy.total),
]


@dataclass
class StatDelta:
    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def pct(self) -> Optional[float]:
        """Relative change in percent; None when A is zero."""
        if self.a == 0:
            return None
        return 100.0 * (self.b - self.a) / self.a


@dataclass
class RunArtifacts:
    """One run's record plus whatever optional artifacts exist."""

    record: RunRecord
    label: str
    intervals: List[Dict[str, Any]] = field(default_factory=list)
    provenance: List[Dict[str, Any]] = field(default_factory=list)
    trace_events: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def load(cls, path: str, label: Optional[str] = None) -> "RunArtifacts":
        """Load from a ``python -m repro.obs run`` output directory
        (``record.json`` + artifacts) or a bare RunRecord JSON file."""
        if os.path.isdir(path):
            record_path = os.path.join(path, "record.json")
            if not os.path.exists(record_path):
                raise FileNotFoundError(
                    f"{path} has no record.json — not an observatory "
                    f"run directory (create one with "
                    f"`python -m repro.obs run`)")
            record = _load_record_file(record_path)
            out = cls(record=record, label=label or os.path.basename(
                os.path.normpath(path)))
            for fname in sorted(os.listdir(path)):
                fpath = os.path.join(path, fname)
                if fname.endswith(".intervals.jsonl"):
                    out.intervals.extend(_read_jsonl(fpath))
                elif fname.endswith(".provenance.jsonl"):
                    out.provenance.extend(_read_jsonl(fpath))
                elif fname.endswith(".trace.json"):
                    with open(fpath, "r", encoding="utf-8") as fh:
                        out.trace_events.extend(
                            json.load(fh)["traceEvents"])
            return out
        record = _load_record_file(path)
        return cls(record=record, label=label or os.path.splitext(
            os.path.basename(path))[0])


def _load_record_file(path: str) -> RunRecord:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    # Accept both a bare record dict and the disk-cache envelope.
    if "record" in payload and "workload" not in payload:
        payload = payload["record"]
    return RunRecord.from_dict(payload)


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


# ----------------------------------------------------------------------
# headline deltas
# ----------------------------------------------------------------------
def headline_deltas(a: RunRecord, b: RunRecord) -> List[StatDelta]:
    return [StatDelta(name, float(fn(a)), float(fn(b)))
            for name, fn in _HEADLINE]


# ----------------------------------------------------------------------
# heatmaps (from the provenance summary counters on RunRecord.telemetry)
# ----------------------------------------------------------------------
def tile_matrix(record: RunRecord, kind: str) -> List[List[float]]:
    """``rows x cols`` matrix of one per-tile activity counter
    (``telemetry.tile.<t>.<kind>``); zeros where absent."""
    tel = record.telemetry or {}
    cols, rows = record.point.cols, record.point.rows
    matrix = [[0.0] * cols for _ in range(rows)]
    for tile in range(rows * cols):
        value = tel.get(f"tile.{tile}.{kind}", 0.0)
        matrix[tile // cols][tile % cols] = float(value)
    return matrix


def matrix_delta(a: List[List[float]],
                 b: List[List[float]]) -> List[List[float]]:
    return [[vb - va for va, vb in zip(row_a, row_b)]
            for row_a, row_b in zip(a, b)]


def link_flits(record: RunRecord) -> Dict[str, float]:
    """Directed link -> flits, from ``telemetry.link.<s>><d>.flits``."""
    tel = record.telemetry or {}
    out: Dict[str, float] = {}
    for key, value in tel.items():
        if key.startswith("link.") and key.endswith(".flits"):
            out[key[len("link."):-len(".flits")]] = float(value)
    return out


def link_delta_table(
    a: RunRecord, b: RunRecord,
) -> List[Tuple[str, float, float]]:
    """Sorted ``(link, flits_a, flits_b)`` rows over the union of
    links either run used."""
    fa, fb = link_flits(a), link_flits(b)
    links = sorted(set(fa) | set(fb),
                   key=lambda s: tuple(int(x) for x in s.split(">")))
    return [(link, fa.get(link, 0.0), fb.get(link, 0.0))
            for link in links]


def tile_kinds(a: RunRecord, b: RunRecord) -> List[str]:
    """The tile-activity kinds present in either run's telemetry."""
    kinds = set()
    for record in (a, b):
        for key in (record.telemetry or {}):
            if key.startswith("tile."):
                kinds.add(key.split(".", 2)[2])
    return sorted(kinds)


# ----------------------------------------------------------------------
# top-k streams by lifetime (from trace stream spans)
# ----------------------------------------------------------------------
def top_streams(
    trace_events: List[Dict[str, Any]], k: int = 5,
) -> List[Dict[str, Any]]:
    """Top-k stream lifecycle spans by duration from a Chrome trace
    (``cat == "stream"`` complete events). Sorted by duration desc,
    then start cycle asc for determinism."""
    spans = [e for e in trace_events
             if e.get("cat") == "stream" and e.get("ph") == "X"]
    spans.sort(key=lambda e: (-e.get("dur", 0), e.get("ts", 0),
                              e.get("name", "")))
    out = []
    for event in spans[:k]:
        args = event.get("args", {})
        out.append({
            "sid": args.get("sid"),
            "tile": event.get("tid", 0) // 4,
            "start": event.get("ts", 0),
            "duration": event.get("dur", 0),
            "key": args.get("key", ""),
        })
    return out


# ----------------------------------------------------------------------
# cycle-accounting (CPI stack) + critical-path bottlenecks
# ----------------------------------------------------------------------
def cpi_stack(record: RunRecord) -> Dict[str, float]:
    """Bucket -> cycles from the ``cpi.*`` attribution counters
    (empty when the run lacked the attribution pillar)."""
    tel = record.telemetry or {}
    return {
        key[len("cpi."):]: float(value)
        for key, value in tel.items()
        if key.startswith("cpi.") and key != "cpi.total_cycles"
        and key != "cpi.journeys_dropped"
    }


def cpi_table(
    a: RunRecord, b: RunRecord,
) -> List[Tuple[str, float, float]]:
    """``(bucket, cycles_a, cycles_b)`` over the union of buckets —
    the *bottleneck diff*: which buckets floating emptied."""
    ca, cb = cpi_stack(a), cpi_stack(b)
    return [(bucket, ca.get(bucket, 0.0), cb.get(bucket, 0.0))
            for bucket in sorted(set(ca) | set(cb))]


def crit_edges(record: RunRecord) -> Dict[str, float]:
    """``<kind>.<edge>`` -> total cycles from the ``crit.*`` summary
    counters (the span assembler's critical-path profile)."""
    tel = record.telemetry or {}
    return {key[len("crit."):]: float(value)
            for key, value in tel.items() if key.startswith("crit.")}


def bottleneck_table(
    a: RunRecord, b: RunRecord, top: int = 10,
) -> List[Tuple[str, float, float]]:
    """Top edges by max(cycles) across both runs, descending — where
    each system's request latency actually lived."""
    ea, eb = crit_edges(a), crit_edges(b)
    edges = sorted(
        set(ea) | set(eb),
        key=lambda e: (-max(ea.get(e, 0.0), eb.get(e, 0.0)), e),
    )
    return [(edge, ea.get(edge, 0.0), eb.get(edge, 0.0))
            for edge in edges[:top]]


# ----------------------------------------------------------------------
# provenance verdict summary
# ----------------------------------------------------------------------
def verdict_table(
    a: RunRecord, b: RunRecord,
) -> List[Tuple[str, float, float]]:
    """``(verdict, count_a, count_b)`` rows from the ``decisions.*``
    telemetry counters (union of verdicts, sorted)."""

    def counts(record: RunRecord) -> Dict[str, float]:
        tel = record.telemetry or {}
        return {key[len("decisions."):]: float(value)
                for key, value in tel.items()
                if key.startswith("decisions.")}

    ca, cb = counts(a), counts(b)
    return [(verdict, ca.get(verdict, 0.0), cb.get(verdict, 0.0))
            for verdict in sorted(set(ca) | set(cb))]


# ----------------------------------------------------------------------
# the full diff
# ----------------------------------------------------------------------
@dataclass
class RunDiff:
    """Everything the report renders, precomputed."""

    a: RunArtifacts
    b: RunArtifacts
    headline: List[StatDelta]
    tile_heatmaps: Dict[str, Dict[str, List[List[float]]]]
    links: List[Tuple[str, float, float]]
    verdicts: List[Tuple[str, float, float]]
    interval_columns: List[str]
    top_k: int
    top_streams_a: List[Dict[str, Any]]
    top_streams_b: List[Dict[str, Any]]
    # Attribution (empty unless a run carried the attribution pillar /
    # span critical-path counters).
    cpi: List[Tuple[str, float, float]] = field(default_factory=list)
    bottlenecks: List[Tuple[str, float, float]] = field(
        default_factory=list)


_INTERVAL_COLUMNS = (
    "ipc", "noc_util", "l3_mpki", "streams_alive",
    "core_ops", "l2_misses", "se_l3_elements_issued",
)


def diff_runs(a: RunArtifacts, b: RunArtifacts, k: int = 5) -> RunDiff:
    heatmaps: Dict[str, Dict[str, List[List[float]]]] = {}
    pa, pb = a.record.point, b.record.point
    if (pa.cols, pa.rows) == (pb.cols, pb.rows):
        for kind in tile_kinds(a.record, b.record):
            ma = tile_matrix(a.record, kind)
            mb = tile_matrix(b.record, kind)
            heatmaps[kind] = {
                "a": ma, "b": mb, "delta": matrix_delta(ma, mb),
            }
    columns = [c for c in _INTERVAL_COLUMNS
               if any(c in s for s in a.intervals)
               or any(c in s for s in b.intervals)]
    return RunDiff(
        a=a, b=b,
        headline=headline_deltas(a.record, b.record),
        tile_heatmaps=heatmaps,
        links=link_delta_table(a.record, b.record),
        verdicts=verdict_table(a.record, b.record),
        interval_columns=columns,
        top_k=k,
        top_streams_a=top_streams(a.trace_events, k),
        top_streams_b=top_streams(b.trace_events, k),
        cpi=cpi_table(a.record, b.record),
        bottlenecks=bottleneck_table(a.record, b.record),
    )
