"""Telemetry artifact writers: Chrome trace JSON, interval series,
decision-provenance ledger — the files of a ``python -m repro.obs run``
directory (:func:`write_point_dir`).

The trace exporter emits Chrome trace-event format (the JSON object
form: ``{"traceEvents": [...]}``) openable in Perfetto or
``chrome://tracing``. Mapping (DESIGN.md §8):

- one *process* (pid) per simulation point, named with the point slug;
- four *threads* (tracks) per tile: ``tile T mem`` (demand/prefetch
  line fetches), ``tile T stream-data`` (floated element spans),
  ``tile T streams`` (float→migrate→sink lifecycle spans) and
  ``tile T noc`` (packet departures/arrivals);
- spans are ``ph: "X"`` complete events with ``ts``/``dur`` in
  simulated cycles and their hop list in ``args.hops`` as
  ``[name, cycle, tile, detail]`` rows;
- NoC hops are ``ph: "s"``/``"f"`` flow arrows anchored on dur-1
  slices at the departure and arrival tracks, ``id``-ed by the
  arrow's send order within the point.

Everything emitted is simulated-time data — export is deterministic
for a deterministic run.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.obs.spans import Span, SpanCollector

_TRACKS = ("mem", "stream-data", "streams", "noc")
_TRACK_OF_KIND = {"mem": 0, "elem": 1, "stream": 2}
_PH_ORDER = {"M": 0, "X": 1, "s": 2, "f": 3}


def point_slug(params: Dict[str, Any]) -> str:
    """Deterministic human-readable label for one simulation point:
    it names every parameter that makes the point a distinct model run
    (a default link width or interleave is left out)."""
    parts = [
        str(params.get("workload", "?")),
        str(params.get("config", "?")),
        str(params.get("core", "?")),
        f"{params.get('cols', '?')}x{params.get('rows', '?')}",
        f"s{params.get('scale', '?')}",
    ]
    link_bits = params.get("link_bits", 256)
    if link_bits != 256:
        parts.append(f"link{link_bits}")
    interleave = params.get("l3_interleave")
    if interleave is not None:
        parts.append(f"ilv{interleave}")
    seed = params.get("seed", 0)
    if seed:
        parts.append(f"seed{seed}")
    return "-".join(parts)


def _span_name(span: Span) -> str:
    if span.kind == "mem":
        tag = "pf" if span.meta.get("prefetch") else (
            "st" if span.meta.get("write") else "ld")
        return f"{tag} {span.meta.get('addr', 0):#x}"
    if span.kind == "elem":
        return f"sid {span.meta.get('sid')} elem {span.meta.get('element')}"
    if span.kind == "stream":
        return f"stream sid {span.meta.get('sid')} #{span.key[3]}"
    return span.kind


def chrome_trace_events(
    spans: SpanCollector, pid: int = 1, point: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Flatten one point's spans + NoC events into trace events."""
    events: List[Dict[str, Any]] = []
    tids_used: Dict[int, str] = {}

    def tid_for(tile: int, track: int) -> int:
        tid = int(tile) * len(_TRACKS) + track
        tids_used.setdefault(tid, f"tile {tile} {_TRACKS[track]}")
        return tid

    for span in spans.spans:
        args: Dict[str, Any] = {
            "key": "/".join(str(k) for k in span.key),
            "hops": [[h.name, h.cycle, h.tile, h.detail]
                     for h in span.hops],
        }
        for name, value in sorted(span.meta.items()):
            args[name] = str(value) if isinstance(value, tuple) else value
        if not span.closed:
            args["open"] = True
        events.append({
            "ph": "X", "pid": pid,
            "tid": tid_for(span.tile, _TRACK_OF_KIND[span.kind]),
            "ts": span.start, "dur": span.duration(),
            "name": _span_name(span), "cat": span.kind, "args": args,
        })
    for noc in spans.noc_events:
        flow_id = f"{pid}.{noc['id']}"
        src_tid = tid_for(noc["src"], 3)
        dst_tid = tid_for(noc["dst"], 3)
        name = f"{noc['kind']} -> {noc['dst']}:{noc['port']}"
        events.append({
            "ph": "X", "pid": pid, "tid": src_tid, "ts": noc["depart"],
            "dur": 1, "name": name, "cat": "noc",
        })
        events.append({
            "ph": "s", "pid": pid, "tid": src_tid, "ts": noc["depart"],
            "id": flow_id, "name": "noc", "cat": "noc",
        })
        events.append({
            "ph": "X", "pid": pid, "tid": dst_tid, "ts": noc["arrive"],
            "dur": 1, "name": f"{noc['kind']} from {noc['src']}",
            "cat": "noc",
        })
        events.append({
            "ph": "f", "bp": "e", "pid": pid, "tid": dst_tid,
            "ts": noc["arrive"], "id": flow_id, "name": "noc",
            "cat": "noc",
        })
    # Track naming metadata (Perfetto reads process_name/thread_name).
    events.append({
        "ph": "M", "pid": pid, "ts": 0, "name": "process_name",
        "args": {"name": point or f"point {pid}"},
    })
    for tid in sorted(tids_used):
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "name": "thread_name", "args": {"name": tids_used[tid]},
        })
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "name": "thread_sort_index", "args": {"sort_index": tid},
        })
    # Stable, deterministic order: metadata first, then by timestamp.
    events.sort(key=lambda e: (
        0 if e["ph"] == "M" else 1,
        e["ts"], e["pid"], e.get("tid", -1),
        _PH_ORDER.get(e["ph"], 9), e.get("name", ""),
    ))
    return events


def write_chrome_trace(path: str, events: List[Dict[str, Any]]) -> str:
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_intervals(path: str, samples: List[Dict[str, Any]]) -> str:
    """One JSON object per sample per line (JSONL)."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample, sort_keys=True) + "\n")
    return path


def provenance_instant_events(
    ledger, pid: int = 1, point: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Decision-ledger records as Chrome-trace ``ph: "i"`` instant
    events on the per-tile *streams* track (same tid scheme as
    :func:`chrome_trace_events`), so verdicts line up visually with
    the stream lifecycle spans they decided.

    Kept separate from :func:`chrome_trace_events` so span-only
    exports (and their goldens) are unaffected by the provenance
    pillar.
    """
    events: List[Dict[str, Any]] = []
    streams_track = _TRACKS.index("streams")
    for rec in ledger.records:
        args: Dict[str, Any] = {"verdict": rec.verdict}
        if rec.sid is not None:
            args["sid"] = rec.sid
        if rec.requester is not None:
            args["requester"] = rec.requester
        if rec.reason:
            args["reason"] = rec.reason
        for name, value in sorted(rec.inputs.items()):
            args[name] = str(value) if isinstance(value, tuple) else value
        if point is not None:
            args["point"] = point
        events.append({
            "ph": "i", "s": "t", "pid": pid,
            "tid": int(rec.tile) * len(_TRACKS) + streams_track,
            "ts": rec.cycle, "name": rec.verdict, "cat": "decision",
            "args": args,
        })
    return events


def write_provenance(path: str, rows: List[Dict[str, Any]]) -> str:
    """Queryable JSONL: one decision record per line, ledger order."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def _warn_drops(summary: Dict[str, float], slug: str) -> None:
    """Print one stderr warning naming every nonzero ``*dropped*``
    counter: a bounded buffer that truncated silently would corrupt
    attribution totals."""
    dropped = {
        name: value
        for name, value in summary.items()
        if "dropped" in name and value
    }
    if dropped:
        detail = ", ".join(
            f"{name}={int(value)}" for name, value in sorted(dropped.items())
        )
        print(
            f"[obs] WARNING {slug}: telemetry buffers overflowed "
            f"and dropped data ({detail}); raise the caps or "
            f"shrink the point — derived totals are incomplete",
            file=sys.stderr,
        )


def write_point_dir(telemetry, slug: str, out_dir: str) -> List[str]:
    """Write one point's telemetry as a ``python -m repro.obs run``
    directory, one file per pillar that ran: ``<slug>.trace.json``
    (span and NoC events, then the decision instants),
    ``<slug>.intervals.jsonl`` and ``<slug>.provenance.jsonl``.
    Returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    _warn_drops(telemetry.summary(), slug)
    spans = telemetry.spans
    sampler = telemetry.sampler
    ledger = telemetry.provenance
    stem = os.path.join(out_dir, slug)
    written: List[str] = []
    if spans is not None:
        events = chrome_trace_events(spans, pid=1, point=slug)
        if ledger is not None:
            events += provenance_instant_events(ledger, pid=1, point=slug)
        written.append(write_chrome_trace(stem + ".trace.json", events))
    if sampler is not None:
        written.append(write_intervals(
            stem + ".intervals.jsonl",
            [{"point": slug, **s} for s in sampler.samples]))
    if ledger is not None:
        written.append(write_provenance(
            stem + ".provenance.jsonl", ledger.to_rows(slug)))
    return written
