"""Telemetry artifact writers: Chrome trace JSON, interval series,
profiler reports.

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

import csv
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.obs.interval import IntervalSampler
from repro.obs.spans import Span, SpanCollector
from repro.obs.telemetry import DEFAULT_INTERVAL, TelemetryConfig

_TRACKS = ("mem", "stream-data", "streams", "noc")
_TRACK_OF_KIND = {"mem": 0, "elem": 1, "stream": 2}
_PH_ORDER = {"M": 0, "X": 1, "s": 2, "f": 3}


def point_slug(params: Dict[str, Any]) -> str:
    """Deterministic human-readable label for one simulation point."""
    parts = [
        str(params.get("workload", "?")),
        str(params.get("config", "?")),
        str(params.get("core", "?")),
        f"{params.get('cols', '?')}x{params.get('rows', '?')}",
        f"s{params.get('scale', '?')}",
    ]
    seed = params.get("seed", 0)
    if seed:
        parts.append(f"seed{seed}")
    obs = params.get("obs")
    if obs:
        parts.append("obs-" + str(obs).replace(",", "+"))
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
    """JSONL by default; CSV when ``path`` ends in ``.csv``."""
    columns = ["point"] + IntervalSampler.columns()
    if path.endswith(".csv"):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns,
                                    extrasaction="ignore")
            writer.writeheader()
            for sample in samples:
                writer.writerow(sample)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for sample in samples:
                fh.write(json.dumps(sample, sort_keys=True) + "\n")
    return path


def write_profile(path: str, points: List[Dict[str, Any]]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"points": points}, fh, indent=1, sort_keys=True)
        fh.write("\n")
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


def point_artifacts(telemetry, slug: str) -> Dict[str, Any]:
    """One simulated point's telemetry as plain data: the bundle a
    fan-out worker returns to the parent and a sink adds.

    Keys: ``point`` (the slug), ``trace`` (span and NoC trace events,
    pid 1), ``decisions`` (decision-ledger instant events, pid 1),
    ``provenance`` (ledger rows), ``intervals`` (samples), ``profile``
    (the profiler payload) — each ``None`` when its pillar was off —
    and ``summary`` (:meth:`Telemetry.summary`).
    """
    spans = telemetry.spans
    sampler = telemetry.sampler
    profiler = telemetry.profiler
    ledger = telemetry.provenance
    return {
        "point": slug,
        "trace": (None if spans is None
                  else chrome_trace_events(spans, pid=1, point=slug)),
        "decisions": (None if ledger is None
                      else provenance_instant_events(ledger, pid=1,
                                                     point=slug)),
        "provenance": None if ledger is None else ledger.to_rows(slug),
        "intervals": (None if sampler is None
                      else [{"point": slug, **s} for s in sampler.samples]),
        "profile": (None if profiler is None
                    else {"point": slug, **profiler.payload()}),
        "summary": telemetry.summary(),
    }


class TelemetrySink:
    """Merges per-point artifact bundles into the requested outputs.

    The harness CLI installs one with
    ``repro.harness.runner.configure_telemetry``: every point the
    session simulates then attaches :attr:`config` and the sink
    :meth:`add`-s its :func:`point_artifacts` bundle, in the order the
    figure enumerates its points whichever process simulated them. The
    CLI calls :meth:`write` once the figure completes.
    """

    def __init__(
        self,
        trace_out: Optional[str] = None,
        interval_out: Optional[str] = None,
        profile_out: Optional[str] = None,
        provenance_out: Optional[str] = None,
        interval: int = DEFAULT_INTERVAL,
    ) -> None:
        self.trace_out = trace_out
        self.interval_out = interval_out
        self.profile_out = profile_out
        self.provenance_out = provenance_out
        self.interval = interval
        self.points = 0
        self._trace_events: List[Dict[str, Any]] = []
        self._samples: List[Dict[str, Any]] = []
        self._profiles: List[Dict[str, Any]] = []
        self._provenance_rows: List[Dict[str, Any]] = []
        # Nonzero drop counters seen per point: bounded buffers
        # truncating silently would corrupt attribution totals, so the
        # sink surfaces every truncation loudly.
        self.drop_warnings: List[str] = []

    @property
    def config(self) -> TelemetryConfig:
        """The pillars the requested outputs need."""
        return TelemetryConfig(
            spans=bool(self.trace_out),
            interval=self.interval if self.interval_out else 0,
            profile=bool(self.profile_out),
            provenance=bool(self.provenance_out),
        )

    def _check_drops(self, summary: Dict[str, float], slug: str) -> None:
        dropped = {
            name: value
            for name, value in summary.items()
            if "dropped" in name and value
        }
        if dropped:
            detail = ", ".join(
                f"{name}={int(value)}" for name, value in sorted(dropped.items())
            )
            message = (
                f"[obs] WARNING {slug}: telemetry buffers overflowed "
                f"and dropped data ({detail}); raise the caps or "
                f"shrink the point — derived totals are incomplete"
            )
            self.drop_warnings.append(message)
            print(message, file=sys.stderr)

    def add(self, bundle: Dict[str, Any]) -> None:
        """Merge one :func:`point_artifacts` bundle as the next point:
        its trace events move to pid :attr:`points` and its flow-arrow
        ids ``"<pid>.<n>"`` follow, so every point keeps one process."""
        self.points += 1
        pid = self.points
        self._check_drops(bundle["summary"], bundle["point"])
        if self.trace_out:
            for event in (bundle["trace"] or []) + (bundle["decisions"] or []):
                event = dict(event, pid=pid)
                if "id" in event:
                    event["id"] = f"{pid}.{event['id'].split('.', 1)[1]}"
                self._trace_events.append(event)
        if self.interval_out and bundle["intervals"]:
            self._samples.extend(bundle["intervals"])
        if self.profile_out and bundle["profile"] is not None:
            self._profiles.append(bundle["profile"])
        if self.provenance_out and bundle["provenance"]:
            self._provenance_rows.extend(bundle["provenance"])

    def profile_report(self) -> str:
        lines = []
        for entry in self._profiles:
            lines.append(f"== {entry['point']} ==")
            lines.append(
                f"{'callback':<40} {'events':>10} {'seconds':>10} "
                f"{'us/event':>10}"
            )
            for row in entry["top"]:
                lines.append(
                    f"{row['callback']:<40} {row['events']:>10} "
                    f"{row['seconds']:>10.3f} {row['us_per_event']:>10.3f}"
                )
        return "\n".join(lines)

    def write(self) -> List[str]:
        written: List[str] = []
        if self.trace_out:
            written.append(
                write_chrome_trace(self.trace_out, self._trace_events))
        if self.interval_out:
            written.append(write_intervals(self.interval_out, self._samples))
        if self.profile_out:
            written.append(write_profile(self.profile_out, self._profiles))
        if self.provenance_out:
            written.append(write_provenance(
                self.provenance_out, self._provenance_rows))
        return written


def write_point_dir(bundle: Dict[str, Any], out_dir: str) -> List[str]:
    """Write one bundle as a ``python -m repro.obs run`` directory:
    ``<slug>.trace.json``, ``.intervals.jsonl``, ``.profile.json`` and
    ``.provenance.jsonl``, one per pillar that ran."""
    os.makedirs(out_dir, exist_ok=True)

    def out(key: str, suffix: str) -> Optional[str]:
        if bundle[key] is None:
            return None
        return os.path.join(out_dir, bundle["point"] + suffix)

    sink = TelemetrySink(
        trace_out=out("trace", ".trace.json"),
        interval_out=out("intervals", ".intervals.jsonl"),
        profile_out=out("profile", ".profile.json"),
        provenance_out=out("provenance", ".provenance.jsonl"),
    )
    sink.add(bundle)
    return sink.write()
