"""Decision provenance ledger: every float/no-float/sink/revoke/
follow/migrate/confluence/config verdict with its complete input
snapshot.

Spans record *what* happened; this pillar records *why* (DESIGN.md
§11). The ledger subscribes to the policy probes of the three-level
stream engine — SE_core float/sink/end, SE_L2 follower registration,
SE_L3 configure/migrate/confluence — and appends one
:class:`ProvenanceRecord` per verdict, carrying the exact state the
policy saw: per-stream history (Table II), pattern class, bank
locality, epoch, credits. The ordered, bounded record list exports as
queryable JSONL and as Chrome-trace instant events on the stream
tracks.

The ledger also keeps the per-tile and per-link activity counters the
differential observatory's heatmaps need (L3-bank demand/GetU/DRAM
traffic per tile; flits per directed mesh link), surfaced through
``Telemetry.summary()`` so they ride the ``telemetry.*`` stats into
every :class:`~repro.harness.runner.RunRecord`.

Zero-cost-when-off contract: nothing here is imported or subscribed
unless the ``provenance`` pillar is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

MAX_DECISIONS = 100_000  # ledger cap (drops counted)


@dataclass
class ProvenanceRecord:
    """One decision with its evidence."""

    cycle: int
    tile: int
    verdict: str  # float | no_float | sink | revoke | follow |
    #               migrate | confluence | config_installed |
    #               config_stale | config_rejected | config_replaced
    # ("revoke": the smart policy undid a float it judged bad mid-run;
    #  the reason names the trigger, e.g. revoke_reuse_burst.)
    sid: Optional[int] = None
    requester: Optional[int] = None
    reason: str = ""
    inputs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "cycle": self.cycle, "tile": self.tile,
            "verdict": self.verdict, "sid": self.sid,
            "reason": self.reason, "inputs": dict(self.inputs),
        }
        if self.requester is not None:
            out["requester"] = self.requester
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProvenanceRecord":
        return cls(
            cycle=payload["cycle"], tile=payload["tile"],
            verdict=payload["verdict"], sid=payload.get("sid"),
            requester=payload.get("requester"),
            reason=payload.get("reason", ""),
            inputs=dict(payload.get("inputs", {})),
        )


def _policy_snapshot(se, stream) -> Dict[str, Any]:
    """The float/sink policy's complete input state for one stream
    (Table II history + pattern class + bank locality + progress)
    — what a provenance record stores as the decision's evidence."""
    ent = se.history.entry(stream.sid)
    pattern = stream.spec.pattern
    snap: Dict[str, Any] = {
        "requests": ent.requests, "reuses": ent.reuses,
        "misses": ent.misses, "aliased": ent.aliased,
        "miss_ratio": round(ent.miss_ratio, 4),
        "pattern": type(pattern).__name__,
        "length": stream.spec.length,
        "next_issue": stream.next_issue,
        "consecutive_hits": stream.consecutive_hits,
        # Windowed shadow counters + revocation state (the smart
        # policy's extra decision inputs; zero under static).
        "w_requests": ent.w_requests, "w_reuses": ent.w_reuses,
        "w_misses": ent.w_misses, "w_stores": ent.w_stores,
        "cooldown": ent.cooldown, "revokes": ent.revokes,
        "policy": getattr(se, "float_policy", "static"),
    }
    if stream.plan is not None:
        snap["plan"] = stream.plan.describe()
    footprint = getattr(pattern, "footprint_bytes", None)
    if footprint is not None:
        snap["footprint"] = footprint()
    if se.se_l2 is not None and stream.spec.length > 0:
        idx = min(stream.next_issue, stream.spec.length - 1)
        snap["home_bank"] = se.se_l2.nuca.bank_of(pattern.address(idx))
    return snap


class ProvenanceLedger:
    """Probe subscriber assembling the decision ledger + heatmap data."""

    def __init__(self, sim) -> None:
        self.max_records = MAX_DECISIONS
        self.sim = sim
        self.records: List[ProvenanceRecord] = []
        self.dropped = 0
        # tile -> {kind: count} (L3-bank occupancy heatmap input).
        self.tile_activity: Dict[int, Dict[str, int]] = {}
        # (src, dst) directed mesh link -> flits (NoC-link heatmap).
        self.link_flits: Dict[Tuple[int, int], int] = {}
        probes = sim.probes
        for name in ("se_float_decision", "se_sink_decision", "se_end",
                     "se_l2_follow", "se_l3_configure", "se_l3_migrate",
                     "se_l3_confluence", "l3_demand", "l3_getu", "dram"):
            probes.subscribe(name, getattr(self, f"_on_{name}"))
        probes.subscribe("noc_links", self.record_links)

    def _append(self, tile: int, verdict: str, sid: Optional[int],
                reason: str, inputs: Dict[str, Any],
                requester: Optional[int] = None) -> None:
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(ProvenanceRecord(
            cycle=self.sim.now, tile=tile, verdict=verdict, sid=sid,
            requester=requester, reason=reason, inputs=inputs,
        ))

    # ------------------------------------------------------------------
    # SE_core verdicts
    # ------------------------------------------------------------------
    def _on_se_float_decision(self, se, stream, reason: str, plan) -> None:
        inputs = _policy_snapshot(se, stream)
        if plan is not None:
            inputs["plan"] = plan.describe()
        self._append(se.tile, "float", stream.sid, reason, inputs)

    def _on_se_sink_decision(self, se, stream, reason: str) -> None:
        # A smart-policy revocation is its own verdict: the policy
        # actively undid a float it now judges bad (the reason names
        # the trigger).
        verdict = "revoke" if reason.startswith("revoke") else "sink"
        self._append(se.tile, verdict, stream.sid, reason,
                     _policy_snapshot(se, stream))

    def _on_se_end(self, se, sids) -> None:
        # Terminal no-float verdicts: a load stream that retires without
        # ever floating records why the policy never fired.
        for sid in sids:
            stream = se.streams.get(sid)
            if (
                stream is not None and not stream.floating
                and stream.spec.kind == "load" and stream.parent is None
            ):
                self._append(se.tile, "no_float", sid, "never_qualified",
                             _policy_snapshot(se, stream))

    # ------------------------------------------------------------------
    # SE_L2 and SE_L3 verdicts
    # ------------------------------------------------------------------
    def _on_se_l2_follow(self, se, spec, leader) -> None:
        self._append(se.tile, "follow", spec.sid, "constant_offset", {
            "leader_sid": leader.sid,
            "delta": leader.followers[spec.sid].delta,
            "pattern": type(spec.pattern).__name__,
            "length": spec.length,
            "epoch": leader.epoch,
        })

    def _on_se_l3_configure(self, se3, body, start_idx: int,
                            migrated: bool, verdict: str) -> None:
        spec = body.spec
        inputs = {
            "start_idx": start_idx, "credits": body.credits,
            "epoch": body.epoch, "migrated": migrated,
            "pattern": type(spec.pattern).__name__,
            "length": spec.length,
            "resident_streams": len(se3.streams),
        }
        if body.plan is not None:
            inputs["plan"] = body.plan.describe()
        self._append(se3.tile, f"config_{verdict}", spec.sid,
                     "migrate" if migrated else "float_config", inputs,
                     requester=body.requester)

    def _on_se_l3_migrate(self, se3, stream, to_bank: int) -> None:
        self._append(se3.tile, "migrate", stream.spec.sid,
                     "next_elem_remote", {
                         "elem": stream.next_idx, "to_bank": to_bank,
                         "epoch": stream.epoch, "credits": stream.credits,
                     }, requester=stream.requester)

    def _on_se_l3_confluence(self, se3, stream) -> None:
        self._append(se3.tile, "confluence", stream.spec.sid,
                     "same_shape_same_block",
                     {"group_size": len(stream.group.members)},
                     requester=stream.requester)

    # ------------------------------------------------------------------
    # tile activity (L3-bank heatmap)
    # ------------------------------------------------------------------
    def _count(self, tile: int, kind: str) -> None:
        per_tile = self.tile_activity.setdefault(tile, {})
        per_tile[kind] = per_tile.get(kind, 0) + 1

    def _on_l3_demand(self, bank, msg, outcome: str) -> None:
        self._count(bank.tile, "l3_demand")

    def _on_l3_getu(self, bank, msg) -> None:
        self._count(bank.tile, "getu")

    def _on_dram(self, ctrl, msg, done: int) -> None:
        self._count(ctrl.tile, "dram")

    # ------------------------------------------------------------------
    # link accounting (the noc_links probe subscriber)
    # ------------------------------------------------------------------
    def record_links(self, route: Iterable[Tuple[int, int]],
                     flits: int) -> None:
        for link in route:
            self.link_flits[link] = self.link_flits.get(link, 0) + flits

    # ------------------------------------------------------------------
    # queries / export feeds
    # ------------------------------------------------------------------
    def verdict_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.records:
            counts[rec.verdict] = counts.get(rec.verdict, 0) + 1
        return counts

    def by_verdict(self, verdict: str) -> List[ProvenanceRecord]:
        return [r for r in self.records if r.verdict == verdict]

    def summary(self) -> Dict[str, float]:
        """Flat deterministic counters for ``Telemetry.summary()``
        (and therefore ``telemetry.*`` stats + RunRecord.telemetry)."""
        out: Dict[str, float] = {
            "decisions": len(self.records),
            "decisions_dropped": self.dropped,
        }
        for verdict, count in sorted(self.verdict_counts().items()):
            out[f"decisions.{verdict}"] = count
        for tile in sorted(self.tile_activity):
            for kind, count in sorted(self.tile_activity[tile].items()):
                out[f"tile.{tile}.{kind}"] = count
        for (src, dst) in sorted(self.link_flits):
            out[f"link.{src}>{dst}.flits"] = self.link_flits[(src, dst)]
        return out

    def to_rows(self, slug: Optional[str] = None) -> List[Dict[str, Any]]:
        """JSONL-ready row per record (insertion = cycle order)."""
        rows = []
        for rec in self.records:
            row = rec.to_dict()
            if slug is not None:
                row["point"] = slug
            rows.append(row)
        return rows
