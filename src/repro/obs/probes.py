"""The probe seam: the one declared set of points where a run is observed.

Every observer of a simulation — the sanitizer (DESIGN.md §7), the
telemetry pillars (§8) and the S5 trace recorder (§11) — attaches
here and nowhere else. The model declares its probe points in
:data:`PROBES`; each :class:`~repro.sim.kernel.Simulator` owns one
:class:`Probes` object that holds, per probe, ``None`` or the callable
to fire. A component binds the seam once, in its constructor::

    self._probes = sim.probes.bind("l1", self)

and fires a probe where the model reaches it::

    p = self._probes.l1_fill
    if p is not None:
        p(self, base, reason)

A probe nobody subscribes to costs that one attribute test and no
call. Probes fire synchronously, inside the handler that reaches them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

# Probe name -> the arguments it fires with. Grouped by the component
# that fires it; "before"/"after" is relative to the model step named.
PROBES: Dict[str, Tuple[str, ...]] = {
    # kernel: around each dispatch run() makes
    "dispatch": ("when", "fn"),
    "dispatched": ("when", "fn"),
    # assembly: a component bound the seam (replayed to late subscribers)
    "built": ("role", "component"),
    # network
    "noc_send": ("packet", "when"),  # a delivery is scheduled (per leg)
    "noc_links": ("links", "flits"),  # flits cross these mesh links
    "noc_deliver": ("handler", "packet"),  # before an endpoint handler
    "noc_delivered": ("handler", "packet"),  # after it returns
    # private caches
    "l1_miss": ("l1", "req", "base", "fresh"),
    "l1_fill": ("l1", "base", "reason"),  # reason: fill|uncached|drop
    "l1_writeback": ("l1", "addr"),  # before a dirty victim folds into L2
    "l2_miss": ("l2", "req", "base", "fresh", "via"),
    "l2_data": ("l2", "base", "src"),
    # L3 bank and memory
    "l3_demand": ("bank", "msg", "outcome"),  # after a GetS/GetX/GetU step
    "l3_getu": ("bank", "msg"),  # the colocated SE_L3 issued a GetU
    "l3_processed": ("bank", "msg"),  # after any transaction step
    "dram": ("ctrl", "msg", "done"),
    # core commit front
    "core_phase": ("core", "phase"),  # before the phase configures
    "core_phase_done": ("core",),  # before the barrier callback
    "core_iter_finish": ("core", "seq", "by_load"),
    # core-side stream engine
    "se_float_decision": ("se", "stream", "reason", "plan"),
    "se_floated": ("se", "stream"),
    "se_sink_decision": ("se", "stream", "reason"),
    "se_sunk": ("se", "stream"),
    "se_end": ("se", "sids"),  # before stream_end retires the sids
    # L2-side stream engine
    "se_l2_datau": ("se", "sid", "element", "src"),
    "se_l2_follow": ("se", "spec", "leader"),
    "se_l2_config_sent": ("se", "stream"),  # a FloatConfig left
    "se_l2_credit": ("se", "stream", "count"),  # credits granted
    # L3-side stream engine
    "se_l3_migrate": ("se", "stream", "to_bank"),
    "se_l3_confluence": ("se", "stream"),
    "se_l3_credit": ("se", "body"),
    "se_l3_end": ("se", "body"),
    "se_l3_configure": ("se", "body", "start_idx", "migrated", "verdict"),
    "se_l3_issue": ("se", "members", "count"),  # each spends count credits
    "se_l3_data_ready": ("se", "participants"),  # before the response
    "se_l3_retire": ("se", "stream"),  # a resident incarnation ends here
}


def _fan_out(fns: Tuple[Callable[..., None], ...]) -> Callable[..., None]:
    def fire(*args: Any) -> None:
        for fn in fns:
            fn(*args)

    return fire


class Probes:
    """Per-simulator probe table: one attribute per declared probe."""

    __slots__ = tuple(PROBES) + ("_subs", "bound")

    def __init__(self) -> None:
        for name in PROBES:
            setattr(self, name, None)
        self._subs: Dict[str, List[Callable[..., None]]] = {}
        # Every (role, component) bound so far, in build order.
        self.bound: List[Tuple[str, Any]] = []

    def bind(self, role: str, component: Any) -> "Probes":
        """Record ``component`` (fires ``built``); returns the seam the
        component keeps for firing its probes."""
        self.bound.append((role, component))
        p = self.built
        if p is not None:
            p(role, component)
        return self

    def subscribe(self, name: str, fn: Callable[..., None]) -> None:
        """Call ``fn`` with the probe's arguments each time it fires.

        Subscribers of one probe run in subscription order. Subscribing
        to ``built`` first replays every component bound so far, so an
        observer attached after assembly sees the same components as
        one attached before it.
        """
        if name not in PROBES:
            raise ValueError(
                f"unknown probe {name!r}; declared: {sorted(PROBES)}"
            )
        subs = self._subs.setdefault(name, [])
        subs.append(fn)
        setattr(self, name, subs[0] if len(subs) == 1 else _fan_out(tuple(subs)))
        if name == "built":
            for role, component in list(self.bound):
                fn(role, component)
