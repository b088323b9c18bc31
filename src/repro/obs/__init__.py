"""Observability layer: the probe seam and the telemetry pillars that
subscribe to it — spans, interval metrics, kernel profiler, decision
provenance, cycle accounting — plus artifact export (DESIGN.md §8).

Only the stdlib-only modules are imported here — ``sim.kernel``
imports this package at module level, and the heavier submodules
(spans/interval/export) import simulator packages, which would cycle
back into ``sim.kernel``. Import those from their modules.
"""

from repro.obs.probes import PROBES, Probes
from repro.obs.telemetry import StreamEvent, Telemetry, TelemetryConfig, attach

__all__ = [
    "PROBES",
    "Probes",
    "StreamEvent",
    "Telemetry",
    "TelemetryConfig",
    "attach",
]
