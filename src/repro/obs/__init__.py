"""Observability layer: the probe seam, telemetry bus, spans, interval
metrics, kernel profiler and artifact export (DESIGN.md §8).

Only the stdlib-only modules are imported here — ``sim.kernel``
imports this package at module level, and the heavier submodules
(spans/interval/export) import simulator packages, which would cycle
back into ``sim.kernel``. Import those from their modules.
"""

from repro.obs.probes import PROBES, Probes
from repro.obs.telemetry import (
    ENV_INTERVAL,
    ENV_TELEMETRY,
    ENV_TELEMETRY_DIR,
    BusEvent,
    Telemetry,
    TelemetryConfig,
    attach,
    config_from_env,
    enabled_by_env,
    maybe_attach,
)

__all__ = [
    "BusEvent",
    "ENV_INTERVAL",
    "ENV_TELEMETRY",
    "ENV_TELEMETRY_DIR",
    "PROBES",
    "Probes",
    "Telemetry",
    "TelemetryConfig",
    "attach",
    "config_from_env",
    "enabled_by_env",
    "maybe_attach",
]
