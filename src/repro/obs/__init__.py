"""Observability: the probe seam, the telemetry pillars and artifact export (DESIGN.md §8)."""
