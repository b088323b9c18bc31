"""Experiment harness: points and their runner, cache, figures, reports."""

from repro.harness.runner import (
    Point,
    RunRecord,
    clear_cache,
    configure_disk_cache,
    resolve_jobs,
    run_once,
    run_points,
)
from repro.harness.cache import RunCache, default_cache_dir
from repro.harness import experiments, report

__all__ = [
    "Point",
    "run_once",
    "run_points",
    "RunRecord",
    "RunCache",
    "clear_cache",
    "configure_disk_cache",
    "default_cache_dir",
    "resolve_jobs",
    "experiments",
    "report",
]
