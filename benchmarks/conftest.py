"""Shared benchmark configuration.

All benchmarks run the fast profile (4x4 mesh, capacity scale 16 —
DESIGN.md SS6) and share the harness's run memo, so figures that
reuse the same simulation points (e.g. Figure 13's SF rows feeding
Figure 14) never re-simulate.  They additionally share the harness's
persistent disk cache (``benchmarks/.runcache`` unless
``REPRO_CACHE_DIR`` overrides it), so a *rerun* of the full suite
performs zero new simulations; set ``REPRO_JOBS=N`` to fan the
remaining misses out over N worker processes.

Every benchmark is marked ``slow``: the tier-1 gate is ``pytest
tests/`` (the default testpaths), and the full suite is ``pytest
tests/ benchmarks/``; ``-m "not slow"`` deselects the figures
anywhere.

Each benchmark writes its rendered report (measured values next to
the paper's) under ``benchmarks/out/`` and prints it, so
``pytest benchmarks/ --benchmark-only -s`` reproduces every figure.
"""

import os

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

# Persist simulation results across benchmark sessions (the harness
# only touches the disk cache when REPRO_CACHE_DIR is set).
os.environ.setdefault(
    "REPRO_CACHE_DIR", os.path.join(os.path.dirname(__file__), ".runcache")
)

# Fast-profile geometry shared by all figures.
PROFILE = dict(cols=4, rows=4, scale=16)


def pytest_collection_modifyitems(items):
    """Benchmarks are the slow tier; keep `-m "not slow"` meaningful.

    They also opt out of the runtime invariant sanitizer (DESIGN.md
    §7): figure timings must reflect the simulator's real cost, and
    the tier-1 suite already runs every workload with it enabled.
    """
    for item in items:
        item.add_marker(pytest.mark.slow)
        item.add_marker(pytest.mark.no_sanitize)


# Telemetry summary counters are the only telemetry state that may
# reach a RunRecord (and hence the persistent run cache). All of them
# are deterministic event/sample counts; host wall-clock must never
# appear here or cached results would differ run to run.
_DETERMINISTIC_TELEMETRY_KEYS = {
    "telemetry.spans_opened",
    "telemetry.spans_closed",
    "telemetry.spans_dropped",
    "telemetry.noc_events",
    "telemetry.noc_dropped",
    "telemetry.interval_samples",
    "telemetry.profiled_events",
}


@pytest.fixture(autouse=True)
def _check_cached_telemetry():
    """After each benchmark, check the telemetry counters that reached
    the run memo."""
    yield
    # Host time must never leak into cached run records:
    # the run cache is keyed on simulation parameters only, so a
    # wall-clock-derived stat would go stale (and poison baseline
    # diffs) silently. Telemetry publishes only deterministic counts.
    from repro.harness import runner

    for record in runner._MEMO.values():
        for key, value in record.stats.to_dict().items():
            if key.startswith("telemetry."):
                assert key in _DETERMINISTIC_TELEMETRY_KEYS, (
                    f"unexpected telemetry stat {key!r} in a cached run "
                    "record — is it host-time derived?"
                )
                assert value == int(value), (
                    f"{key} = {value!r} is not an integral count; "
                    "host time must not reach the run cache"
                )


@pytest.fixture(scope="session")
def profile():
    return dict(PROFILE)


def emit(name: str, text: str) -> None:
    """Print a figure's report and save it under benchmarks/out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)


def run_figure(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
