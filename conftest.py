"""Repo-wide pytest configuration.

The tier-1 suite runs with the runtime invariant sanitizer enabled
(DESIGN.md §7): every :class:`~repro.sim.kernel.Simulator` constructed
during a test attaches checkers, so protocol bugs fail the offending
test at the cycle they happen. The sanitizer leaves handler fusion and
packet pooling on, so the checkers run the one configuration the
benchmarks ship. Perf-sensitive tests (the benchmark figures) opt out
with the ``no_sanitize`` marker.
"""

import pytest

from repro.sim.sanitizer import ENV_SANITIZE


@pytest.fixture(autouse=True)
def _sanitize_by_default(request, monkeypatch):
    """Enable REPRO_SANITIZE for every test unless marked no_sanitize."""
    if request.node.get_closest_marker("no_sanitize"):
        monkeypatch.delenv(ENV_SANITIZE, raising=False)
    else:
        monkeypatch.setenv(ENV_SANITIZE, "1")
