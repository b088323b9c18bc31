"""Repo-wide pytest configuration.

The tier-1 suite runs with the runtime invariant sanitizer attached
(DESIGN.md §7): the autouse fixture below attaches a
:class:`~repro.sim.sanitizer.Sanitizer` to every
:class:`~repro.sim.kernel.Simulator` a test builds, bare component
rigs and the test oracles included, so protocol bugs fail the
offending test at the cycle they happen. Attaching it changes no
event the model runs, so the checkers run the one configuration the
benchmarks ship. Tests marked ``no_sanitize`` (and
every benchmark under ``benchmarks/``) build plain simulators.
"""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer


@pytest.fixture(autouse=True)
def _sanitize_by_default(request, monkeypatch):
    """Attach a Sanitizer to each Simulator unless marked no_sanitize."""
    if request.node.get_closest_marker("no_sanitize"):
        return
    init = Simulator.__init__

    def sanitized_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        Sanitizer(self)

    monkeypatch.setattr(Simulator, "__init__", sanitized_init)
