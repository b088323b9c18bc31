"""Reference execution for the fast-path tests: ``Simulator`` with
handler fusion off, so every zero-delay callback goes through the event
queue. Runs on the shipping kernel must match it in cycles, logical
events and stats (DESIGN.md §12)."""

from repro.sim.kernel import Simulator


class UnfusedOracle(Simulator):
    fastpath = False
