"""Reference execution for the fast-path tests: ``Simulator`` with
handler fusion and packet pooling off, so every zero-delay callback goes
through the event queue and every packet is a fresh allocation. Runs on
the shipping kernel must match it in cycles, logical events and stats
(DESIGN.md §12)."""

from repro.sim.kernel import Simulator


class UnfusedOracle(Simulator):
    fastpath = pooling = False
