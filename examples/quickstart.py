#!/usr/bin/env python
"""Quickstart: build a chip, run a workload, compare systems.

Simulates the hotspot stencil on a 4x4-tile chip under three systems
— no prefetching, the Bingo prefetcher, and stream floating — and
prints cycles, NoC traffic and energy for each. This is the minimal
end-to-end use of the library's public API:

    Chip(make_config(...)).run(build_programs(...))

Run:  python examples/quickstart.py
"""

from repro.energy.model import EnergyModel
from repro.system import Chip, make_config
from repro.workloads import build_programs


def simulate(system: str) -> None:
    params = make_config(system, core="ooo8", cols=4, rows=4, scale=16)
    chip = Chip(params)
    programs = build_programs("hotspot", chip.num_cores, scale=16)
    result = chip.run(programs)
    energy = EnergyModel().evaluate(result.stats, result.cycles, params)
    traffic = result.noc_flit_hops
    print(f"{system:>6s}: {result.cycles:>9,} cycles   "
          f"{traffic:>12,.0f} flit-hops   {energy.total / 1e6:8.2f} uJ")


def main() -> None:
    print("hotspot on a 4x4 chip (scale-16 fast profile)")
    for system in ("base", "bingo", "sf"):
        simulate(system)
    print("\nExpected shape: 'sf' is fastest, with the least traffic —")
    print("the stream engines float the stencil's row streams to the")
    print("L3 banks, which push data without per-line requests.")


if __name__ == "__main__":
    main()
